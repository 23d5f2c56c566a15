//===- codegen/KernelPlanMemo.h - Plan each PIM kernel once -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel-plan memo: the command-scheduling pass (Section 4.3.1) runs
/// once per (PimKernelSpec, PimConfig, CodegenOptions) key, and every later
/// request for the key is answered from the memo. The key is exact: the
/// pass's result depends on nothing else, and PimConfig and CodegenOptions
/// compare with defaulted operator==, so a field added later is part of the
/// key automatically.
///
/// An entry is compact (KernelPlanEntry): the chosen mapping, its timing,
/// its four command counts and one channel's phase cycles. It keeps no
/// command trace; every occupied channel runs the same stream, and
/// PimCommandGenerator::traceFor rebuilds it from the mapping when a
/// fault-aware run or a trace dump needs it.
///
/// The memo is thread-safe and single-flight, like the profiler's: two
/// threads requesting the same key resolve to one computation, and the
/// loser waits for the winner's result. Exactly one request per key
/// computes, so the `codegen.*` and `pim.sim.*` counts are the same for
/// every worker count.
///
/// Ownership: SystemConfig holds the memo through a shared_ptr created with
/// the config, so its copies (a PimFlow's profiler, engines, recovery, a
/// server's per-grant configs) share one memo and a fresh config starts
/// empty. There is no eviction; the memo lives as long as its owner.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_CODEGEN_KERNELPLANMEMO_H
#define PIMFLOW_CODEGEN_KERNELPLANMEMO_H

#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "codegen/CommandGenerator.h"

namespace pf {

/// What the memo keeps of one planned kernel (104 bytes).
struct KernelPlanEntry : PimMapping {
  /// PimKernelPlan::Ns: kernel latency, partial-sum merge included.
  double Ns = 0.0;
  /// PimKernelPlan::Stats.Ns: the simulated makespan alone.
  double SimNs = 0.0;
  /// Command counts, expanded over block repeats and summed over channels.
  int64_t GwriteBursts = 0;
  int64_t GActs = 0;
  int64_t CompColumns = 0;
  int64_t ReadResCmds = 0;
  /// Phase cycles of each occupied channel: all run the same trace, and a
  /// fault-free run spends no retry or stall time.
  int64_t GwriteCycles = 0;
  int64_t GactCycles = 0;
  int64_t CompCycles = 0;
  int64_t ReadResCycles = 0;
  int64_t CompletionCycles = 0;

  /// The phase cycles as occupied channel \p Channel's.
  ChannelPhaseCycles phasesOn(int Channel) const;
};

class KernelPlanner;

/// The kernel-plan memo of one SystemConfig and its copies.
class KernelPlanMemo {
public:
  /// The planner of (\p Pim, \p Codegen), created on first use. The
  /// reference stays valid for the memo's lifetime.
  KernelPlanner &planner(const PimConfig &Pim, const CodegenOptions &Codegen);

  /// Entries computed so far, over every config.
  size_t size() const;

private:
  friend class KernelPlanner;

  /// A config (by its planner's index) and a spec.
  struct Key {
    PimKernelSpec Spec;
    uint32_t Config = 0;
    bool operator==(const Key &) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const noexcept;
  };
  /// A shard of the table. A key is in Pending while its owner computes
  /// it (other threads wait on a copy of the future), then in Plans.
  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<Key, KernelPlanEntry, KeyHash> Plans;
    std::unordered_map<Key, std::shared_future<void>, KeyHash> Pending;
  };
  static constexpr size_t NumShards = 16;

  const KernelPlanEntry &plan(const KernelPlanner &P,
                              const PimKernelSpec &Spec);

  mutable std::mutex Mu; ///< Guards Planners.
  std::vector<std::unique_ptr<KernelPlanner>> Planners;
  Shard Shards[NumShards];
};

/// The memo's view of one (PimConfig, CodegenOptions) pair: the config
/// half of the key, resolved once per caller.
class KernelPlanner {
public:
  KernelPlanner(KernelPlanMemo &Memo, uint32_t Index, const PimConfig &Pim,
                const CodegenOptions &Codegen)
      : Memo(Memo), Index(Index), Gen(Pim, Codegen) {}

  KernelPlanner(const KernelPlanner &) = delete;
  KernelPlanner &operator=(const KernelPlanner &) = delete;

  const PimCommandGenerator &generator() const { return Gen; }

  /// The plan of \p Spec. The first request computes it with
  /// generator().plan(); every later one counts `codegen.plans` and
  /// `codegen.plan_hits` and returns the memo entry, which stays valid for
  /// the memo's lifetime.
  const KernelPlanEntry &plan(const PimKernelSpec &Spec) {
    return Memo.plan(*this, Spec);
  }

private:
  friend class KernelPlanMemo;

  KernelPlanMemo &Memo;
  uint32_t Index;
  PimCommandGenerator Gen;
};

} // namespace pf

#endif // PIMFLOW_CODEGEN_KERNELPLANMEMO_H
