//===- codegen/KernelPlanMemo.cpp - Plan each PIM kernel once ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/KernelPlanMemo.h"

#include <optional>

#include "obs/Counters.h"

using namespace pf;

namespace {

KernelPlanEntry entryOf(const PimKernelPlan &Plan) {
  KernelPlanEntry E;
  static_cast<PimMapping &>(E) = Plan;
  E.Ns = Plan.Ns;
  E.SimNs = Plan.Stats.Ns;
  E.GwriteBursts = Plan.Stats.GwriteBursts;
  E.GActs = Plan.Stats.GActs;
  E.CompColumns = Plan.Stats.CompColumns;
  E.ReadResCmds = Plan.Stats.ReadResCmds;
  PF_ASSERT(!Plan.Stats.ChannelPhases.empty(), "a plan occupies a channel");
  const ChannelPhaseCycles &P = Plan.Stats.ChannelPhases.front();
  E.GwriteCycles = P.GwriteCycles;
  E.GactCycles = P.GactCycles;
  E.CompCycles = P.CompCycles;
  E.ReadResCycles = P.ReadResCycles;
  E.CompletionCycles = P.CompletionCycles;
  return E;
}

} // namespace

ChannelPhaseCycles KernelPlanEntry::phasesOn(int Channel) const {
  ChannelPhaseCycles P;
  P.Channel = Channel;
  P.GwriteCycles = GwriteCycles;
  P.GactCycles = GactCycles;
  P.CompCycles = CompCycles;
  P.ReadResCycles = ReadResCycles;
  P.CompletionCycles = CompletionCycles;
  return P;
}

size_t KernelPlanMemo::KeyHash::operator()(const Key &K) const noexcept {
  size_t H = K.Config;
  for (int64_t V : {K.Spec.M, K.Spec.K, K.Spec.NumVectors,
                    K.Spec.GwriteSegments})
    H = H * 1000003u ^ std::hash<int64_t>{}(V);
  return H;
}

const KernelPlanEntry &KernelPlanMemo::plan(const KernelPlanner &P,
                                            const PimKernelSpec &Spec) {
  const Key K{Spec, P.Index};
  Shard &S = Shards[KeyHash{}(K) % NumShards];
  const KernelPlanEntry *Found = nullptr;
  std::shared_future<void> InFlight;
  std::optional<std::promise<void>> Done;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (auto It = S.Plans.find(K); It != S.Plans.end()) {
      Found = &It->second;
    } else if (auto [Slot, Owner] = S.Pending.try_emplace(K); Owner) {
      Slot->second = Done.emplace().get_future().share();
    } else {
      InFlight = Slot->second;
    }
  }

  if (!Done) {
    // Computed or in flight: either way this request simulates nothing, so
    // the counts match a serial run for any worker count.
    obs::addCounter("codegen.plans");
    obs::addCounter("codegen.plan_hits");
    if (Found)
      return *Found;
    InFlight.get(); // Rethrows the owner's failure.
    std::lock_guard<std::mutex> Lock(S.Mu);
    return S.Plans.at(K);
  }

  KernelPlanEntry Entry;
  try {
    Entry = entryOf(P.Gen.plan(Spec));
  } catch (...) {
    // Withdraw the key so a later request can retry, and wake any waiters
    // with the failure.
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.Pending.erase(K);
    }
    Done->set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Found = &S.Plans.emplace(K, Entry).first->second;
    S.Pending.erase(K);
  }
  Done->set_value();
  return *Found;
}

KernelPlanner &KernelPlanMemo::planner(const PimConfig &Pim,
                                       const CodegenOptions &Codegen) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const std::unique_ptr<KernelPlanner> &P : Planners)
    if (P->Gen.config() == Pim && P->Gen.options() == Codegen)
      return *P;
  Planners.push_back(std::make_unique<KernelPlanner>(
      *this, static_cast<uint32_t>(Planners.size()), Pim, Codegen));
  return *Planners.back();
}

size_t KernelPlanMemo::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    N += S.Plans.size();
  }
  return N;
}
