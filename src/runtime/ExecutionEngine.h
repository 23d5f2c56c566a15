//===- runtime/ExecutionEngine.h - GPU/PIM parallel execution ---*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mixed-parallel execution engine (the paper's extended TVM execution
/// engine): given a device-annotated graph it schedules GPU and PIM kernels
/// onto their respective resources as dependencies allow, prices
/// cross-device data movement over the channel interconnect, and reports a
/// per-node timeline with end-to-end latency and energy.
///
/// MD-DP and pipelined parallelism need no special handling here — the
/// transformation passes encode them structurally (split nodes / stage
/// nodes with the right dataflow edges), so plain dependency-driven list
/// scheduling realizes the overlap.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_RUNTIME_EXECUTIONENGINE_H
#define PIMFLOW_RUNTIME_EXECUTIONENGINE_H

#include <optional>
#include <vector>

#include "codegen/CommandGenerator.h"
#include "codegen/MemoryOptimizer.h"
#include "gpu/GpuModel.h"
#include "pim/FaultModel.h"
#include "runtime/SystemConfig.h"
#include "support/Diagnostics.h"

namespace pf {

/// Execution record of one node.
struct NodeSchedule {
  NodeId Id = InvalidNode;
  Device Dev = Device::Gpu;
  double StartNs = 0.0;
  double EndNs = 0.0;
  double EnergyJ = 0.0;

  double durationNs() const { return EndNs - StartNs; }
};

/// What the engine ran for one PIM node: the mapping its
/// command-scheduling pass chose and the commands it issued (expanded over
/// block repeats, summed over channels).
struct PimKernelRecord {
  NodeId Id = InvalidNode;
  PimMapping Mapping;
  int64_t GwriteBursts = 0;
  int64_t GActs = 0;
  int64_t CompColumns = 0;
  int64_t ReadResCmds = 0;
};

/// Result of executing a graph.
struct Timeline {
  std::vector<NodeSchedule> Nodes;
  /// One record per PIM node, in topological order: the one plan of each
  /// kernel that stats, attribution and the Chrome trace read. Compact on
  /// purpose (no command traces): serve keeps a timeline per (model,
  /// channel grant).
  std::vector<PimKernelRecord> PimKernels;
  /// Per-channel phase cycles summed over the PIM kernels of the final
  /// scheduling pass, one entry per occupied channel, ascending. Under
  /// faults they come from the fault-aware runs, so retry and stall cycles
  /// fold in.
  std::vector<ChannelPhaseCycles> PimPhases;
  double TotalNs = 0.0;
  double GpuBusyNs = 0.0;
  double PimBusyNs = 0.0;
  /// Total energy: kernel energies + GPU static power over the makespan.
  double EnergyJ = 0.0;
  /// GPU slowdown applied by the contention model (1.0 = none).
  double ContentionSlowdown = 1.0;

  /// Schedule entry for node \p Id, or nullptr when the node was never
  /// scheduled — the probe for recovery code inspecting partially-executed
  /// timelines, where absence is an answer rather than a bug.
  const NodeSchedule *find(NodeId Id) const;

  /// Schedule entry for node \p Id. Unlike the old must-exist contract
  /// (pf_unreachable), a missing node now dies through fatal() with a
  /// diagnosable message naming the node; callers that can tolerate absence
  /// should use find() instead.
  const NodeSchedule &scheduleOf(NodeId Id) const;

  /// Kernel record of PIM node \p Id, or nullptr when the node did not run
  /// on PIM (or the timeline was built by hand without records).
  const PimKernelRecord *pimKernel(NodeId Id) const;
};

/// Dependency-driven two-resource scheduler over the timing models.
class ExecutionEngine {
public:
  explicit ExecutionEngine(const SystemConfig &Config);

  const SystemConfig &config() const { return Config; }

  /// Executes \p G per its device annotations (Device::Any runs on GPU).
  /// Aborts through fatal() on unschedulable inputs (dependency cycle, PIM
  /// annotation without PIM channels); use tryExecute to get a diagnostic
  /// instead.
  Timeline execute(const Graph &G) const;

  /// Like execute, but unschedulable inputs produce coded diagnostics in
  /// \p DE (exec.unschedulable, exec.no-pim-channels) and nullopt instead
  /// of an abort. With a non-null \p Faults, PIM kernel timings are
  /// simulated fault-aware under \p Retry (which must then also be
  /// non-null): retries and slow channels inflate durations, and any
  /// persistent fault reaching the engine is an error (fault.unrecovered)
  /// — recovery must remap or fall back first, so a silently wrong
  /// timeline is impossible.
  std::optional<Timeline> tryExecute(const Graph &G, DiagnosticEngine &DE,
                                     const FaultModel *Faults = nullptr,
                                     const RetryPolicy *Retry = nullptr) const;

private:
  SystemConfig Config;
  GpuModel Gpu;
  MemoryOptimizer MemOpt;
};

} // namespace pf

#endif // PIMFLOW_RUNTIME_EXECUTIONENGINE_H
