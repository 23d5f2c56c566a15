//===- codegen/CommandGenerator.h - PIM command generation ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DRAM-PIM command generator and command-scheduling pass (Section
/// 4.3.1). For a lowered PimKernelSpec it emits per-channel command traces,
/// distributing work across channels at one of three granularities
/// (Fig. 6):
///
///  * G_ACT level  — whole weight-row groups are pinned to channels for the
///    entire kernel (weight-stationary; minimal command duplication, but a
///    small matrix leaves channels idle);
///  * READRES level — (row-group x vector-batch) units are distributed, so
///    small matrices with many vectors still fill all channels;
///  * COMP level   — units are additionally split along the reduction (K)
///    axis into partial sums, engaging all channels even for single-vector
///    kernels with few rows.
///
/// The scheduler enumerates the channel-partitioning candidates permitted by
/// the mechanism's maximum granularity, prices each with the cycle
/// simulator, and keeps the fastest — this is the paper's "command
/// scheduling pass to distribute PIM commands across channels to fully
/// utilize all PIM compute units".
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_CODEGEN_COMMANDGENERATOR_H
#define PIMFLOW_CODEGEN_COMMANDGENERATOR_H

#include <string>

#include "codegen/PimKernelSpec.h"
#include "pim/PimCommand.h"
#include "pim/PimConfig.h"
#include "pim/PimSimulator.h"

namespace pf {

/// Fig. 6 command-scheduling granularities, in increasing channel-level
/// parallelism.
enum class ScheduleGranularity : uint8_t {
  GAct,
  ReadRes,
  Comp,
};

/// Returns "g_act"/"readres"/"comp".
const char *granularityName(ScheduleGranularity G);

/// Code-generation options distinguishing the evaluated mechanisms.
struct CodegenOptions {
  /// Finest scheduling granularity the mechanism may use.
  ScheduleGranularity MaxGranularity = ScheduleGranularity::Comp;
  /// Strided-GWRITE extension: gather a conv window's KH segments with one
  /// command instead of KH commands.
  bool StridedGwrite = true;

  /// Field-wise equality (defaulted: part of the kernel-plan memo's key).
  bool operator==(const CodegenOptions &) const = default;
};

/// A channel partitioning the command-scheduling pass chose: (M-partitions,
/// vector-partitions, K-partitions) at a granularity. The kernel's traces
/// occupy exactly channels [0, channels()).
struct PimMapping {
  int ChannelsForM = 1;
  int ChannelsForV = 1;
  int ChannelsForK = 1;
  ScheduleGranularity Granularity = ScheduleGranularity::GAct;

  int channels() const { return ChannelsForM * ChannelsForV * ChannelsForK; }

  /// "m<M>.v<V>.k<K>@<granularity>".
  std::string describeMapping() const;
};

/// A generated PIM kernel: the mapping the scheduler chose, its traces,
/// and their simulated timing.
struct PimKernelPlan : PimMapping {
  DeviceTrace Trace{0};
  PimRunStats Stats;
  /// Simulated kernel latency in nanoseconds.
  double Ns = 0.0;
};

/// Generates and schedules PIM command traces for lowered kernels.
class PimCommandGenerator {
public:
  PimCommandGenerator(PimConfig Config, CodegenOptions Options)
      : Config(Config), Options(Options), Sim(Config) {}

  const PimConfig &config() const { return Config; }
  const CodegenOptions &options() const { return Options; }

  /// The command-emission half of planWithMapping: the traces of \p Spec
  /// under \p Mapping's channel partitioning (its channels() must not
  /// exceed the channel count), one identical stream on each of channels
  /// [0, Mapping.channels()). Simulates nothing and counts nothing, so a
  /// caller holding a chosen mapping rebuilds its traces for free.
  DeviceTrace traceFor(const PimKernelSpec &Spec,
                       const PimMapping &Mapping) const;

  /// Emits traces for \p Spec under a fixed channel partitioning
  /// (ChannelsForM x ChannelsForV x ChannelsForK must not exceed the
  /// channel count) and simulates them.
  PimKernelPlan planWithMapping(const PimKernelSpec &Spec, int ChannelsForM,
                                int ChannelsForV, int ChannelsForK) const;

  /// Command-scheduling pass: tries every mapping the configured
  /// granularity permits and returns the fastest plan.
  PimKernelPlan plan(const PimKernelSpec &Spec) const;

private:
  PimConfig Config;
  CodegenOptions Options;
  PimSimulator Sim;
};

} // namespace pf

#endif // PIMFLOW_CODEGEN_COMMANDGENERATOR_H
