//===- runtime/SystemConfig.h - Whole-system configuration ------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the full GPU + PIM-enabled-memory system: the channel
/// grouping between GPU and PIM, the simulator configurations for both
/// devices, the back-end options, and the cross-channel interconnect.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_RUNTIME_SYSTEMCONFIG_H
#define PIMFLOW_RUNTIME_SYSTEMCONFIG_H

#include <memory>

#include "codegen/KernelPlanMemo.h"
#include "gpu/GpuConfig.h"
#include "pim/PimConfig.h"
#include "support/Diagnostics.h"

namespace pf {

/// Full-system configuration. The single physical GDDR6 memory has
/// TotalChannels channels; Pim.Channels of them are PIM-enabled and the
/// rest serve the GPU (Section 4.1's channel grouping). GPU-only baselines
/// give all channels to the GPU.
struct SystemConfig {
  int TotalChannels = 32;
  GpuConfig Gpu;
  PimConfig Pim;
  CodegenOptions Codegen;

  /// Memory-layout optimization of the back-end (Section 4.3.2).
  bool MemoryOptimizer = true;

  /// Channel-to-channel memory-network bandwidth in GB/s (crossbar between
  /// GPU and PIM channel groups).
  double CrossChannelGBs = 100.0;
  /// Fixed synchronization overhead per cross-device handoff in ns.
  double SyncOverheadNs = 300.0;

  /// Model memory-controller contention from PIM fetches on GPU traffic
  /// (Section 7); the measured slowdown is fractions of a percent.
  bool ModelContention = false;
  /// GPU slowdown per unit of PIM fetch-busy fraction (calibrated so the
  /// end-to-end contention slowdown lands in the paper's 0.1-0.3% range).
  double ContentionFactor = 0.003;

  /// The kernel-plan memo (codegen/KernelPlanMemo.h), created with the
  /// config and shared by its copies: a PimFlow's profiler, engines and
  /// recovery, and a server's per-grant configs, plan each kernel once.
  /// Keyed by the full PimConfig and CodegenOptions, so a copy that changes
  /// them shares the memo without sharing entries.
  std::shared_ptr<KernelPlanMemo> KernelPlans =
      std::make_shared<KernelPlanMemo>();

  /// GPU-only baseline: every channel serves the GPU.
  static SystemConfig gpuOnly(int Channels = 32) {
    SystemConfig C;
    C.TotalChannels = Channels;
    C.Gpu.MemChannels = Channels;
    C.Pim.Channels = 0;
    return C;
  }

  /// Dual GPU/PIM configuration with \p PimChannels of \p Total channels
  /// PIM-enabled. \p Optimized selects the Newton++ command set (multiple
  /// global buffers + GWRITE latency hiding + strided GWRITE + full
  /// scheduling granularity) vs the Newton+ baseline.
  static SystemConfig dual(int PimChannels = 16, bool Optimized = true,
                           int Total = 32) {
    PF_ASSERT(PimChannels > 0 && PimChannels < Total,
              "PIM channels must be a proper subset");
    SystemConfig C;
    C.TotalChannels = Total;
    C.Gpu.MemChannels = Total - PimChannels;
    C.Pim = Optimized ? PimConfig::newtonPlusPlus() : PimConfig::newtonPlus();
    C.Pim.Channels = PimChannels;
    // Coherence between PIM commands and GPU accesses needs write-through
    // caches (Section 5, footnote 2: ~2.8% slowdown vs write-back).
    C.Gpu.CoherenceSlowdown = 1.028;
    C.Codegen.StridedGwrite = Optimized;
    // The command-scheduling pass (all Fig. 6 granularities) is part of the
    // shared DRAM-PIM back-end: Newton+ and Newton++ differ only in the
    // PIM-command optimizations.
    C.Codegen.MaxGranularity = ScheduleGranularity::Comp;
    return C;
  }

  bool hasPim() const { return Pim.Channels > 0; }

  /// The memo's planner for this config's Pim and Codegen fields.
  KernelPlanner &kernelPlanner() const {
    return KernelPlans->planner(Pim, Codegen);
  }
};

/// Validates \p C before it configures a run: channel-grouping consistency
/// (PIM channels a proper subset of the physical channels), non-negative
/// interconnect parameters, and non-degenerate PIM device parameters when
/// PIM is enabled. Violations become config.invalid diagnostics in \p DE;
/// returns true when no error was added. The factories (gpuOnly, dual)
/// always produce valid configs — this gate catches hand-assembled ones
/// before they silently yield nonsense timelines.
bool validateSystemConfig(const SystemConfig &C, DiagnosticEngine &DE);

} // namespace pf

#endif // PIMFLOW_RUNTIME_SYSTEMCONFIG_H
