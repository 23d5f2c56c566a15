//===- runtime/WeightPlacement.h - Filter placement in DRAM -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Placement of filter matrices into the PIM channels' memory cell arrays
/// (Section 2.2: "we place the filters in the memory cell array in
/// advance"). For every kernel an execution ran on PIM, the planner derives
/// how many DRAM rows each bank must dedicate under the channel mapping the
/// engine chose — including the replication that vector- and K-split
/// mappings imply — and checks the total against the per-bank row
/// capacity. It reads the mappings from the timeline's kernel records and
/// plans nothing itself, so a degraded run reports the placement it ran.
///
//===----------------------------------------------------------------------===//

#ifndef PIMFLOW_RUNTIME_WEIGHTPLACEMENT_H
#define PIMFLOW_RUNTIME_WEIGHTPLACEMENT_H

#include <vector>

#include "runtime/ExecutionEngine.h"

namespace pf {

/// Placement of one PIM kernel's weights.
struct PlacementEntry {
  NodeId Node = InvalidNode;
  /// DRAM rows per bank this kernel occupies in each channel that holds a
  /// copy of (its share of) the matrix.
  int64_t DramRowsPerBank = 0;
  /// Channels holding a copy (Cv * Ck partitions replicate the M-shard).
  int Replicas = 1;
  /// Logical weight bytes (unreplicated).
  int64_t WeightBytes = 0;
};

/// The whole device's placement.
struct PlacementPlan {
  std::vector<PlacementEntry> Entries;
  /// Worst-case DRAM rows consumed per bank (kernels stack within each
  /// channel; the per-channel loads are equal by construction).
  int64_t RowsPerBankUsed = 0;
  /// Row capacity per bank the plan was checked against.
  int64_t RowsPerBankCapacity = 0;
  /// Total logical weight bytes placed (unreplicated).
  int64_t TotalWeightBytes = 0;
  /// Physical bytes including replication.
  int64_t PhysicalWeightBytes = 0;

  bool fits() const { return RowsPerBankUsed <= RowsPerBankCapacity; }
  double utilization() const {
    return RowsPerBankCapacity == 0
               ? 0.0
               : static_cast<double>(RowsPerBankUsed) /
                     static_cast<double>(RowsPerBankCapacity);
  }
};

/// DRAM rows per bank that one kernel occupies in each channel of its
/// M-partition under mapping \p Map.
int64_t dramRowsPerBank(const PimKernelSpec &Spec, const PimMapping &Map,
                        const PimConfig &Config);

/// Places the weights of every PIM kernel recorded in \p TL, an execution
/// of \p G. \p RowsPerBankCapacity defaults to a 1 GB/channel GDDR6 die
/// with 16 banks of 1 KB rows (65536 rows per bank).
PlacementPlan placeWeights(const Graph &G, const Timeline &TL,
                           const PimConfig &Config,
                           int64_t RowsPerBankCapacity = 65536);

} // namespace pf

#endif // PIMFLOW_RUNTIME_WEIGHTPLACEMENT_H
