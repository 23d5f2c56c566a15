//===- runtime/MemoryPlanner.cpp - Activation liveness planning -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/MemoryPlanner.h"

#include <algorithm>
#include <map>
#include <vector>

using namespace pf;

MemoryPlan pf::planMemory(const Graph &G, const Timeline &TL,
                          const MemoryOptimizer &MemOpt) {
  MemoryPlan Plan;
  for (const Value &V : G.values())
    if (V.IsParam)
      Plan.WeightBytes += V.byteCount();

  // Schedule entry per node id (null when unscheduled).
  std::vector<const NodeSchedule *> Sched(G.numNodesIncludingDead());
  for (const NodeSchedule &S : TL.Nodes)
    Sched[static_cast<size_t>(S.Id)] = &S;
  const ConsumerIndex Consumers(G);
  auto LastConsumerEnd = [&](ValueId V, double ReleaseNs) {
    for (NodeId Consumer : Consumers.consumers(V))
      if (const NodeSchedule *C = Sched[static_cast<size_t>(Consumer)])
        ReleaseNs = std::max(ReleaseNs, C->EndNs);
    return ReleaseNs;
  };

  // A value's buffer is allocated when its producer starts and released
  // when its last consumer ends (graph outputs live to the end). Aliased
  // values (outputs of free data-movement nodes) occupy no storage of
  // their own.
  std::map<double, int64_t> Deltas; // Time -> net allocation change.
  for (const NodeSchedule &S : TL.Nodes) {
    const Node &N = G.node(S.Id);
    const bool Aliased =
        MemOpt.classify(G, S.Id) == DataMovementCost::Free;
    for (ValueId Out : N.Outputs) {
      const int64_t Bytes = G.value(Out).byteCount();
      if (Aliased) {
        Plan.AliasedBytes += Bytes;
        continue;
      }
      double ReleaseNs = S.EndNs;
      for (ValueId GOut : G.graphOutputs())
        if (GOut == Out)
          ReleaseNs = TL.TotalNs;
      ReleaseNs = LastConsumerEnd(Out, ReleaseNs);
      Deltas[S.StartNs] += Bytes;
      // Epsilon past release so back-to-back alloc/free at the same
      // timestamp counts both buffers as briefly coresident (a safe
      // overestimate matching double-buffered runtimes).
      Deltas[ReleaseNs + 1e-9] -= Bytes;
    }
  }
  // Graph inputs are resident from time zero until their last consumer.
  for (ValueId In : G.graphInputs()) {
    const double ReleaseNs = LastConsumerEnd(In, 0.0);
    Deltas[0.0] += G.value(In).byteCount();
    Deltas[ReleaseNs + 1e-9] -= G.value(In).byteCount();
  }

  int64_t Current = 0;
  for (const auto &[Time, Delta] : Deltas) {
    Current += Delta;
    if (Current > Plan.PeakActivationBytes) {
      Plan.PeakActivationBytes = Current;
      Plan.PeakAtNs = Time;
    }
  }
  return Plan;
}
