//===- runtime/ExecutionEngine.cpp - GPU/PIM parallel execution -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecutionEngine.h"

#include <algorithm>

#include "codegen/PimKernelSpec.h"
#include "obs/Counters.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pim/PimSimulator.h"
#include "support/Format.h"

using namespace pf;

const NodeSchedule *Timeline::find(NodeId Id) const {
  for (const NodeSchedule &S : Nodes)
    if (S.Id == Id)
      return &S;
  return nullptr;
}

const NodeSchedule &Timeline::scheduleOf(NodeId Id) const {
  if (const NodeSchedule *S = find(Id))
    return *S;
  fatal(formatStr("timeline has no schedule entry for node %d (%zu nodes "
                  "scheduled); use Timeline::find to probe partial timelines",
                  static_cast<int>(Id), Nodes.size()));
}

const PimKernelRecord *Timeline::pimKernel(NodeId Id) const {
  for (const PimKernelRecord &K : PimKernels)
    if (K.Id == Id)
      return &K;
  return nullptr;
}

ExecutionEngine::ExecutionEngine(const SystemConfig &Config)
    : Config(Config), Gpu(Config.Gpu), MemOpt(Config.MemoryOptimizer) {}

namespace {

/// Elementwise operators that never run as standalone kernels: the GPU
/// runtime (TVM + cuDNN/CUTLASS) fuses them into the producing kernel's
/// epilogue, and for PIM-produced tensors the activation is applied while
/// results drain through the output path (the GDDR6 AiM device the paper
/// extends supports "various activation functions" in hardware).
bool isFusableEpilogue(OpKind Kind) {
  switch (Kind) {
  case OpKind::Relu:
  case OpKind::Relu6:
  case OpKind::Sigmoid:
  case OpKind::SiLU:
  case OpKind::Tanh:
  case OpKind::Gelu:
  case OpKind::Add:
  case OpKind::Mul:
  case OpKind::BatchNorm:
    return true;
  default:
    return false;
  }
}

/// GPU latency and energy of one node in isolation (no transfers).
struct GpuCost {
  double Ns = 0.0;
  double EnergyJ = 0.0;
};

GpuCost gpuCostOf(const Graph &G, NodeId Id, const SystemConfig &Config,
                  const GpuModel &Gpu, const MemoryOptimizer &MemOpt) {
  switch (MemOpt.classify(G, Id)) {
  case DataMovementCost::Free:
    return {};
  case DataMovementCost::Copy: {
    // A copy is a pure-bandwidth kernel.
    const double Bytes = static_cast<double>(MemOpt.copyBytes(G, Id));
    GpuKernelTime T;
    T.Ns = Bytes / Config.Gpu.memBandwidth() * 1e9 +
           Config.Gpu.LightKernelLaunchNs;
    T.Utilization = 0.3;
    return {T.Ns, Gpu.kernelEnergyJ(T)};
  }
  case DataMovementCost::NotDataMovement:
    break;
  }
  const GpuKernelTime T = Gpu.nodeTime(G, Id);
  return {T.Ns, Gpu.kernelEnergyJ(T)};
}

} // namespace

Timeline ExecutionEngine::execute(const Graph &G) const {
  DiagnosticEngine DE;
  std::optional<Timeline> TL = tryExecute(G, DE);
  if (!TL)
    fatal(formatStr("cannot execute graph '%s':\n%s", G.name().c_str(),
                    DE.render().c_str()));
  return *std::move(TL);
}

std::optional<Timeline>
ExecutionEngine::tryExecute(const Graph &G, DiagnosticEngine &DE,
                            const FaultModel *Faults,
                            const RetryPolicy *Retry) const {
  PF_TRACE_SCOPE_CAT("engine.execute", "execute");
  PF_ASSERT(!Faults || Retry, "fault-aware execution needs a retry policy");
  const size_t LiveNodes = G.numNodes();
  obs::addCounter("engine.executions");
  obs::addCounter("engine.nodes_scheduled", static_cast<int64_t>(LiveNodes));
  obs::flightEvent(obs::FlightEventKind::ExecStart, 0,
                   static_cast<int32_t>(LiveNodes), Config.Pim.Channels);
  // Any failed tryExecute leaves a flight trace behind (when a dump path is
  // configured): record the error event, then snapshot all rings.
  auto FailExec = [](const char *What) {
    obs::flightEvent(obs::FlightEventKind::ExecError, 0, -1, -1, 0.0, What);
    obs::FlightRecorder::instance().autoDump(What);
  };
  PimSimulator Sim(Config.Pim);

  // A cyclic dependency set never becomes ready, so Kahn's order comes up
  // short — surface a diagnostic instead of silently scheduling a partial
  // graph (or spinning forever looking for a ready node).
  const std::vector<NodeId> Order = G.tryTopoOrder();
  const size_t NumNodes = Order.size();
  if (NumNodes != LiveNodes) {
    DE.error(DiagCode::ExecUnschedulable, G.name(),
             formatStr("dependency cycle: only %zu of %zu live nodes are "
                       "schedulable",
                       NumNodes, LiveNodes));
    FailExec("exec.unschedulable: dependency cycle");
    return std::nullopt;
  }

  // Static per-node facts, indexed by topological position. Device
  // annotations fix the producing device of every value up front, and
  // every cost but a GPU kernel's contention scaling (and, under faults,
  // the fault-aware PIM run) is the same in both scheduling passes.
  struct NodeInfo {
    NodeId Id = InvalidNode;
    Device Dev = Device::Gpu;
    /// Duration scales with the contention model's GPU slowdown.
    bool GpuKernel = false;
    double BaseNs = 0.0; ///< Duration before contention scaling.
    double EnergyJ = 0.0;
    int Inputs = 0;      ///< Distinct produced input values.
    size_t Kernel = 0;   ///< PIM nodes: index into Kernels.
  };
  // One PIM node's kernel: its memo entry, and on faulted runs the command
  // trace of the entry's mapping plus the fault-aware run of the latest
  // scheduling pass, which the kernel record and phase totals describe.
  struct PimKernel {
    const KernelPlanEntry *Plan = nullptr;
    int64_t Macs = 0;
    DeviceTrace Trace;
    PimRunStats FaultRun;
  };
  std::vector<NodeInfo> Info(NumNodes);
  std::vector<PimKernel> Kernels;
  std::vector<uint32_t> PosOf(G.numNodesIncludingDead());
  KernelPlanner *Planner = Config.hasPim() ? &Config.kernelPlanner() : nullptr;

  // Fault-aware PIM timing of \p NI. Runs in both scheduling passes,
  // like every other fault-path effect (counters, flight events, channel
  // metrics), so a faulted run reports each kernel once per pass.
  auto CostFaulted = [&](NodeInfo &NI) {
    PimKernel &K = Kernels[NI.Kernel];
    FaultyRunStats FS = Sim.runWithFaults(K.Trace, *Faults, *Retry);
    if (FS.anyPersistent()) {
      // Recovery must remap or fall back before the engine runs; a
      // persistent fault here would make the timeline silently wrong.
      DE.error(DiagCode::FaultUnrecovered, G.node(NI.Id).Name,
               "persistent channel fault reached the execution engine "
               "unrecovered");
      FailExec("fault.unrecovered");
      return false;
    }
    obs::addCounter("engine.fault_retries", FS.TotalRetries);
    NI.BaseNs = FS.Stats.Ns;
    NI.EnergyJ = Sim.energyJ(FS.Stats, K.Macs);
    K.FaultRun = std::move(FS.Stats);
    return true;
  };
  const bool Faulted = Faults && !Faults->empty();

  for (size_t I = 0; I < NumNodes; ++I) {
    const Node &N = G.node(Order[I]);
    NodeInfo &NI = Info[I];
    NI.Id = N.Id;
    PosOf[static_cast<size_t>(N.Id)] = static_cast<uint32_t>(I);
    NI.Dev = N.Dev == Device::Pim ? Device::Pim : Device::Gpu;
    if (NI.Dev == Device::Pim) {
      if (!Config.hasPim()) {
        DE.error(DiagCode::ExecNoPimChannels, N.Name,
                 "node is annotated for PIM but the system configuration "
                 "has zero PIM channels");
        FailExec("exec.no-pim-channels");
        return std::nullopt;
      }
      const PimKernelSpec Spec = lowerToPimSpec(G, N.Id);
      NI.Kernel = Kernels.size();
      PimKernel &K = Kernels.emplace_back();
      K.Plan = &Planner->plan(Spec);
      K.Macs = Spec.totalMacs();
      if (Faulted) {
        K.Trace = Planner->generator().traceFor(Spec, *K.Plan);
        if (!CostFaulted(NI))
          return std::nullopt;
      } else {
        // The fields of the plan's run that the energy model reads.
        PimRunStats Run;
        Run.Ns = K.Plan->SimNs;
        Run.GwriteBursts = K.Plan->GwriteBursts;
        Run.GActs = K.Plan->GActs;
        Run.CompColumns = K.Plan->CompColumns;
        Run.ReadResCmds = K.Plan->ReadResCmds;
        NI.BaseNs = K.Plan->Ns;
        NI.EnergyJ = Sim.energyJ(Run, K.Macs);
      }
    } else if (!isFusableEpilogue(N.Kind)) {
      // Elementwise nodes fuse into their producer's epilogue (GPU) or the
      // PIM drain path: no standalone kernel either way, so they keep zero
      // cost.
      const GpuCost C = gpuCostOf(G, N.Id, Config, Gpu, MemOpt);
      NI.GpuKernel = true;
      NI.BaseNs = C.Ns;
      NI.EnergyJ = C.EnergyJ;
    }
    for (auto It = N.Inputs.begin(); It != N.Inputs.end(); ++It)
      if (G.producer(*It) != InvalidNode &&
          std::find(N.Inputs.begin(), It, *It) == It)
        ++NI.Inputs;
  }
  const ConsumerIndex Consumers(G);

  // Per-pass scheduling state, allocated once.
  std::vector<int> Pending(NumNodes);
  std::vector<double> ReadyNs(NumNodes); ///< Max over scheduled deps.
  // The ready nodes of one device. A node whose dependencies are met by
  // the time the device frees up is Released (min-heap on topological
  // index); one still waiting on a dependency is Waiting (min-heap on
  // (ReadyNs, topological index)). Free only grows, so Waiting nodes move
  // to Released lazily and each node moves at most once.
  struct Lane {
    double Free = 0.0;
    std::vector<uint32_t> Released;
    std::vector<uint32_t> Waiting;
  };
  Lane Lanes[2]; // GPU, PIM
  const auto ByIndex = [](uint32_t A, uint32_t B) { return A > B; };
  const auto ByReady = [&ReadyNs](uint32_t A, uint32_t B) {
    return ReadyNs[A] != ReadyNs[B] ? ReadyNs[A] > ReadyNs[B] : A > B;
  };
  auto Release = [&](Lane &L, uint32_t I) {
    L.Released.push_back(I);
    std::push_heap(L.Released.begin(), L.Released.end(), ByIndex);
  };
  auto MakeReady = [&](uint32_t I) {
    Lane &L = Lanes[Info[I].Dev == Device::Pim ? 1 : 0];
    if (ReadyNs[I] <= L.Free) {
      Release(L, I);
    } else {
      L.Waiting.push_back(I);
      std::push_heap(L.Waiting.begin(), L.Waiting.end(), ByReady);
    }
  };

  // One list-scheduling pass; \p GpuScale inflates GPU kernel durations
  // (the contention model's second pass). Each step dispatches the ready
  // node with the earliest achievable start, max(device free, ReadyNs),
  // ties to the lowest topological index — so independent GPU and PIM
  // work (MD-DP halves, pipeline stages) overlaps as the hardware would
  // run it rather than serializing in topological order. A device's best
  // candidate is its lowest-index Released node (start = Free) or else its
  // earliest Waiting node (start = ReadyNs > Free), so a step costs
  // O(log N) and the pass O((N + E) log N).
  auto SchedulePass = [&](double GpuScale) -> std::optional<Timeline> {
    Timeline TL;
    TL.Nodes.reserve(NumNodes);
    int64_t Handoffs = 0;
    for (Lane &L : Lanes) {
      L.Free = 0.0;
      L.Released.clear();
      L.Waiting.clear();
    }
    for (uint32_t I = 0; I < NumNodes; ++I) {
      Pending[I] = Info[I].Inputs;
      ReadyNs[I] = 0.0;
      if (Pending[I] == 0)
        MakeReady(I);
    }

    for (size_t Remaining = NumNodes; Remaining > 0; --Remaining) {
      Lane *Best = nullptr;
      double BestStart = 0.0;
      uint32_t BestIdx = 0;
      for (Lane &L : Lanes) {
        while (!L.Waiting.empty() && ReadyNs[L.Waiting.front()] <= L.Free) {
          std::pop_heap(L.Waiting.begin(), L.Waiting.end(), ByReady);
          Release(L, L.Waiting.back());
          L.Waiting.pop_back();
        }
        double Start;
        uint32_t Idx;
        if (!L.Released.empty())
          Start = L.Free, Idx = L.Released.front();
        else if (!L.Waiting.empty())
          Start = ReadyNs[L.Waiting.front()], Idx = L.Waiting.front();
        else
          continue;
        if (!Best || Start < BestStart ||
            (Start == BestStart && Idx < BestIdx))
          Best = &L, BestStart = Start, BestIdx = Idx;
      }
      if (!Best) {
        // Unreachable for acyclic graphs (checked above), but a diagnostic
        // beats an infinite loop if the invariant ever breaks.
        DE.error(DiagCode::ExecUnschedulable, G.name(),
                 formatStr("scheduler deadlock with %zu node(s) unscheduled",
                           Remaining));
        FailExec("exec.unschedulable: scheduler deadlock");
        return std::nullopt;
      }
      if (!Best->Released.empty()) {
        std::pop_heap(Best->Released.begin(), Best->Released.end(), ByIndex);
        Best->Released.pop_back();
      } else {
        std::pop_heap(Best->Waiting.begin(), Best->Waiting.end(), ByReady);
        Best->Waiting.pop_back();
      }

      const NodeInfo &NI = Info[BestIdx];
      const double Duration = NI.GpuKernel ? NI.BaseNs * GpuScale : NI.BaseNs;
      const double End = BestStart + Duration;
      // Zero-duration nodes (fused elementwise, free data movement) do not
      // occupy the device.
      if (Duration > 0.0) {
        Best->Free = End;
        (NI.Dev == Device::Pim ? TL.PimBusyNs : TL.GpuBusyNs) += Duration;
      }
      TL.Nodes.push_back(NodeSchedule{NI.Id, NI.Dev, BestStart, End,
                                      NI.EnergyJ});
      TL.TotalNs = std::max(TL.TotalNs, End);

      // Release consumers. Cross-device handoffs cost a synchronization
      // only: GPU and PIM channels share one physical memory, so a PIM
      // kernel's input fetch is modeled by its GWRITE commands and a PIM
      // result is read in place by the consumer through the channel
      // interconnect.
      for (ValueId Out : G.node(NI.Id).Outputs) {
        for (NodeId Consumer : Consumers.consumers(Out)) {
          const uint32_t J = PosOf[static_cast<size_t>(Consumer)];
          double Avail = End;
          if (Info[J].Dev != NI.Dev) {
            Avail += Config.SyncOverheadNs;
            ++Handoffs;
          }
          ReadyNs[J] = std::max(ReadyNs[J], Avail);
          if (--Pending[J] == 0)
            MakeReady(J);
        }
      }
    }
    if (Handoffs > 0)
      obs::addCounter("engine.cross_device_handoffs", Handoffs);
    return TL;
  };

  std::optional<Timeline> MaybeTL = SchedulePass(1.0);
  if (!MaybeTL)
    return std::nullopt;
  Timeline TL = *std::move(MaybeTL);

  if (Config.ModelContention && Config.hasPim() && TL.TotalNs > 0.0) {
    // PIM fetch traffic occupies the shared memory controller; GPU kernels
    // overlapping it slow down proportionally to the fetch-busy fraction.
    double FetchCycles = 0.0;
    for (const PimKernel &K : Kernels)
      FetchCycles += static_cast<double>(K.Plan->GwriteBursts) *
                     static_cast<double>(Config.Pim.TCcdl);
    const double FetchNs = Config.Pim.cyclesToNs(
        static_cast<int64_t>(FetchCycles));
    const double Fraction = std::min(1.0, FetchNs / TL.TotalNs);
    const double Slowdown = 1.0 + Config.ContentionFactor * Fraction;
    obs::addCounter("engine.contention_reschedules");
    // Under faults every pass prices its PIM kernels afresh (CostFaulted).
    if (Faulted)
      for (NodeInfo &NI : Info)
        if (NI.Dev == Device::Pim && !CostFaulted(NI))
          return std::nullopt;
    // The first pass succeeded, so the rescaled pass cannot fail: scaling
    // GPU durations changes no schedulability property.
    MaybeTL = SchedulePass(Slowdown);
    if (!MaybeTL)
      return std::nullopt;
    TL = *std::move(MaybeTL);
    TL.ContentionSlowdown = Slowdown;
  }

  // What ran on PIM, for the observers: each kernel's mapping and command
  // counts, and per-channel phase cycles of the final pass's runs.
  TL.PimKernels.reserve(Kernels.size());
  auto AddPhases = [&TL](const ChannelPhaseCycles &P) {
    const size_t Ch = static_cast<size_t>(P.Channel);
    if (TL.PimPhases.size() <= Ch)
      TL.PimPhases.resize(Ch + 1);
    TL.PimPhases[Ch] += P;
    TL.PimPhases[Ch].Channel = P.Channel;
  };
  for (const NodeInfo &NI : Info) {
    if (NI.Dev != Device::Pim)
      continue;
    const PimKernel &K = Kernels[NI.Kernel];
    const KernelPlanEntry &Plan = *K.Plan;
    TL.PimKernels.push_back(PimKernelRecord{NI.Id, Plan, Plan.GwriteBursts,
                                            Plan.GActs, Plan.CompColumns,
                                            Plan.ReadResCmds});
    if (Faulted) {
      for (const ChannelPhaseCycles &P : K.FaultRun.ChannelPhases)
        AddPhases(P);
    } else {
      for (int Ch = 0; Ch < Plan.channels(); ++Ch)
        AddPhases(Plan.phasesOn(Ch));
    }
  }

  // Kernel energies plus GPU static power while idle within the makespan
  // (the PIM kernels' energy already folds in their channels' background
  // power).
  double Energy = 0.0;
  for (const NodeSchedule &S : TL.Nodes)
    Energy += S.EnergyJ;
  Energy += Gpu.idleEnergyJ(std::max(0.0, TL.TotalNs - TL.GpuBusyNs));
  TL.EnergyJ = Energy;

  // Streaming telemetry off the final timeline only (the contention model's
  // first pass would double-count): per-node latency quantiles windowed
  // over wall time, plus the completion event for the flight trace.
  obs::MetricsRegistry &M = obs::activeMetrics();
  if (M.enabled() && !TL.Nodes.empty()) {
    const int64_t NowUs =
        static_cast<int64_t>(obs::Tracer::instance().nowUs());
    // What recordMetricWindowed does per sample, with the two registry
    // lookups hoisted out of the per-node loop.
    obs::LogLinearHistogram &Hist = M.histogram("engine.node_duration_ns");
    obs::SlidingWindow &Window =
        M.window("engine.node_duration_ns", obs::TickDomain::WallUs,
                 /*BucketWidth=*/100'000);
    for (const NodeSchedule &S : TL.Nodes) {
      Hist.record(S.EndNs - S.StartNs);
      Window.record(NowUs, S.EndNs - S.StartNs);
    }
  }
  obs::flightEvent(obs::FlightEventKind::ExecDone, 0,
                   static_cast<int32_t>(TL.Nodes.size()), -1, TL.TotalNs);
  return TL;
}
