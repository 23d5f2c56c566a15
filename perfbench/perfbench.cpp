//===- perfbench/perfbench.cpp - Single-threaded end-to-end benchmark -----===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the PIMFlow library from one process and one thread, a closed
/// loop with a single client (one timed op at a time, SearchJobs = 1,
/// ServerOptions::Jobs = 1), over three workloads:
///
///   compile-cold  one op = one cold `pimflow compile` of a paper model:
///                 a fresh PimFlow with no plan or profile cache, then
///                 plan -> serializePlanArtifact -> executePlan.
///   replay-warm   one op = one `pimflow run --plan=`: parse an artifact
///                 compiled in set-up, validate its key, executePlan.
///   serve-mixed   one op = one serve::Server::run of the same seeded
///                 request stream against a server prepared in set-up.
///
/// Usage:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --testdata <dir holding the committed goldens>
///
/// The last line of standard output is the JSON result: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. Every op's
/// output is checked; a failed check counts the op as failed. README.md
/// says why each workload and noise control exists and which end-to-end
/// metric each per-layer metric should move.
///
//===----------------------------------------------------------------------===//

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "Harness.h"
#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/Attribution.h"
#include "obs/Scope.h"
#include "plan/PlanArtifact.h"
#include "serve/Server.h"
#include "support/Random.h"

using namespace pf;
using namespace perfbench;

namespace {

/// The paper's six evaluated models (Section 5), compile-cold and
/// replay-warm's inputs.
const char *const PaperModels[] = {"efficientnet-v1-b0", "mobilenet-v2",
                                   "mnasnet-1.0",        "resnet-50",
                                   "vgg-16",             "bert"};

/// Fig. 9: PIMFlow's average end-to-end speedup over Baseline on the five
/// CNNs (BERT excluded).
constexpr double Fig9PaperSpeedup = 1.34;

/// Set-ups per run; setup_s is their median.
constexpr int SetupReps = 7;

/// serve-mixed's tenants and traffic: a fixed set of seeded streams, so
/// the modelled serve metrics repeat exactly in every run (--seed orders
/// the ops). The 24-channel pool exceeds the 16-channel plans, so degraded
/// grants occur; every request carries a deadline; one channel is out for
/// a window in the middle of each stream.
const char *const ServeModels[] = {"mobilenet-v2", "resnet-50", "bert"};
constexpr int ServeStreams = 4;
constexpr int ServeRequests = 32;
constexpr double ServeMeanGapUs = 800.0;
constexpr int64_t ServeDeadlineUs = 4000;
constexpr int ServePoolChannels = 24;
constexpr int ServeMaxInflight = 4;
constexpr int ServeMaxQueue = 8;
constexpr int ServeOutageChannel = 0;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  std::string TestData;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Val;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = !Val.empty() && *End == '\0';
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = !Val.empty() && *End == '\0' && A.Seconds > 0.0 &&
                    A.Seconds <= 120.0;
    } else if (Key == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      A.Trace = Val == "1";
    } else if (Key == "--testdata") {
      A.TestData = Val;
    } else {
      return false;
    }
  }
  return (Argc % 2) == 1 && HaveSeed && HaveSeconds && HaveTrace &&
         !A.TestData.empty() &&
         (A.Workload == "compile-cold" || A.Workload == "replay-warm" ||
          A.Workload == "serve-mixed");
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Everything one run accumulates: the op tally, the check verdicts, and
/// the metrics to print.
struct Run {
  Args A;
  long Attempted = 0;
  long Failed = 0;
  bool ChecksOk = true; ///< checks outside ops: goldens, set-up identity
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;

  void check(bool Ok, const std::string &What) {
    if (!Ok) {
      ChecksOk = false;
      std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
    }
  }
  /// Tallies one op; a failed op names its first failed check.
  void op(const std::string &Failure) {
    ++Attempted;
    if (!Failure.empty()) {
      ++Failed;
      if (Failed <= 5)
        std::fprintf(stderr, "perfbench: op failed: %s\n", Failure.c_str());
    }
  }
  void e2e(const char *Name, double V, const char *Unit) {
    EndToEnd.push_back({Name, V, Unit});
  }
  void layer(const std::string &Name, double V, const char *Unit) {
    PerLayer.push_back({Name, V, Unit});
  }
};

/// Zeroes the global counter registry the ops record into.
void resetGlobalCounts() { obs::Registry::instance().reset(); }

Counts globalCounts() {
  Counts C;
  addCounts(obs::Registry::instance(), C);
  return C;
}

/// The seeded op order over \p N inputs.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

/// Sum of the four command-phase cycle counts over every channel.
struct PhaseTotals {
  int64_t Gwrite = 0, Gact = 0, Comp = 0, ReadRes = 0;
  void add(const std::vector<ChannelPhaseCycles> &Phases) {
    for (const ChannelPhaseCycles &P : Phases) {
      Gwrite += P.GwriteCycles;
      Gact += P.GactCycles;
      Comp += P.CompCycles;
      ReadRes += P.ReadResCycles;
    }
  }
};

/// Modelled-result analysis of the six paper models, run outside the ops
/// in traced runs: the DP's prediction error, PIMFlow's regret against
/// its own sub-policies and Baseline, and the Fig. 9 reference gap.
struct ModelAnalysis {
  double PredErrPctMax = 0.0;
  double PolicyRegretMax = 0.0;
  double Fig9GapPct = 0.0;
  double GpuBusyFrac = 0.0;
  double PimBusyFrac = 0.0;
  PhaseTotals Phases;
};

double fig9GapPct(const std::vector<double> &CnnSpeedups) {
  return (geomean(CnnSpeedups) / Fig9PaperSpeedup - 1.0) * 100.0;
}

ModelAnalysis analyseModels() {
  ModelAnalysis MA;
  std::vector<double> CnnSpeedups;
  double TotalNs = 0.0, GpuBusyNs = 0.0, PimBusyNs = 0.0;
  for (const char *Name : PaperModels) {
    const Graph G = buildModel(Name);
    auto Exec = [&G](OffloadPolicy P) {
      return PimFlow(P).compileAndRun(G);
    };
    const CompileResult Full = Exec(OffloadPolicy::PimFlow);
    const double Ns = Full.endToEndNs();
    const double BaseNs = Exec(OffloadPolicy::GpuOnly).endToEndNs();
    const double BestOther =
        std::min({Exec(OffloadPolicy::PimFlowMd).endToEndNs(),
                  Exec(OffloadPolicy::PimFlowPl).endToEndNs(), BaseNs});
    MA.PredErrPctMax = std::max(
        MA.PredErrPctMax, std::abs(Full.Plan.PredictedNs - Ns) / Ns * 100.0);
    MA.PolicyRegretMax = std::max(MA.PolicyRegretMax, Ns / BestOther);
    if (std::string(Name) != "bert")
      CnnSpeedups.push_back(BaseNs / Ns);
    TotalNs += Ns;
    GpuBusyNs += Full.Schedule.GpuBusyNs;
    PimBusyNs += Full.Schedule.PimBusyNs;
    MA.Phases.add(
        obs::attributeTimeline(Full.Transformed, Full.Schedule, Full.Config)
            .Phases);
  }
  MA.Fig9GapPct = fig9GapPct(CnnSpeedups);
  MA.GpuBusyFrac = GpuBusyNs / TotalNs;
  MA.PimBusyFrac = PimBusyNs / TotalNs;
  return MA;
}

/// The serve layer's per-layer metrics and units, in report order.
const Metric ServeLayerMetrics[] = {
    {"serve.host_us_per_request", 0.0, "us"},
    {"serve.reexecutions", 0.0, "count"},
    {"serve.prepare_s", 0.0, "s"},
    {"serve.shed_frac", 0.0, "frac"},
    {"serve.degraded_frac", 0.0, "frac"},
    {"serve.floor_frac", 0.0, "frac"},
    {"serve.queue_delay_p99_us", 0.0, "sim_us"},
    {"serve.fault_interrupts", 0.0, "count"}};

void reportPhases(Run &Rn, const PhaseTotals &P) {
  Rn.layer("pim.phase_cycles.gwrite", static_cast<double>(P.Gwrite),
           "cycles");
  Rn.layer("pim.phase_cycles.g_act", static_cast<double>(P.Gact), "cycles");
  Rn.layer("pim.phase_cycles.comp", static_cast<double>(P.Comp), "cycles");
  Rn.layer("pim.phase_cycles.readres", static_cast<double>(P.ReadRes),
           "cycles");
}

/// Per-layer self times and the tracing overhead: the traced ops' median
/// self times against the untraced ops' median op time, interleaved in
/// the same run. The self times must add up to the untraced op time
/// within the overhead (plus a small allowance for the medians' jitter).
/// serve-mixed's split is derived (serve = op - replay), so its sum holds
/// by construction; there the check is that the out-of-op replay does not
/// account for more than the op, i.e. serve's self time is not negative
/// beyond the same allowance.
void reportSelfTimes(Run &Rn, const std::array<double, NumLayers> &SelfMs,
                     double UnattributedMs, double LayerSumMs,
                     double TracedMs, double UntracedMs,
                     bool SumByConstruction) {
  for (int L = 0; L < NumLayers; ++L)
    Rn.layer(std::string(layerName(L)) + ".self_ms",
             SelfMs[static_cast<size_t>(L)], "ms");
  const double OverheadMs = TracedMs - UntracedMs;
  const double GapMs = LayerSumMs - UntracedMs;
  Rn.layer("trace.unattributed_ms", UnattributedMs, "ms");
  Rn.layer("trace.op_ms", TracedMs, "ms");
  Rn.layer("trace.untraced_op_ms", UntracedMs, "ms");
  Rn.layer("trace.overhead_ms", OverheadMs, "ms");
  Rn.layer("trace.selftime_gap_pct", GapMs / UntracedMs * 100.0, "%");
  std::fprintf(stderr,
               "perfbench: self times sum to %.4f ms per op; untraced op "
               "%.4f ms, traced %.4f ms (overhead %.4f ms)\n",
               LayerSumMs, UntracedMs, TracedMs, OverheadMs);
  const double AllowMs = std::abs(OverheadMs) + 0.05 * UntracedMs;
  if (SumByConstruction)
    Rn.check(SelfMs[Serve] >= -AllowMs,
             "the out-of-op replay exceeds the serve op beyond the tracing "
             "overhead");
  else
    Rn.check(std::abs(GapMs) <= AllowMs,
             "per-layer self times do not add up to the op time within the "
             "tracing overhead");
}

//===----------------------------------------------------------------------===//
// Golden references, reproduced once per run outside the timed ops.
//===----------------------------------------------------------------------===//

/// `pimflow compile <net> --plan-out=` must reproduce the committed plan
/// artifacts byte for byte.
void checkPlanGoldens(Run &Rn) {
  for (const char *Name : {"toy", "squeezenet-1.1"}) {
    std::string Golden;
    Rn.check(readFile(Rn.A.TestData + "/" + Name + ".plan", Golden),
             std::string("cannot read golden ") + Name + ".plan");
    const Graph G = buildModel(Name);
    PimFlow Flow(OffloadPolicy::PimFlow);
    const ExecutionPlan P = Flow.plan(G);
    Rn.check(serializePlanArtifact({Flow.planKey(G), P}) == Golden,
             std::string("compile of ") + Name +
                 " does not reproduce its golden plan");
  }
}

/// The serve summary of the committed serve smoke run.
void checkServeGolden(Run &Rn) {
  std::string Golden;
  Rn.check(readFile(Rn.A.TestData + "/serve_summary.golden", Golden),
           "cannot read serve_summary.golden");
  serve::ServerOptions SO;
  SO.MaxInflight = 3;
  SO.PoolChannels = 24;
  serve::Server Srv({{"toy", buildModel("toy")},
                     {"mobilenet-v2", buildModel("mobilenet-v2")}},
                    SO);
  serve::LoadSpec Spec;
  DiagnosticEngine DE;
  Rn.check(serve::LoadSpec::parse("count:24,seed:7,mean-gap-us:150,batch:1|4",
                                  Spec, DE),
           "golden serve spec does not parse");
  Rn.check(serve::renderServeSummary(Srv.run(Spec)) == Golden,
           "serve run does not reproduce serve_summary.golden");
}

//===----------------------------------------------------------------------===//
// compile-cold and replay-warm: one op per paper model, in a seeded order.
//===----------------------------------------------------------------------===//

/// One paper model: its graph, set-up references, and what its ops
/// measured.
struct ModelCase {
  std::string Name;
  Graph Model{"unbuilt"};
  /// Baseline (GPU-only, all 32 channels) reference run, from set-up.
  double BaselineNs = 0.0;
  double BaselineJ = 0.0;
  /// PIMFlow reference: from set-up (replay-warm) or the warm-up op
  /// (compile-cold). Every later op must reproduce it bit for bit.
  bool HaveRef = false;
  double Ns = 0.0;
  double J = 0.0;
  std::string PlanText;
  Counts RefCounts;

  std::vector<double> OpMs;      ///< untraced timed ops
  std::vector<int> TracedRoots;  ///< traced ops' root spans
  std::vector<double> ScopedMs;  ///< obs.scoped_execute_ms samples
};

/// One set-up: builds the six graphs and runs the Baseline references;
/// replay-warm also compiles each model's plan to artifact text.
std::vector<ModelCase> setupModels(bool CompilePlans) {
  std::vector<ModelCase> Cases;
  for (const char *Name : PaperModels) {
    ModelCase M;
    M.Name = Name;
    M.Model = buildModel(Name);
    const CompileResult Base =
        PimFlow(OffloadPolicy::GpuOnly).compileAndRun(M.Model);
    M.BaselineNs = Base.endToEndNs();
    M.BaselineJ = Base.energyJ();
    if (CompilePlans) {
      PimFlow Flow(OffloadPolicy::PimFlow);
      ExecutionPlan P = Flow.plan(M.Model);
      M.PlanText = serializePlanArtifact({Flow.planKey(M.Model), P});
      const CompileResult R = Flow.executePlan(M.Model, std::move(P));
      M.Ns = R.endToEndNs();
      M.J = R.energyJ();
      M.HaveRef = true;
    }
    Cases.push_back(std::move(M));
  }
  return Cases;
}

bool sameSetup(const std::vector<ModelCase> &X,
               const std::vector<ModelCase> &Y) {
  for (size_t I = 0; I < X.size(); ++I)
    if (X[I].BaselineNs != Y[I].BaselineNs ||
        X[I].BaselineJ != Y[I].BaselineJ || X[I].Ns != Y[I].Ns ||
        X[I].J != Y[I].J || X[I].PlanText != Y[I].PlanText)
      return false;
  return true;
}

/// What one op produced (the materialized graph only when traced).
struct OpOut {
  std::string Failure;
  double Ns = 0.0;
  double J = 0.0;
  std::string PlanText;
  Graph Materialized{"untraced"};
  SystemConfig Config;
};

/// One op on \p M. With \p Root >= 0 the op is traced: each public call
/// runs inside a span, and executePlan is issued as its two halves,
/// materialize and ExecutionEngine::execute, so transform and runtime
/// time separately.
OpOut modelOp(ModelCase &M, bool Replay, SpanLog &Log, int Root) {
  OpOut Out;
  PimFlow Flow(OffloadPolicy::PimFlow);
  ExecutionPlan P;
  if (Replay) {
    DiagnosticEngine DE;
    auto A = Log.run(CallParse, Root,
                     [&] { return parsePlanArtifact(M.PlanText, DE); });
    if (!A) {
      Out.Failure = M.Name + ": artifact does not parse";
      return Out;
    }
    const bool KeyOk = Log.run(CallKey, Root, [&] {
      return validatePlanKey(A->Key, Flow.planKey(M.Model), DE);
    });
    if (!KeyOk) {
      Out.Failure = M.Name + ": artifact key does not match";
      return Out;
    }
    P = std::move(A->Plan);
  } else {
    P = Log.run(CallPlan, Root, [&] { return Flow.plan(M.Model); });
    Out.PlanText = Log.run(CallSerialize, Root, [&] {
      return serializePlanArtifact({Flow.planKey(M.Model), P});
    });
  }
  if (Root < 0) {
    const CompileResult R = Flow.executePlan(M.Model, std::move(P));
    Out.Ns = R.endToEndNs();
    Out.J = R.energyJ();
    return Out;
  }
  Out.Materialized = Log.run(CallMaterialize, Root,
                             [&] { return Flow.materialize(M.Model, P); });
  Out.Config = Flow.config();
  const Timeline TL = Log.run(CallExecute, Root, [&] {
    return ExecutionEngine(Out.Config).execute(Out.Materialized);
  });
  Out.Ns = TL.TotalNs;
  Out.J = TL.EnergyJ;
  return Out;
}

/// The output checks of one op on \p M; empty when every one passes. The
/// first op of a model without a set-up reference becomes its reference.
std::string checkModelOp(ModelCase &M, const OpOut &Out, const Counts &C) {
  if (!Out.Failure.empty())
    return Out.Failure;
  if (!Out.PlanText.empty()) {
    // compile-cold: serialize -> parse -> serialize is byte-identical.
    DiagnosticEngine DE;
    auto Back = parsePlanArtifact(Out.PlanText, DE);
    if (!Back || serializePlanArtifact(*Back) != Out.PlanText)
      return M.Name + ": plan artifact does not round-trip";
    if (M.PlanText.empty())
      M.PlanText = Out.PlanText;
    if (Out.PlanText != M.PlanText)
      return M.Name + ": plan artifact differs from the first op's";
  }
  if (!M.HaveRef) {
    M.Ns = Out.Ns;
    M.J = Out.J;
    M.HaveRef = true;
  }
  if (M.RefCounts.empty())
    M.RefCounts = C;
  if (Out.Ns != M.Ns || Out.J != M.J)
    return M.Name + ": executed ns/energy differ from the reference";
  if (C != M.RefCounts)
    return M.Name + ": counter values differ from the first op's";
  return {};
}

/// The per-layer counts, per-call times and modelled-result analysis
/// every workload reports.
void reportCounts(Run &Rn, const Counts &C,
                  const std::array<double, NumCalls> &CallMs,
                  const ModelAnalysis &MA) {
  auto N = [&C](const char *Name) {
    return static_cast<double>(count(C, Name));
  };
  const double Lookups = N("profiler.cache_hits") + N("profiler.cache_misses");
  Rn.layer("search.plan_ms", CallMs[CallPlan], "ms");
  Rn.layer("search.profiler_misses", N("profiler.cache_misses"), "count");
  Rn.layer("search.profiler_hit_frac",
           Lookups > 0 ? N("profiler.cache_hits") / Lookups : 0.0, "frac");
  Rn.layer("search.candidates_evaluated", N("search.candidates_evaluated"),
           "count");
  Rn.layer("search.dp_states", N("search.dp_states"), "count");
  Rn.layer("search.pred_err_pct_max", MA.PredErrPctMax, "%");
  Rn.layer("search.policy_regret_max", MA.PolicyRegretMax, "x");
  Rn.layer("sim.fig9_gap_pct", MA.Fig9GapPct, "%");
  Rn.layer("plan.serialize_ms", CallMs[CallSerialize], "ms");
  Rn.layer("plan.parse_ms", CallMs[CallParse], "ms");
  Rn.layer("plan.key_ms", CallMs[CallKey], "ms");
  Rn.layer("transform.materialize_ms", CallMs[CallMaterialize], "ms");
  Rn.layer("runtime.execute_ms", CallMs[CallExecute], "ms");
  Rn.layer("runtime.nodes_scheduled", N("engine.nodes_scheduled"), "count");
  Rn.layer("pim.sim_commands", N("pim.sim.commands"), "count");
  Rn.layer("codegen.mappings_tried", N("codegen.mappings_tried"), "count");
}

/// Runs the timed ops: rounds of one op per case, in the seeded order,
/// until the run's seconds are up. The first round is the untimed warm-up.
/// Each timed untraced op is followed by a calibration; in traced runs it
/// is then followed by a traced op on the same case. \p Op(Case, Timed,
/// Traced) runs and records one op and returns its wall time (ms).
template <typename CaseT, typename OpFn>
ScaledOps runRounds(const Run &Rn, std::vector<CaseT> &Cases, OpFn Op) {
  const std::vector<size_t> Order = seededOrder(Cases.size(), Rn.A.Seed);
  for (size_t K : Order)
    Op(Cases[K], /*Timed=*/false, /*Traced=*/false);
  ScaledOps Timed;
  const auto Start = Clock::now();
  do {
    for (size_t K : Order) {
      Timed.add(K, Op(Cases[K], /*Timed=*/true, /*Traced=*/false));
      if (Rn.A.Trace)
        Op(Cases[K], /*Timed=*/true, /*Traced=*/true);
    }
  } while (msSince(Start) < Rn.A.Seconds * 1e3);
  return Timed;
}

/// The host-time end-to-end metrics of a run. Times are scaled to a host
/// on which the calibration takes 1 ms (Harness.h): the host's speed
/// drifts by up to 1.75x within a run and from one run to the next, which
/// moved unscaled medians by 15-40% across runs of the same code. Each
/// case's op time is the median of its scaled ops; the percentiles are
/// over the cases (models or streams), and the throughput is that of one
/// round of the closed loop at those op times.
void reportHostTimes(Run &Rn, const std::vector<double> &SetupS,
                     const ScaledOps &Timed, size_t NumCases) {
  const std::vector<double> CaseMs = Timed.caseMedians(NumCases);
  double RoundMs = 0.0;
  for (double Ms : CaseMs)
    RoundMs += Ms;
  std::fprintf(stderr,
               "perfbench: %zu timed ops over %zu cases; setup_s is the "
               "median of %zu set-ups; median calibration %.4f ms\n",
               Timed.size(), NumCases, SetupS.size(),
               Timed.medianCalibrationMs());
  Rn.e2e("setup_s", median(SetupS), "s");
  Rn.e2e("host_ms_p50", median(CaseMs), "ms");
  Rn.e2e("host_ms_p90", percentile(CaseMs, 90.0), "ms");
  Rn.e2e("host_ops_per_s", static_cast<double>(NumCases) / (RoundMs / 1e3),
         "1/s");
  Rn.e2e("peak_rss_mb", peakRssMb(), "MiB");
}

/// What one case's traced ops measured: medians over its traced ops.
struct TracedMedians {
  std::array<double, NumCalls> CallMs{};
  std::array<double, NumLayers> SelfMs{};
  double Unattributed = 0.0, LayerSum = 0.0, OpMs = 0.0;

  TracedMedians() = default;
  explicit TracedMedians(const std::vector<SelfTimes> &Ts) {
    auto Med = [&Ts](auto Field) {
      std::vector<double> V;
      for (const SelfTimes &T : Ts)
        V.push_back(Field(T));
      return median(V);
    };
    for (size_t C = 0; C < NumCalls; ++C)
      CallMs[C] = Med([C](const SelfTimes &T) { return T.CallMs[C]; });
    for (size_t L = 0; L < NumLayers; ++L)
      SelfMs[L] = Med([L](const SelfTimes &T) { return T.Layer[L]; });
    Unattributed = Med([](const SelfTimes &T) { return T.Unattributed; });
    LayerSum = Med([](const SelfTimes &T) { return T.layerSum(); });
    OpMs = Med([](const SelfTimes &T) { return T.OpMs; });
  }
};

void runModelWorkload(Run &Rn, bool Replay) {
  std::vector<double> SetupS;
  std::vector<ModelCase> Cases;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    const auto T0 = Clock::now();
    std::vector<ModelCase> C = setupModels(Replay);
    SetupS.push_back(scaledMs(msSince(T0)) / 1e3);
    if (Rep == 0)
      Cases = std::move(C);
    else
      Rn.check(sameSetup(Cases, C), "set-up repetitions disagree");
  }

  SpanLog Log;
  auto Op = [&](ModelCase &M, bool Timed, bool Traced) {
    resetGlobalCounts();
    int Root = -1;
    const auto T0 = Clock::now();
    if (Traced)
      Root = Log.openRoot();
    OpOut Out = modelOp(M, Replay, Log, Root);
    if (Traced)
      Log.close(Root);
    const double Ms = msSince(T0);
    Rn.op(checkModelOp(M, Out, globalCounts()));
    if (Timed && !Traced)
      M.OpMs.push_back(Ms);
    if (Timed && Traced) {
      M.TracedRoots.push_back(Root);
      obs::Scope Session;
      const auto S0 = Clock::now();
      {
        obs::ScopeGuard Guard(Session);
        ExecutionEngine(Out.Config).execute(Out.Materialized);
      }
      M.ScopedMs.push_back(msSince(S0));
    }
    return Ms;
  };
  const ScaledOps Timed = runRounds(Rn, Cases, Op);
  if (Replay)
    std::fprintf(stderr, "perfbench: replayed plans reproduce the set-up "
                         "compiles' executed ns and energy bit for bit\n");
  checkPlanGoldens(Rn);

  // Goodput without request deadlines: each model's deadline is its
  // modelled Baseline latency, so a model counts when PIMFlow meets it.
  std::vector<double> Speedup, Energy, SimUs, CnnSpeedup;
  double MetBaseline = 0.0;
  const double NumModels = static_cast<double>(Cases.size());
  for (const ModelCase &M : Cases) {
    MetBaseline += M.Ns <= M.BaselineNs ? 1.0 : 0.0;
    Speedup.push_back(M.BaselineNs / M.Ns);
    Energy.push_back(M.J / M.BaselineJ);
    SimUs.push_back(M.Ns / 1e3);
    if (M.Name != "bert")
      CnnSpeedup.push_back(M.BaselineNs / M.Ns);
    std::fprintf(stderr,
                 "perfbench: %-18s %5zu timed ops, median %.3f ms unscaled, "
                 "counts digest %016llx\n",
                 M.Name.c_str(), M.OpMs.size(), median(M.OpMs),
                 static_cast<unsigned long long>(digest(M.RefCounts)));
  }
  std::fprintf(stderr,
               "perfbench: sim_speedup_geomean %.4f over six models; Fig. 9 "
               "reports %.2fx over the five CNNs, where ours is %.4fx "
               "(sim.fig9_gap_pct %.2f)\n",
               geomean(Speedup), Fig9PaperSpeedup, geomean(CnnSpeedup),
               fig9GapPct(CnnSpeedup));

  if (!Rn.A.Trace) {
    reportHostTimes(Rn, SetupS, Timed, Cases.size());
    Rn.e2e("sim_speedup_geomean", geomean(Speedup), "x");
    Rn.e2e("sim_energy_ratio_geomean", geomean(Energy), "x");
    Rn.e2e("sim_latency_p50_us", median(SimUs), "sim_us");
    Rn.e2e("sim_latency_p99_us", percentile(SimUs, 99.0), "sim_us");
    Rn.e2e("sim_goodput_frac", MetBaseline / NumModels, "frac");
    return;
  }

  // Per-layer numbers: times are per op (the mean over the six models of
  // each model's median); counts are totals over one op of each model.
  TracedMedians Avg;
  double Untraced = 0.0, Scoped = 0.0;
  Counts Round;
  for (const ModelCase &M : Cases) {
    std::vector<SelfTimes> Ts;
    for (int Root : M.TracedRoots)
      Ts.push_back(Log.selfTimes(Root));
    const TracedMedians T(Ts);
    for (size_t C = 0; C < NumCalls; ++C)
      Avg.CallMs[C] += T.CallMs[C] / NumModels;
    for (size_t L = 0; L < NumLayers; ++L)
      Avg.SelfMs[L] += T.SelfMs[L] / NumModels;
    Avg.Unattributed += T.Unattributed / NumModels;
    Avg.LayerSum += T.LayerSum / NumModels;
    Avg.OpMs += T.OpMs / NumModels;
    Untraced += median(M.OpMs) / NumModels;
    Scoped += median(M.ScopedMs) / NumModels;
    for (const auto &[Name, V] : M.RefCounts)
      Round[Name] += V;
  }
  const ModelAnalysis MA = analyseModels();
  reportCounts(Rn, Round, Avg.CallMs, MA);
  Rn.layer("runtime.gpu_busy_frac", MA.GpuBusyFrac, "frac");
  Rn.layer("runtime.pim_busy_frac", MA.PimBusyFrac, "frac");
  reportPhases(Rn, MA.Phases);
  Rn.layer("obs.scoped_execute_ms", Scoped, "ms");
  // No server runs here: every serve metric is zero.
  for (const Metric &M : ServeLayerMetrics)
    Rn.layer(M.Name, 0.0, M.Unit.c_str());
  reportSelfTimes(Rn, Avg.SelfMs, Avg.Unattributed, Avg.LayerSum, Avg.OpMs,
                  Untraced, /*SumByConstruction=*/false);
}

//===----------------------------------------------------------------------===//
// serve-mixed: a fixed set of seeded streams, replayed by one server.
//===----------------------------------------------------------------------===//

serve::ServerOptions serveOptions() {
  serve::ServerOptions SO;
  SO.Policy = OffloadPolicy::PimFlow;
  SO.MaxInflight = ServeMaxInflight;
  SO.MaxQueue = ServeMaxQueue;
  SO.PoolChannels = ServePoolChannels;
  SO.Jobs = 1;
  // One outage window over the middle fifth of a stream's expected span.
  const int64_t StreamNs =
      static_cast<int64_t>(ServeRequests * ServeMeanGapUs * 1e3);
  ChannelOutage Outage;
  Outage.Channel = ServeOutageChannel;
  Outage.StartNs = StreamNs * 2 / 5;
  Outage.EndNs = StreamNs * 3 / 5;
  SO.Faults.addOutage(Outage);
  return SO;
}

std::vector<std::pair<std::string, Graph>> serveModels() {
  std::vector<std::pair<std::string, Graph>> Models;
  for (const char *Name : ServeModels)
    Models.emplace_back(Name, buildModel(Name));
  return Models;
}

/// One of the fixed request streams, and what its ops measured.
struct StreamCase {
  serve::LoadSpec Spec;
  std::string RefSummary; ///< the warm-up op's summary; later ops match it
  Counts RefCounts;
  serve::ServeResult Last;
  std::vector<double> OpMs;
  std::vector<int> TracedRoots, ReplayRoots;
};

/// The benchmark's own copy of each tenant's executable graphs, for the
/// traced run's out-of-op replay of the server's re-executions.
struct ShadowModel {
  Graph Materialized{"unprepared"};
  Graph FloorDemoted{"unprepared"};
};

void runServeWorkload(Run &Rn) {
  const serve::ServerOptions SO = serveOptions();
  std::vector<StreamCase> Streams(ServeStreams);
  for (size_t I = 0; I < Streams.size(); ++I) {
    serve::LoadSpec &Spec = Streams[I].Spec;
    Spec.Count = ServeRequests;
    Spec.Seed = I + 1;
    Spec.MeanGapUs = ServeMeanGapUs;
    Spec.Batches = {1, 2, 4};
    Spec.DeadlineUs = ServeDeadlineUs;
  }

  // Set-up: the Baseline reference runs, then a server whose one-request
  // warm-up run() compiles, materializes and prices every tenant.
  std::vector<double> SetupS, PrepareS, BaseNs, BaseJ;
  std::unique_ptr<serve::Server> Srv;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    const auto T0 = Clock::now();
    std::vector<double> Ns, J;
    for (auto &[Name, G] : serveModels()) {
      const CompileResult B = PimFlow(OffloadPolicy::GpuOnly).compileAndRun(G);
      Ns.push_back(B.endToEndNs());
      J.push_back(B.energyJ());
    }
    auto S = std::make_unique<serve::Server>(serveModels(), SO);
    serve::LoadSpec Warm = Streams[0].Spec;
    Warm.Count = 1;
    const auto P0 = Clock::now();
    S->run(Warm);
    PrepareS.push_back(msSince(P0) / 1e3);
    SetupS.push_back(scaledMs(msSince(T0)) / 1e3);
    if (Rep == 0) {
      BaseNs = Ns;
      BaseJ = J;
      Srv = std::move(S);
    } else {
      Rn.check(Ns == BaseNs && J == BaseJ, "set-up repetitions disagree");
    }
  }

  std::vector<ShadowModel> Shadow;
  SystemConfig ShadowConfig;
  if (Rn.A.Trace) {
    PimFlow Flow(SO.Policy, SO.Flow);
    ShadowConfig = Flow.config();
    for (auto &[Name, G] : serveModels()) {
      ShadowModel SM;
      SM.Materialized = Flow.materialize(G, Flow.plan(G));
      SM.FloorDemoted = SM.Materialized;
      for (const Node &N : SM.FloorDemoted.nodes())
        if (!N.Dead && N.Dev == Device::Pim)
          SM.FloorDemoted.node(N.Id).Dev = Device::Gpu;
      Shadow.push_back(std::move(SM));
    }
  }

  SpanLog Log;
  std::vector<double> ScopedMs, ExecMs;
  PhaseTotals Phases;
  std::map<std::pair<int, int>, Timeline> ShadowTimelines;

  // Replays, outside the op, the re-executions each request got inside
  // Server::run (as many as its session scope counted): each once
  // unscoped (runtime) and once in a fresh session scope (runtime + obs),
  // the same calls the server makes.
  // Returns the replay's root span, or -1 when a replay disagrees with the
  // served unit time.
  auto ReplayOp = [&](const serve::ServeResult &R) {
    const int Replay = Log.openRoot();
    bool Agrees = true;
    for (const auto &S : R.Sessions) {
      // As many executes as the server ran under this session's scope.
      Counts SessionCounts;
      addCounts(S->Scope.registry(), SessionCounts);
      const int64_t Runs = count(SessionCounts, "engine.executions");
      if (Runs == 0)
        continue;
      const int Ch = S->channelsGranted();
      const ShadowModel &SM = Shadow[static_cast<size_t>(S->Req.ModelIdx)];
      const Graph &G = Ch > 0 ? SM.Materialized : SM.FloorDemoted;
      SystemConfig Config = ShadowConfig;
      Config.Pim.Channels = Ch;
      Timeline TL;
      for (int64_t Run = 0; Run < Runs; ++Run) {
        TL = Log.run(CallExecute, Replay,
                     [&] { return ExecutionEngine(Config).execute(G); });
        // The server builds a session's scope in its event loop and frees
        // it after run() returns; only the scoped execute is obs's here.
        obs::Scope Session;
        Log.run(CallScopedExecute, Replay, [&] {
          obs::ScopeGuard Guard(Session);
          ExecutionEngine(Config).execute(G);
        });
      }
      Agrees &= TL.TotalNs == S->UnitNs;
      auto Key = std::make_pair(S->Req.ModelIdx, Ch);
      if (!ShadowTimelines.count(Key)) {
        ShadowTimelines[Key] = TL;
        Phases.add(obs::attributeTimeline(G, TL, Config).Phases);
      }
    }
    Log.close(Replay);
    return Agrees ? Replay : -1;
  };

  auto Op = [&](StreamCase &SC, bool Timed, bool Traced) {
    resetGlobalCounts();
    int Root = -1;
    const auto T0 = Clock::now();
    if (Traced)
      Root = Log.openRoot();
    serve::ServeResult R =
        Log.run(CallServeRun, Root, [&] { return Srv->run(SC.Spec); });
    if (Traced)
      Log.close(Root);
    const double Ms = msSince(T0);

    Counts C = globalCounts();
    for (const auto &S : R.Sessions)
      addCounts(S->Scope.registry(), C);
    const std::string Summary = serve::renderServeSummary(R);
    if (SC.RefSummary.empty()) {
      SC.RefSummary = Summary;
      SC.RefCounts = C;
    }
    std::string Failure;
    if (R.Served + R.Degraded + R.FloorFallbacks + R.Shed != SC.Spec.Count ||
        static_cast<int>(R.Sessions.size()) != SC.Spec.Count)
      Failure = "served + degraded + floor + shed != offered";
    else if (Summary != SC.RefSummary)
      Failure = "serve summary differs from the stream's first op";
    else if (C != SC.RefCounts)
      Failure = "counter values differ from the stream's first op";
    if (Timed && !Traced)
      SC.OpMs.push_back(Ms);
    if (Timed && Traced) {
      const int Replay = ReplayOp(R);
      if (Replay < 0 && Failure.empty())
        Failure = "out-of-op replay disagrees with the served unit ns";
      SC.TracedRoots.push_back(Root);
      SC.ReplayRoots.push_back(Replay);
    }
    Rn.op(Failure);
    SC.Last = std::move(R);
    return Ms;
  };
  const ScaledOps Timed = runRounds(Rn, Streams, Op);
  checkServeGolden(Rn);

  // The modelled outcome, pooled over the streams (identical every op).
  std::vector<double> SpeedUps, EnergyRatios, LatencyUs, QueueUs;
  Counts Round;
  double Offered = 0.0;
  int Met = 0, Shed = 0, Degraded = 0, Floor = 0, Completed = 0,
      Interrupts = 0;
  for (const StreamCase &SC : Streams) {
    const serve::ServeResult &R = SC.Last;
    std::vector<double> StreamQueueUs;
    for (const auto &S : R.Sessions) {
      if (!S->ran())
        continue;
      const size_t M = static_cast<size_t>(S->Req.ModelIdx);
      SpeedUps.push_back(BaseNs[M] / S->UnitNs);
      EnergyRatios.push_back(S->UnitEnergyJ / BaseJ[M]);
      LatencyUs.push_back(static_cast<double>(S->EndNs - S->Req.ArrivalNs) /
                          1e3);
      StreamQueueUs.push_back(
          static_cast<double>(S->StartNs - S->Req.ArrivalNs) / 1e3);
    }
    QueueUs.insert(QueueUs.end(), StreamQueueUs.begin(), StreamQueueUs.end());
    Offered += SC.Spec.Count;
    Met += R.DeadlineMet;
    Shed += R.Shed;
    Degraded += R.Degraded;
    Floor += R.FloorFallbacks;
    Completed += R.completed();
    Interrupts += R.FaultInterrupts;
    for (const auto &[Name, V] : SC.RefCounts)
      Round[Name] += V;
    std::fprintf(stderr,
                 "perfbench: stream seed %llu: %zu timed ops, median %.3f "
                 "ms unscaled; served %d degraded %d floor %d shed "
                 "%d, deadline met %d, interrupts %d, queue delay p50 %.1f "
                 "p99 %.1f us; counts digest %016llx\n",
                 static_cast<unsigned long long>(SC.Spec.Seed),
                 SC.OpMs.size(), median(SC.OpMs), R.Served,
                 R.Degraded, R.FloorFallbacks, R.Shed, R.DeadlineMet,
                 R.FaultInterrupts, median(StreamQueueUs),
                 percentile(StreamQueueUs, 99.0),
                 static_cast<unsigned long long>(digest(SC.RefCounts)));
  }

  if (!Rn.A.Trace) {
    reportHostTimes(Rn, SetupS, Timed, Streams.size());
    Rn.e2e("sim_speedup_geomean", geomean(SpeedUps), "x");
    Rn.e2e("sim_energy_ratio_geomean", geomean(EnergyRatios), "x");
    Rn.e2e("sim_latency_p50_us", median(LatencyUs), "sim_us");
    Rn.e2e("sim_latency_p99_us", percentile(LatencyUs, 99.0), "sim_us");
    Rn.e2e("sim_goodput_frac", Met / Offered, "frac");
    return;
  }

  // Per-layer numbers: times are per op (the mean over the streams of each
  // stream's median), counts are totals over one op of each stream.
  // Server::run is one call; its runtime / obs split comes from the
  // out-of-op replay of the same re-executions: runtime = the unscoped
  // executes, obs = scoped minus unscoped, serve = the rest of the op.
  const double NumStreams = static_cast<double>(Streams.size());
  std::array<double, NumLayers> SelfMs{};
  double Exec = 0.0, Scoped = 0.0, Traced = 0.0, Untraced = 0.0;
  for (const StreamCase &SC : Streams) {
    std::vector<double> E, Sc, Sv, T;
    for (size_t I = 0; I < SC.TracedRoots.size(); ++I) {
      const SelfTimes Op = Log.selfTimes(SC.TracedRoots[I]);
      const SelfTimes Rp = Log.selfTimes(SC.ReplayRoots[I]);
      E.push_back(Rp.CallMs[CallExecute]);
      Sc.push_back(Rp.CallMs[CallScopedExecute]);
      Sv.push_back(Op.CallMs[CallServeRun] - Rp.CallMs[CallScopedExecute]);
      T.push_back(Op.OpMs);
    }
    Exec += median(E) / NumStreams;
    Scoped += median(Sc) / NumStreams;
    SelfMs[Serve] += median(Sv) / NumStreams;
    Traced += median(T) / NumStreams;
    Untraced += median(SC.OpMs) / NumStreams;
  }
  SelfMs[Runtime] = Exec;
  SelfMs[Obs] = Scoped - Exec;
  double GpuBusyNs = 0.0, PimBusyNs = 0.0, BusyTotalNs = 0.0;
  for (const auto &[Key, TL] : ShadowTimelines) {
    GpuBusyNs += TL.GpuBusyNs;
    PimBusyNs += TL.PimBusyNs;
    BusyTotalNs += TL.TotalNs;
  }
  std::array<double, NumCalls> CallMs{};
  CallMs[CallExecute] = Exec;
  const ModelAnalysis MA = analyseModels();
  reportCounts(Rn, Round, CallMs, MA);
  Rn.layer("runtime.gpu_busy_frac", GpuBusyNs / BusyTotalNs, "frac");
  Rn.layer("runtime.pim_busy_frac", PimBusyNs / BusyTotalNs, "frac");
  reportPhases(Rn, Phases);
  Rn.layer("obs.scoped_execute_ms", Scoped, "ms");
  Rn.layer("serve.host_us_per_request", Untraced * 1e3 / ServeRequests, "us");
  Rn.layer("serve.reexecutions", Completed, "count");
  Rn.layer("serve.prepare_s", median(PrepareS), "s");
  Rn.layer("serve.shed_frac", Shed / Offered, "frac");
  Rn.layer("serve.degraded_frac", Degraded / Offered, "frac");
  Rn.layer("serve.floor_frac", Floor / Offered, "frac");
  Rn.layer("serve.queue_delay_p99_us", percentile(QueueUs, 99.0), "sim_us");
  Rn.layer("serve.fault_interrupts", Interrupts, "count");
  reportSelfTimes(Rn, SelfMs, Traced - (SelfMs[Runtime] + SelfMs[Obs] +
                                        SelfMs[Serve]),
                  SelfMs[Runtime] + SelfMs[Obs] + SelfMs[Serve], Traced,
                  Untraced, /*SumByConstruction=*/true);
}

} // namespace

int main(int Argc, char **Argv) {
  Run Rn;
  if (!parseArgs(Argc, Argv, Rn.A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <compile-cold|replay-warm|"
                 "serve-mixed> --seed <n> --seconds <s> --trace <0|1> "
                 "--testdata <dir>\n");
    return 2;
  }
  // The counter registry is on for every op: its exact counts are the
  // per-layer evidence. The tracer and the metrics registry stay off, as
  // in a plain `pimflow compile` or `pimflow run`.
  obs::Registry::instance().setEnabled(true);

  if (Rn.A.Workload == "serve-mixed")
    runServeWorkload(Rn);
  else
    runModelWorkload(Rn, Rn.A.Workload == "replay-warm");

  const bool Correct = Rn.ChecksOk && Rn.Failed == 0;
  if (!printResult(Correct, Rn.Attempted, Rn.Failed,
                   Rn.A.Trace ? Rn.PerLayer : Rn.EndToEnd))
    return 1;
  return 0;
}
