//===- tests/runtime/EngineTimelineGoldenTest.cpp - exact timelines -*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the execution engine's output bit-for-bit. For every zoo model,
/// each of {Baseline, PIMFlow-md, PIMFlow-pl, PIMFlow} is planned and
/// materialized once, and the transformed graph is executed under memory
/// contention {off, on} x {no faults, one fixed slow+transient schedule}.
/// Each run renders its totals, busy sums, engine.* / pim.sim.* /
/// codegen.* counters and deterministic streaming metrics (HDR histograms,
/// the simulated-cycle clock and windows) as text, plus one line per
/// NodeSchedule (id, device, start/end/energy as %.17g). The committed golden under
/// tests/runtime/testdata/engine_timeline/<model>.golden keeps the totals
/// and counters in clear and the schedule lines as their count and FNV-1a
/// 64 digest (the clear lines of the whole zoo are ~1.8 MB).
///
/// On a mismatch the test writes, in its working directory, <model>.actual
/// (the golden's form; a deliberate timing-model change regenerates the
/// golden by copying it over) and <model>.schedule (the full rendering with
/// every schedule line), and the failure names the first differing line.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/Scope.h"
#include "plan/PlanArtifact.h"
#include "support/Format.h"

using namespace pf;

namespace {

/// One slow channel plus transient COMP/READRES failures inside the retry
/// budget: every PIM kernel stays recoverable, so tryExecute succeeds and
/// the retry and slow-channel costing both show in the timeline.
constexpr const char *FaultSpec = "slow:1:1.5,comp:0:3:2,readres:2:1:1";

bool keptCounter(const std::string &Name) {
  for (const char *Prefix : {"engine.", "pim.sim.", "codegen."})
    if (Name.rfind(Prefix, 0) == 0)
      return true;
  return false;
}

/// Executes \p G once under a fresh observability scope and renders the
/// timeline plus the scope's counters; the schedule lines themselves only
/// when \p NodeLines, else their count and digest.
std::string renderRun(const Graph &G, const SystemConfig &Config,
                      const FaultModel *Faults, const RetryPolicy *Retry,
                      bool NodeLines) {
  obs::Scope Scope;
  std::string Out;
  {
    obs::ScopeGuard Guard(Scope);
    DiagnosticEngine DE;
    std::optional<Timeline> TL =
        ExecutionEngine(Config).tryExecute(G, DE, Faults, Retry);
    if (!TL)
      return "error\n" + DE.render();
    Out += formatStr("total_ns %.17g energy_j %.17g gpu_busy_ns %.17g "
                     "pim_busy_ns %.17g contention %.17g nodes %zu\n",
                     TL->TotalNs, TL->EnergyJ, TL->GpuBusyNs, TL->PimBusyNs,
                     TL->ContentionSlowdown, TL->Nodes.size());
    std::string Lines;
    for (const NodeSchedule &S : TL->Nodes)
      Lines += formatStr("%d %s %.17g %.17g %.17g\n", static_cast<int>(S.Id),
                         deviceName(S.Dev), S.StartNs, S.EndNs, S.EnergyJ);
    Out += NodeLines ? Lines
                     : formatStr("schedule_fnv64 %s\n",
                                 fnv1a64Hex(Lines).c_str());
  }
  for (const auto &[Name, Value] : Scope.registry().counterSnapshot())
    if (keptCounter(Name))
      Out += formatStr("counter %s %lld\n", Name.c_str(),
                       static_cast<long long>(Value));
  // Streaming metrics: every HDR histogram, the simulated-cycle clock and
  // its windows (wall-clock windows depend on when the test runs).
  const obs::MetricsRegistry &M = Scope.metrics();
  for (const auto &[Name, Q] : M.histogramSnapshot())
    Out += formatStr("histogram %s count %lld sum %.17g min %.17g max %.17g "
                     "p50 %.17g p90 %.17g p99 %.17g p999 %.17g\n",
                     Name.c_str(), static_cast<long long>(Q.Count), Q.Sum,
                     Q.Min, Q.Max, Q.P50, Q.P90, Q.P99, Q.P999);
  Out += formatStr("sim_cycles %lld\n", static_cast<long long>(M.cycles()));
  for (const auto &[Name, W] : M.windowSnapshot())
    if (W.Domain == obs::TickDomain::SimCycles)
      Out += formatStr("window %s count %lld sum %.17g\n", Name.c_str(),
                       static_cast<long long>(W.Count), W.Sum);
  return Out;
}

std::string renderModel(const std::string &Model, bool NodeLines) {
  DiagnosticEngine DE;
  const std::optional<FaultModel> Faults = FaultModel::parse(FaultSpec, DE);
  PF_ASSERT(Faults.has_value(), "fixed fault spec must parse");
  const RetryPolicy Retry;

  const Graph Source = buildModel(Model);
  std::string Out;
  for (OffloadPolicy P :
       {OffloadPolicy::GpuOnly, OffloadPolicy::PimFlowMd,
        OffloadPolicy::PimFlowPl, OffloadPolicy::PimFlow}) {
    PimFlow Flow(P);
    const Graph G = Flow.materialize(Source, Flow.plan(Source));
    for (bool Contention : {false, true}) {
      PimFlowOptions Opts;
      Opts.ModelContention = Contention;
      const SystemConfig Config = systemConfigFor(P, Opts);
      for (bool Faulted : {false, true}) {
        Out += formatStr("== %s policy=%s contention=%d faults=%s\n",
                         Model.c_str(), policyName(P), Contention ? 1 : 0,
                         Faulted ? FaultSpec : "none");
        Out += renderRun(G, Config, Faulted ? &*Faults : nullptr,
                         Faulted ? &Retry : nullptr, NodeLines);
      }
    }
  }
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// First differing line of \p A vs \p B, for the failure message.
std::string firstDiff(const std::string &A, const std::string &B) {
  std::istringstream SA(A), SB(B);
  std::string LA, LB;
  for (int Line = 1;; ++Line) {
    const bool HaveA = static_cast<bool>(std::getline(SA, LA));
    const bool HaveB = static_cast<bool>(std::getline(SB, LB));
    if (!HaveA && !HaveB)
      return "identical";
    if (!HaveA || !HaveB || LA != LB)
      return formatStr("line %d:\n  golden: %s\n  actual: %s", Line,
                       HaveA ? LA.c_str() : "<eof>",
                       HaveB ? LB.c_str() : "<eof>");
  }
}

std::vector<std::string> zooModels() {
  std::vector<std::string> Models = modelNames();
  for (const std::string &M : extraModelNames())
    Models.push_back(M);
  Models.push_back("bert");
  Models.push_back("toy");
  return Models;
}

} // namespace

class EngineTimelineGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineTimelineGolden, MatchesCommittedTimeline) {
  const std::string Model = GetParam();
  const std::string Actual = renderModel(Model, /*NodeLines=*/false);
  const std::string GoldenPath =
      std::string(PF_ENGINE_GOLDEN_DIR) + "/" + Model + ".golden";
  const std::string Golden = readFile(GoldenPath);
  if (Actual == Golden)
    return;
  std::ofstream(Model + ".actual", std::ios::binary) << Actual;
  std::ofstream(Model + ".schedule", std::ios::binary)
      << renderModel(Model, /*NodeLines=*/true);
  ADD_FAILURE() << "engine timeline of " << Model << " differs from "
                << GoldenPath << " (written: " << Model << ".actual, "
                << Model << ".schedule), first difference at "
                << firstDiff(Golden, Actual);
}

INSTANTIATE_TEST_SUITE_P(Zoo, EngineTimelineGolden,
                         ::testing::ValuesIn(zooModels()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });
