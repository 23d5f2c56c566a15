//===- tests/codegen/KernelPlanMemoTest.cpp - kernel-plan memo --*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The kernel-plan memo (codegen/KernelPlanMemo.h): a hit returns exactly
// what a fresh command-scheduling pass returns, any config or option change
// misses, the computed-plan counts do not depend on the worker count, and a
// prepared server re-executes requests without planning anything.
//
//===----------------------------------------------------------------------===//

#include "codegen/KernelPlanMemo.h"

#include <functional>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/PimFlow.h"
#include "models/Zoo.h"
#include "obs/Scope.h"
#include "serve/Server.h"
#include "support/Format.h"

using namespace pf;

namespace {

/// The PIM kernel specs of every candidate node of every zoo model,
/// deduplicated.
std::vector<PimKernelSpec> zooSpecs() {
  std::vector<std::string> Models = modelNames();
  for (const std::string &M : extraModelNames())
    Models.push_back(M);
  Models.push_back("bert");
  Models.push_back("toy");
  std::set<std::tuple<int64_t, int64_t, int64_t, int64_t>> Seen;
  std::vector<PimKernelSpec> Specs;
  for (const std::string &M : Models) {
    const Graph G = buildModel(M);
    for (const Node &N : G.nodes()) {
      if (N.Dead || !isPimCandidate(N))
        continue;
      const PimKernelSpec S = lowerToPimSpec(G, N.Id);
      if (Seen.insert({S.M, S.K, S.NumVectors, S.GwriteSegments}).second)
        Specs.push_back(S);
    }
  }
  return Specs;
}

int64_t counterOf(const obs::Registry &R, const std::string &Name) {
  for (const auto &[N, V] : R.counterSnapshot())
    if (N == Name)
      return V;
  return 0;
}

/// Every `codegen.*` and `pim.sim.*` counter of the global registry.
std::map<std::string, int64_t> planningCounters() {
  std::map<std::string, int64_t> Out;
  for (const auto &[N, V] : obs::Registry::instance().counterSnapshot())
    if (N.rfind("codegen.", 0) == 0 || N.rfind("pim.sim.", 0) == 0)
      Out[N] = V;
  return Out;
}

} // namespace

TEST(KernelPlanMemoTest, HitMatchesFreshPlan) {
  const std::vector<PimKernelSpec> Specs = zooSpecs();
  ASSERT_GT(Specs.size(), 50u);
  for (bool Optimized : {false, true}) {
    for (int Channels : {1, 2, 4, 8, 12, 16}) {
      for (ScheduleGranularity Cap :
           {ScheduleGranularity::GAct, ScheduleGranularity::ReadRes,
            ScheduleGranularity::Comp}) {
        SystemConfig C = SystemConfig::dual(16, Optimized);
        C.Pim.Channels = Channels;
        C.Codegen.MaxGranularity = Cap;
        KernelPlanner &Planner = C.kernelPlanner();
        for (const PimKernelSpec &S : Specs) {
          const std::string Ctx =
              formatStr("M=%lld K=%lld V=%lld seg=%lld, %s, %d channels, %s",
                        static_cast<long long>(S.M),
                        static_cast<long long>(S.K),
                        static_cast<long long>(S.NumVectors),
                        static_cast<long long>(S.GwriteSegments),
                        Optimized ? "Newton++" : "Newton+", Channels,
                        granularityName(Cap));
          const KernelPlanEntry &First = Planner.plan(S);
          const KernelPlanEntry &Hit = Planner.plan(S);
          ASSERT_EQ(&First, &Hit) << Ctx;
          const PimKernelPlan Fresh = Planner.generator().plan(S);
          EXPECT_EQ(Hit.describeMapping(), Fresh.describeMapping()) << Ctx;
          EXPECT_EQ(Hit.Granularity, Fresh.Granularity) << Ctx;
          EXPECT_EQ(Hit.Ns, Fresh.Ns) << Ctx;
          EXPECT_EQ(Hit.SimNs, Fresh.Stats.Ns) << Ctx;
          EXPECT_EQ(Hit.GwriteBursts, Fresh.Stats.GwriteBursts) << Ctx;
          EXPECT_EQ(Hit.GActs, Fresh.Stats.GActs) << Ctx;
          EXPECT_EQ(Hit.CompColumns, Fresh.Stats.CompColumns) << Ctx;
          EXPECT_EQ(Hit.ReadResCmds, Fresh.Stats.ReadResCmds) << Ctx;
          ASSERT_EQ(Fresh.Stats.ChannelPhases.size(),
                    static_cast<size_t>(Hit.channels()))
              << Ctx;
          for (int Ch = 0; Ch < Hit.channels(); ++Ch)
            EXPECT_EQ(Fresh.Stats.ChannelPhases[static_cast<size_t>(Ch)],
                      Hit.phasesOn(Ch))
                << Ctx << ", channel " << Ch;
        }
        EXPECT_EQ(C.KernelPlans->size(), Specs.size());
      }
    }
  }
}

TEST(KernelPlanMemoTest, TraceForRebuildsEveryZooPlan) {
  // The trace dump writes traceFor(spec, mapping) files, which must stay
  // byte-identical to the traces the full pass produced.
  for (bool Optimized : {false, true}) {
    const SystemConfig C = SystemConfig::dual(16, Optimized);
    const PimCommandGenerator Gen(C.Pim, C.Codegen);
    for (const PimKernelSpec &S : zooSpecs()) {
      const PimKernelPlan Plan = Gen.plan(S);
      EXPECT_TRUE(Gen.traceFor(S, Plan) == Plan.Trace)
          << "M=" << S.M << " K=" << S.K << " V=" << S.NumVectors
          << " mapping " << Plan.describeMapping();
    }
  }
}

TEST(KernelPlanMemoTest, ChangedConfigFieldMisses) {
  PimKernelSpec S;
  S.M = 256;
  S.K = 1152;
  S.NumVectors = 196;
  S.GwriteSegments = 3;
  const SystemConfig Base = SystemConfig::dual();
  const std::vector<std::pair<const char *, std::function<void(SystemConfig &)>>>
      Changes = {
          {"Channels", [](SystemConfig &C) { C.Pim.Channels = 8; }},
          {"TComp", [](SystemConfig &C) { C.Pim.TComp += 1; }},
          {"ResultLatchesPerBank",
           [](SystemConfig &C) { C.Pim.ResultLatchesPerBank = 8; }},
          {"FetchSupplyGBs",
           [](SystemConfig &C) { C.Pim.FetchSupplyGBs = 150.0; }},
          {"ReadResEnergyPj",
           [](SystemConfig &C) { C.Pim.ReadResEnergyPj += 1.0; }},
          {"StridedGwrite",
           [](SystemConfig &C) { C.Codegen.StridedGwrite = false; }},
          {"MaxGranularity",
           [](SystemConfig &C) {
             C.Codegen.MaxGranularity = ScheduleGranularity::ReadRes;
           }},
      };

  KernelPlanner &BasePlanner = Base.kernelPlanner();
  BasePlanner.plan(S);
  EXPECT_EQ(&Base.kernelPlanner(), &BasePlanner);
  size_t Expected = 1;
  for (const auto &[Field, Change] : Changes) {
    SystemConfig Changed = Base; // Shares Base's memo.
    Change(Changed);
    ASSERT_EQ(Changed.KernelPlans, Base.KernelPlans);
    obs::Scope Scope;
    {
      obs::ScopeGuard Guard(Scope);
      Changed.kernelPlanner().plan(S);
    }
    EXPECT_NE(&Changed.kernelPlanner(), &BasePlanner) << Field;
    EXPECT_EQ(counterOf(Scope.registry(), "codegen.plan_hits"), 0) << Field;
    EXPECT_GT(counterOf(Scope.registry(), "codegen.mappings_tried"), 0)
        << Field;
    EXPECT_EQ(Base.KernelPlans->size(), ++Expected) << Field;
  }

  // The unchanged key still hits.
  obs::Scope Scope;
  {
    obs::ScopeGuard Guard(Scope);
    SystemConfig Copy = Base;
    Copy.kernelPlanner().plan(S);
  }
  EXPECT_EQ(counterOf(Scope.registry(), "codegen.plan_hits"), 1);
  EXPECT_EQ(counterOf(Scope.registry(), "codegen.mappings_tried"), 0);
}

TEST(KernelPlanMemoTest, CountersIndependentOfSearchJobs) {
  // The profiler's pre-pass plans from a worker pool; a memo that let two
  // workers compute the same key would count its mappings twice.
  const bool WasEnabled = obs::Registry::instance().enabled();
  const Graph G = buildModel("mobilenet-v2");
  auto Compile = [&](int Jobs) {
    obs::resetAll();
    obs::Registry::instance().setEnabled(true);
    PimFlowOptions O;
    O.SearchJobs = Jobs;
    PimFlow(OffloadPolicy::PimFlow, O).compileAndRun(G);
    return planningCounters();
  };
  const std::map<std::string, int64_t> Serial = Compile(1);
  const std::map<std::string, int64_t> Parallel = Compile(4);
  obs::resetAll();
  obs::Registry::instance().setEnabled(WasEnabled);
  EXPECT_GT(Serial.count("codegen.plan_hits"), 0u);
  EXPECT_EQ(Serial, Parallel);
}

TEST(KernelPlanMemoTest, ServeRunsPlanNothingAfterPrepare) {
  // prepare() prices every reachable (model, grant) pair, so each
  // request's re-execution finds its plans in the server's memo.
  std::vector<std::pair<std::string, Graph>> Models;
  Models.emplace_back("toy-a", buildToy());
  Models.emplace_back("toy-b", buildToy());
  serve::ServerOptions SO;
  SO.Flow.PimChannels = 8;
  SO.Flow.PimFloor = 2;
  SO.PoolChannels = 12; // Leaves partial remainders: degraded grants.
  SO.MaxInflight = 3;
  SO.MaxQueue = 1;
  SO.Jobs = 2;
  serve::LoadSpec Spec;
  Spec.Count = 32;
  Spec.Seed = 9;
  Spec.MeanGapUs = 2.0;
  Spec.Batches = {1, 4};
  serve::Server Srv(std::move(Models), SO);
  const serve::ServeResult R = Srv.run(Spec);
  ASSERT_GT(R.Degraded, 0);
  int64_t Hits = 0;
  for (const auto &S : R.Sessions) {
    const obs::Registry &Reg = S->Scope.registry();
    EXPECT_EQ(counterOf(Reg, "codegen.mappings_tried"), 0)
        << "request " << S->Req.Id;
    EXPECT_EQ(counterOf(Reg, "pim.sim.runs"), 0) << "request " << S->Req.Id;
    EXPECT_EQ(counterOf(Reg, "codegen.plans"),
              counterOf(Reg, "codegen.plan_hits"))
        << "request " << S->Req.Id;
    Hits += counterOf(Reg, "codegen.plan_hits");
  }
  EXPECT_GT(Hits, 0);
}
