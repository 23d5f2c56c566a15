//===- tests/pim/PimSimulatorTest.cpp - PIM cycle simulator -----*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pim/PimSimulator.h"

#include <gtest/gtest.h>

#include "obs/Scope.h"
#include "pim/ReferenceSimulator.h"

using namespace pf;

namespace {

PimConfig baseConfig() {
  PimConfig C;
  C.NumGlobalBuffers = 1;
  C.GwriteLatencyHiding = false;
  return C;
}

ChannelTrace singleBlock(std::vector<PimCommand> Pattern,
                         int64_t Repeats = 1) {
  ChannelTrace T;
  T.Blocks.push_back(CommandBlock{std::move(Pattern), Repeats});
  return T;
}

} // namespace

TEST(PimConfigTest, DerivedQuantities) {
  PimConfig C;
  EXPECT_EQ(C.elementsPerComp(), 16);       // 256 bits of fp16.
  EXPECT_EQ(C.elementsPerRow(), 32 * 16);   // 32 column I/Os per row.
  EXPECT_EQ(C.macsPerComp(), 256);          // 16 banks x 16 multipliers.
  C.NumGlobalBuffers = 1;
  EXPECT_EQ(C.bufferElements(), 2048);      // 4KB of fp16.
  C.NumGlobalBuffers = 4;
  EXPECT_EQ(C.bufferElements(), 512);       // Partitioned capacity.
}

TEST(PimConfigTest, MechanismPresets) {
  EXPECT_EQ(PimConfig::newtonPlus().NumGlobalBuffers, 1);
  EXPECT_FALSE(PimConfig::newtonPlus().GwriteLatencyHiding);
  EXPECT_EQ(PimConfig::newtonPlusPlus().NumGlobalBuffers, 4);
  EXPECT_TRUE(PimConfig::newtonPlusPlus().GwriteLatencyHiding);
}

TEST(PimSimulatorTest, SingleCommandLatencies) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::gact()})), C.TGact);
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::comp(1)})),
            C.TComp);
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::readRes()})),
            C.TReadRes);
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::gwrite(1, 1)})),
            C.TGwrite);
}

TEST(PimSimulatorTest, GwriteBurstsPipeline) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  // n bursts: first pays TGwrite, rest stream at TCcdl.
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::gwrite(5, 1)})),
            C.TGwrite + 4 * C.TCcdl);
  // GWRITE_4 carries 4x the data in one command.
  EXPECT_EQ(Sim.simulateChannel(singleBlock({PimCommand::gwrite(5, 4)})),
            C.TGwrite + 19 * C.TCcdl);
}

TEST(PimSimulatorTest, CompWaitsForGwriteAndGact) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  const int64_t Cycles = Sim.simulateChannel(singleBlock(
      {PimCommand::gwrite(4, 1), PimCommand::gact(),
       PimCommand::comp(10)}));
  // Serialized without hiding: gwrite + gact + comps.
  EXPECT_EQ(Cycles, (C.TGwrite + 3 * C.TCcdl) + C.TGact + 10 * C.TComp);
}

TEST(PimSimulatorTest, LatencyHidingOverlapsGwriteWithGact) {
  PimConfig NoHide = baseConfig();
  PimConfig Hide = baseConfig();
  Hide.GwriteLatencyHiding = true;
  const auto Pattern = singleBlock(
      {PimCommand::gwrite(16, 1), PimCommand::gact(), PimCommand::comp(4)});
  const int64_t Serial = PimSimulator(NoHide).simulateChannel(Pattern);
  const int64_t Overlapped = PimSimulator(Hide).simulateChannel(Pattern);
  EXPECT_LT(Overlapped, Serial);
  // With hiding, G_ACT (11 cycles) runs fully under the 41-cycle GWRITE:
  // COMP starts when the slower of the two finishes.
  EXPECT_EQ(Overlapped, (Hide.TGwrite + 15 * Hide.TCcdl) + 4 * Hide.TComp);
}

TEST(PimSimulatorTest, HidingNeverSlowsDown) {
  // Property: enabling latency hiding can only shorten any trace.
  PimConfig NoHide = baseConfig();
  PimConfig Hide = baseConfig();
  Hide.GwriteLatencyHiding = true;
  for (int Bursts = 1; Bursts <= 64; Bursts *= 2)
    for (int Comps = 1; Comps <= 256; Comps *= 4) {
      const auto T = singleBlock({PimCommand::gwrite(Bursts, 1),
                                  PimCommand::gact(),
                                  PimCommand::comp(Comps),
                                  PimCommand::readRes()},
                                 8);
      EXPECT_LE(PimSimulator(Hide).simulateChannel(T),
                PimSimulator(NoHide).simulateChannel(T))
          << "bursts=" << Bursts << " comps=" << Comps;
    }
}

TEST(PimSimulatorTest, BlockRepeatMatchesUnrolled) {
  // The steady-state extrapolation must be cycle-identical to unrolling.
  PimConfig Configs[2] = {baseConfig(), PimConfig::newtonPlusPlus()};
  for (const PimConfig &C : Configs) {
    PimSimulator Sim(C);
    const std::vector<PimCommand> Pattern = {
        PimCommand::gwrite(9, 1), PimCommand::gact(2),
        PimCommand::comp(17), PimCommand::readRes(3)};
    for (int64_t R : {1, 2, 3, 7, 50}) {
      ChannelTrace Rolled = singleBlock(Pattern, R);
      ChannelTrace Unrolled;
      for (int64_t I = 0; I < R; ++I)
        Unrolled.Blocks.push_back(CommandBlock{Pattern, 1});
      EXPECT_EQ(Sim.simulateChannel(Rolled),
                Sim.simulateChannel(Unrolled))
          << "repeats=" << R << " hiding=" << C.GwriteLatencyHiding;
    }
  }
}

TEST(PimSimulatorTest, MakespanIsMaxOverChannels) {
  PimConfig C = baseConfig();
  C.Channels = 4;
  PimSimulator Sim(C);
  DeviceTrace T(4);
  T.Channels[0] = singleBlock({PimCommand::comp(10)});
  T.Channels[2] = singleBlock({PimCommand::comp(100)});
  PimRunStats Stats = Sim.run(T);
  EXPECT_EQ(Stats.Cycles, 100 * C.TComp);
  EXPECT_EQ(Stats.ActiveChannels, 2);
  EXPECT_EQ(Stats.CompColumns, 110);
}

TEST(PimSimulatorTest, RepeatedChannelTracesMatchChannelByChannel) {
  // run() simulates each distinct trace once and reuses the result for
  // identical channels; the outcome must equal simulating every channel on
  // its own. A and ALonger differ only in Repeats, so they must not share.
  const std::vector<PimCommand> PatternA = {
      PimCommand::gwrite(9, 1), PimCommand::gact(2), PimCommand::comp(17),
      PimCommand::readRes(3)};
  const ChannelTrace A = singleBlock(PatternA, 5);
  const ChannelTrace ALonger = singleBlock(PatternA, 8);
  ChannelTrace B = singleBlock({PimCommand::gwrite(4, 2), PimCommand::gact(1),
                                PimCommand::comp(40)},
                               3);
  B.Blocks.push_back(CommandBlock{{PimCommand::readRes(6)}, 2});
  const std::vector<ChannelTrace> Channels = {A, A, B, ChannelTrace{},
                                              A, B, ALonger};

  for (const PimConfig &C : {baseConfig(), PimConfig::newtonPlusPlus()}) {
    PimConfig Config = C;
    Config.Channels = static_cast<int>(Channels.size());
    PimSimulator Sim(Config);
    DeviceTrace Mixed(Config.Channels);
    Mixed.Channels = Channels;

    obs::Scope MixedScope;
    PimRunStats Stats;
    {
      obs::ScopeGuard Guard(MixedScope);
      Stats = Sim.run(Mixed);
    }

    // Reference: every channel on its own, in channel order, through the
    // unit-event model and a single-channel run (which also streams that
    // channel's pim.channel_cycles sample, in the same order).
    obs::Scope RefScope;
    PimRunStats Expected;
    {
      obs::ScopeGuard Guard(RefScope);
      for (size_t Ch = 0; Ch < Channels.size(); ++Ch) {
        if (Channels[Ch].empty())
          continue;
        const int64_t Cycles = referenceSimulateChannel(Config, Channels[Ch]);
        DeviceTrace One(Config.Channels);
        One.Channels[Ch] = Channels[Ch];
        const PimRunStats Single = Sim.run(One);
        Expected.Cycles = std::max(Expected.Cycles, Cycles);
        Expected.BusyCycleSum += Cycles;
        ++Expected.ActiveChannels;
        Expected.GwriteCmds += Single.GwriteCmds;
        Expected.GwriteBursts += Single.GwriteBursts;
        Expected.GActs += Single.GActs;
        Expected.CompCmds += Single.CompCmds;
        Expected.CompColumns += Single.CompColumns;
        Expected.ReadResCmds += Single.ReadResCmds;
        ChannelPhaseCycles P = phaseCyclesOf(Config, Channels[Ch]);
        P.Channel = static_cast<int>(Ch);
        P.CompletionCycles = Cycles;
        Expected.ChannelPhases.push_back(P);
      }
    }

    const std::string Ctx =
        "hiding=" + std::to_string(Config.GwriteLatencyHiding);
    EXPECT_EQ(Stats.Cycles, Expected.Cycles) << Ctx;
    EXPECT_EQ(Stats.Ns, Config.cyclesToNs(Expected.Cycles)) << Ctx;
    EXPECT_EQ(Stats.BusyCycleSum, Expected.BusyCycleSum) << Ctx;
    EXPECT_EQ(Stats.ActiveChannels, 6) << Ctx;
    EXPECT_EQ(Stats.GwriteCmds, Expected.GwriteCmds) << Ctx;
    EXPECT_EQ(Stats.GwriteBursts, Expected.GwriteBursts) << Ctx;
    EXPECT_EQ(Stats.GActs, Expected.GActs) << Ctx;
    EXPECT_EQ(Stats.CompCmds, Expected.CompCmds) << Ctx;
    EXPECT_EQ(Stats.CompColumns, Expected.CompColumns) << Ctx;
    EXPECT_EQ(Stats.ReadResCmds, Expected.ReadResCmds) << Ctx;
    ASSERT_EQ(Stats.ChannelPhases.size(), Expected.ChannelPhases.size());
    for (size_t I = 0; I < Stats.ChannelPhases.size(); ++I) {
      const ChannelPhaseCycles &Got = Stats.ChannelPhases[I];
      const ChannelPhaseCycles &Want = Expected.ChannelPhases[I];
      EXPECT_EQ(Got.Channel, Want.Channel) << Ctx;
      EXPECT_EQ(Got.GwriteCycles, Want.GwriteCycles) << Ctx;
      EXPECT_EQ(Got.GactCycles, Want.GactCycles) << Ctx;
      EXPECT_EQ(Got.CompCycles, Want.CompCycles) << Ctx;
      EXPECT_EQ(Got.ReadResCycles, Want.ReadResCycles) << Ctx;
      EXPECT_EQ(Got.RetryCycles, 0) << Ctx;
      EXPECT_EQ(Got.StallCycles, 0) << Ctx;
      EXPECT_EQ(Got.CompletionCycles, Want.CompletionCycles) << Ctx;
    }

    // The pim.channel_cycles histogram and its simulated-cycle window see
    // the same samples in the same order.
    const obs::MetricsRegistry &M = MixedScope.metrics();
    const obs::MetricsRegistry &R = RefScope.metrics();
    EXPECT_EQ(M.cycles(), R.cycles()) << Ctx;
    const auto Hists = M.histogramSnapshot();
    const auto RefHists = R.histogramSnapshot();
    ASSERT_EQ(Hists.size(), 1u) << Ctx;
    ASSERT_EQ(RefHists.size(), 1u) << Ctx;
    EXPECT_EQ(Hists[0].first, "pim.channel_cycles");
    EXPECT_EQ(RefHists[0].first, "pim.channel_cycles");
    const obs::QuantileStats &Q = Hists[0].second, &RQ = RefHists[0].second;
    EXPECT_EQ(Q.Count, 6) << Ctx;
    EXPECT_EQ(Q.Count, RQ.Count) << Ctx;
    EXPECT_EQ(Q.Sum, RQ.Sum) << Ctx;
    EXPECT_EQ(Q.Min, RQ.Min) << Ctx;
    EXPECT_EQ(Q.Max, RQ.Max) << Ctx;
    EXPECT_EQ(Q.P50, RQ.P50) << Ctx;
    EXPECT_EQ(Q.P90, RQ.P90) << Ctx;
    EXPECT_EQ(Q.P99, RQ.P99) << Ctx;
    EXPECT_EQ(Q.P999, RQ.P999) << Ctx;
    const auto Windows = M.windowSnapshot();
    const auto RefWindows = R.windowSnapshot();
    ASSERT_EQ(Windows.size(), 1u) << Ctx;
    ASSERT_EQ(RefWindows.size(), 1u) << Ctx;
    EXPECT_EQ(Windows[0].first, RefWindows[0].first) << Ctx;
    const obs::WindowStats &W = Windows[0].second, &RW = RefWindows[0].second;
    EXPECT_EQ(W.Domain, obs::TickDomain::SimCycles) << Ctx;
    EXPECT_EQ(W.Domain, RW.Domain) << Ctx;
    EXPECT_EQ(W.BucketWidth, RW.BucketWidth) << Ctx;
    EXPECT_EQ(W.SpanTicks, RW.SpanTicks) << Ctx;
    EXPECT_EQ(W.Count, RW.Count) << Ctx;
    EXPECT_EQ(W.Sum, RW.Sum) << Ctx;
  }
}

TEST(PimSimulatorTest, CommandCounting) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  DeviceTrace T(1);
  T.Channels[0] = singleBlock({PimCommand::gwrite(3, 1),
                               PimCommand::gact(2), PimCommand::comp(5),
                               PimCommand::readRes(4)},
                              10);
  PimRunStats Stats = Sim.run(T);
  EXPECT_EQ(Stats.GwriteCmds, 10);
  EXPECT_EQ(Stats.GwriteBursts, 30);
  EXPECT_EQ(Stats.GActs, 20);
  EXPECT_EQ(Stats.CompColumns, 50);
  EXPECT_EQ(Stats.ReadResCmds, 40);
}

TEST(PimSimulatorTest, FetchSupplyCapsThroughput) {
  PimConfig C = baseConfig();
  C.FetchSupplyGBs = 1.0; // Absurdly small supply.
  PimSimulator Sim(C);
  DeviceTrace T(1);
  T.Channels[0] = singleBlock({PimCommand::gwrite(1000, 1)});
  PimRunStats Stats = Sim.run(T);
  // 32000 bytes at 1 GB/s = 32 us.
  EXPECT_NEAR(Stats.Ns, 32000.0, 1.0);
}

TEST(PimSimulatorTest, EnergyScalesWithWork) {
  PimConfig C = baseConfig();
  PimSimulator Sim(C);
  DeviceTrace Small(1), Large(1);
  Small.Channels[0] = singleBlock({PimCommand::comp(10)});
  Large.Channels[0] = singleBlock({PimCommand::comp(1000)});
  const double ESmall = Sim.energyJ(Sim.run(Small), 10 * 256);
  const double ELarge = Sim.energyJ(Sim.run(Large), 1000 * 256);
  EXPECT_GT(ELarge, 50.0 * ESmall);
}

TEST(PimSimulatorTest, CyclesToNsUsesClock) {
  PimConfig C;
  C.ClockGhz = 2.0;
  EXPECT_DOUBLE_EQ(C.cyclesToNs(1000), 500.0);
}
