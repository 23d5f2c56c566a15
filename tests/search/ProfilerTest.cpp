//===- tests/search/ProfilerTest.cpp - profiler tests -----------*- C++ -*-===//
//
// Part of the PIMFlow reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Profiler.h"

#include <gtest/gtest.h>

#include "ir/Builder.h"
#include "models/Zoo.h"

using namespace pf;

namespace {

Graph pointwisePair() {
  GraphBuilder B("t");
  ValueId X = B.input("x", TensorShape{1, 28, 28, 32});
  ValueId V = B.conv2d(X, 192, 1, 1, 0);
  V = B.relu6(V);
  V = B.conv2d(V, 32, 1, 1, 0);
  B.output(V);
  return B.take();
}

NodeId firstConv(const Graph &G) {
  for (NodeId Id : G.topoOrder())
    if (G.node(Id).Kind == OpKind::Conv2d)
      return Id;
  return InvalidNode;
}

} // namespace

TEST(ProfilerTest, MeasurementsArePositiveAndDeterministic) {
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  NodeId Conv = firstConv(G);
  const double Gpu1 = P.gpuNodeNs(G, Conv);
  const double Pim1 = P.pimNodeNs(G, Conv);
  EXPECT_GT(Gpu1, 0.0);
  EXPECT_GT(Pim1, 0.0);
  Profiler Q(SystemConfig::dual());
  EXPECT_EQ(Q.gpuNodeNs(G, Conv), Gpu1);
  EXPECT_EQ(Q.pimNodeNs(G, Conv), Pim1);
}

TEST(ProfilerTest, RatioEndpointsMatchDedicatedSamples) {
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  NodeId Conv = firstConv(G);
  EXPECT_EQ(P.mdDpNs(G, Conv, 0.0), P.pimNodeNs(G, Conv));
  EXPECT_EQ(P.mdDpNs(G, Conv, 1.0), P.gpuNodeNs(G, Conv));
}

TEST(ProfilerTest, SplitBeatsWorseDevice) {
  // An optimal interior split can never be (much) worse than both
  // endpoints.
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  NodeId Conv = firstConv(G);
  double Best = 1e300;
  for (double R = 0.1; R < 1.0; R += 0.1)
    Best = std::min(Best, P.mdDpNs(G, Conv, R));
  EXPECT_LT(Best,
            std::max(P.gpuNodeNs(G, Conv), P.pimNodeNs(G, Conv)) * 1.05);
}

TEST(ProfilerTest, CacheDeduplicatesIdenticalLayers) {
  // MobileNetV2 repeats identical blocks: profiling every conv must hit
  // the cache often.
  Graph G = buildMobileNetV2();
  Profiler P(SystemConfig::dual());
  for (NodeId Id : G.topoOrder())
    if (isPimCandidate(G.node(Id)))
      P.gpuNodeNs(G, Id);
  EXPECT_GT(P.cacheHits(), 10u);
  EXPECT_LT(P.cacheMisses(), 30u);
}

TEST(ProfilerTest, DifferentConfigsDifferentCacheKeys) {
  Graph G = pointwisePair();
  Profiler P8(SystemConfig::dual(8));
  Profiler P16(SystemConfig::dual(16));
  // More PIM channels -> faster PIM sample.
  EXPECT_LT(P16.pimNodeNs(G, firstConv(G)),
            P8.pimNodeNs(G, firstConv(G)) * 1.01);
}

TEST(ProfilerTest, PipelineProfileOfValidChain) {
  Graph G = pointwisePair();
  Profiler P(SystemConfig::dual());
  const double Ns = P.pipelineNs(G, G.topoOrder(), 2);
  EXPECT_GT(Ns, 0.0);
}

TEST(ProfilerTest, PipelineProfileOfImpossibleStageCount) {
  GraphBuilder B("tiny");
  ValueId X = B.input("x", TensorShape{1, 3, 3, 2});
  ValueId V = B.conv2d(X, 4, 1, 1, 0);
  V = B.dwConv(V, 3, 1, 1);
  B.output(V);
  Graph G = B.take();
  Profiler P(SystemConfig::dual());
  EXPECT_LT(P.pipelineNs(G, G.topoOrder(), 8), 0.0);
}
