#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "hw/network.h"

namespace calculon {
namespace {

Network MakeNet(bool in_network = false, Seconds latency = Seconds(0.0)) {
  return Network(8, GBps(100), latency, EfficiencyCurve(1.0), in_network,
                 /*processor_fraction=*/0.15);
}

TEST(Network, SingleMemberCommunicatesForFree) {
  const Network n = MakeNet();
  for (auto op : {Collective::kAllReduce, Collective::kAllGather,
                  Collective::kReduceScatter, Collective::kBroadcast,
                  Collective::kPointToPoint}) {
    EXPECT_DOUBLE_EQ(n.CollectiveTime(op, 1, GB(1)).raw(), 0.0);
    EXPECT_DOUBLE_EQ(n.LinkBytes(op, 1, GB(1)).raw(), 0.0);
  }
}

TEST(Network, RingAllReduceMovesTwiceTheShare) {
  const Network n = MakeNet();
  const double bytes = 8e9;
  // 2 * (n-1)/n * S at 100 GB/s.
  EXPECT_DOUBLE_EQ(n.LinkBytes(Collective::kAllReduce, 8, Bytes(bytes)).raw(),
                   2.0 * 7.0 / 8.0 * bytes);
  EXPECT_DOUBLE_EQ(
      n.CollectiveTime(Collective::kAllReduce, 8, Bytes(bytes)).raw(),
      2.0 * 7.0 / 8.0 * bytes / 100e9);
}

TEST(Network, AllReduceEqualsReduceScatterPlusAllGather) {
  const Network n = MakeNet();
  const Bytes bytes(3e8);
  for (std::int64_t members : {2, 4, 8}) {
    EXPECT_NEAR(
        n.CollectiveTime(Collective::kAllReduce, members, bytes).raw(),
        (n.CollectiveTime(Collective::kReduceScatter, members, bytes) +
         n.CollectiveTime(Collective::kAllGather, members, bytes))
            .raw(),
        1e-12);
  }
}

TEST(Network, InNetworkCollectivesSendPayloadOnce) {
  const Network plain = MakeNet(false);
  const Network sharp = MakeNet(true);
  const Bytes bytes(1e9);
  EXPECT_DOUBLE_EQ(sharp.LinkBytes(Collective::kAllReduce, 8, bytes).raw(),
                   bytes.raw());
  EXPECT_LT(sharp.CollectiveTime(Collective::kAllReduce, 8, bytes),
            plain.CollectiveTime(Collective::kAllReduce, 8, bytes));
  // Other collectives are unaffected.
  EXPECT_DOUBLE_EQ(
      sharp.CollectiveTime(Collective::kAllGather, 8, bytes).raw(),
      plain.CollectiveTime(Collective::kAllGather, 8, bytes).raw());
}

TEST(Network, LatencyScalesWithRingSteps) {
  const Network n = MakeNet(false, /*latency=*/Seconds(1e-6));
  // Ring all-reduce pays 2(n-1) latency hops on a zero-size-ish payload.
  const Seconds t8 = n.CollectiveTime(Collective::kAllReduce, 8, Bytes(1.0));
  const Seconds t2 = n.CollectiveTime(Collective::kAllReduce, 2, Bytes(1.0));
  EXPECT_NEAR((t8 - t2).raw(), (14 - 2) * 1e-6, 1e-10);
  EXPECT_NEAR(n.CollectiveTime(Collective::kPointToPoint, 2, Bytes(1.0)).raw(),
              1e-6, 1e-10);
}

TEST(Network, P2PMovesFullPayload) {
  const Network n = MakeNet();
  EXPECT_DOUBLE_EQ(
      n.CollectiveTime(Collective::kPointToPoint, 2, Bytes(100e9)).raw(),
      1.0);
}

TEST(Network, BroadcastUsesLogSteps) {
  const Network n = MakeNet(false, Seconds(1e-6));
  EXPECT_NEAR(n.CollectiveTime(Collective::kBroadcast, 8, Bytes(1.0)).raw(),
              3e-6, 1e-9);
}

TEST(Network, EfficiencyCurveAppliesToLinkBytes) {
  const Network n(8, GBps(100), Seconds(0.0),
                  EfficiencyCurve({{1e6, 0.5}, {1e9, 1.0}}), false, 0.0);
  // At or below the first curve point: half bandwidth.
  EXPECT_NEAR(n.CollectiveTime(Collective::kPointToPoint, 2, Bytes(1e6)).raw(),
              1e6 / 50e9, 1e-12);
  // Large messages reach full bandwidth.
  EXPECT_NEAR(
      n.CollectiveTime(Collective::kPointToPoint, 2, Bytes(1e10)).raw(),
      1e10 / 100e9, 1e-9);
}

TEST(Network, WithSizePreservesEverythingElse) {
  const Network n = MakeNet(true, Seconds(2e-6));
  const Network big = n.WithSize(4096);
  EXPECT_EQ(big.size(), 4096);
  EXPECT_DOUBLE_EQ(big.bandwidth().raw(), n.bandwidth().raw());
  EXPECT_DOUBLE_EQ(big.latency().raw(), n.latency().raw());
  EXPECT_EQ(big.in_network_collectives(), n.in_network_collectives());
  EXPECT_DOUBLE_EQ(big.processor_fraction(), n.processor_fraction());
}

TEST(Network, RejectsBadParameters) {
  EXPECT_THROW(Network(0, BytesPerSecond(1.0), Seconds(0.0)), ConfigError);
  EXPECT_THROW(Network(1, BytesPerSecond(-1.0), Seconds(0.0)), ConfigError);
  EXPECT_THROW(Network(1, BytesPerSecond(1.0), Seconds(-1.0)), ConfigError);
  EXPECT_THROW(Network(1, BytesPerSecond(1.0), Seconds(0.0),
                       EfficiencyCurve(1.0), false, 1.5),
               ConfigError);
  EXPECT_THROW(MakeNet().WithSize(0), ConfigError);
}

TEST(Network, JsonRoundTrip) {
  const Network n(512, GBps(25), Seconds(5e-6),
                  EfficiencyCurve({{0.0, 0.3}, {1e8, 0.9}}), true, 0.02);
  const Network back = Network::FromJson(n.ToJson());
  EXPECT_EQ(back.size(), n.size());
  EXPECT_DOUBLE_EQ(back.bandwidth().raw(), n.bandwidth().raw());
  EXPECT_DOUBLE_EQ(back.latency().raw(), n.latency().raw());
  EXPECT_EQ(back.in_network_collectives(), n.in_network_collectives());
  EXPECT_DOUBLE_EQ(back.processor_fraction(), n.processor_fraction());
  EXPECT_DOUBLE_EQ(
      back.CollectiveTime(Collective::kAllReduce, 16, Bytes(1e7)).raw(),
      n.CollectiveTime(Collective::kAllReduce, 16, Bytes(1e7)).raw());
}

// Property: collective time grows with both payload and member count (fixed
// latency-free network).
struct CollectiveCase {
  Collective op;
  std::int64_t members;
};

// Test names carry the printed parameter; the default byte dump would
// include the uninitialised padding after `op`.
void PrintTo(const CollectiveCase& c, std::ostream* os) {
  *os << ToString(c.op) << '_' << c.members;
}

class NetworkGrowthTest : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(NetworkGrowthTest, TimeMonotoneInPayload) {
  const Network n = MakeNet();
  const auto [op, members] = GetParam();
  Seconds prev;
  for (double bytes = 1e3; bytes <= 1e12; bytes *= 10.0) {
    const Seconds t = n.CollectiveTime(op, members, Bytes(bytes));
    EXPECT_GT(t, prev);
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, NetworkGrowthTest,
    ::testing::Values(CollectiveCase{Collective::kAllReduce, 2},
                      CollectiveCase{Collective::kAllReduce, 8},
                      CollectiveCase{Collective::kAllGather, 8},
                      CollectiveCase{Collective::kReduceScatter, 4},
                      CollectiveCase{Collective::kBroadcast, 8},
                      CollectiveCase{Collective::kPointToPoint, 2}));

}  // namespace
}  // namespace calculon
