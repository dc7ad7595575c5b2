/**
 * @file
 * Unit and validation tests for the buffered packet-switched omega
 * network simulator.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/net/net_experiment.hh"
#include "sim/net/packet_network.hh"

namespace swcc
{
namespace
{

PacketNetConfig
config(unsigned stages, double think, unsigned req, unsigned resp,
       std::uint64_t seed = 1)
{
    PacketNetConfig c;
    c.stages = stages;
    c.meanThink = think;
    c.requestWords = req;
    c.responseWords = resp;
    c.seed = seed;
    return c;
}

TEST(PacketNetConfigTest, Validation)
{
    EXPECT_NO_THROW(config(4, 10.0, 1, 4).validate());
    EXPECT_THROW(config(0, 10.0, 1, 4).validate(),
                 std::invalid_argument);
    EXPECT_THROW(config(15, 10.0, 1, 4).validate(),
                 std::invalid_argument);
    EXPECT_THROW(config(4, -1.0, 1, 4).validate(),
                 std::invalid_argument);
    EXPECT_THROW(config(4, 10.0, 0, 4).validate(),
                 std::invalid_argument);
}

TEST(PacketNetworkTest, RunsAndCompletesTransactions)
{
    PacketOmegaNetwork network(config(4, 30.0, 1, 4));
    const PacketNetStats stats = network.run(20'000);
    EXPECT_EQ(stats.cycles, 20'000u);
    EXPECT_GT(stats.transactions, 1'000u);
    EXPECT_GT(stats.computeFraction, 0.0);
    EXPECT_LT(stats.computeFraction, 1.0);
    EXPECT_GT(stats.meanLatency, 2.0 * 4.0); // At least the transit.
    EXPECT_GT(stats.maxQueueDepth, 0u);
}

TEST(PacketNetworkTest, DeterministicPerSeed)
{
    PacketOmegaNetwork a(config(4, 20.0, 1, 4, 7));
    PacketOmegaNetwork b(config(4, 20.0, 1, 4, 7));
    const PacketNetStats sa = a.run(5'000);
    const PacketNetStats sb = b.run(5'000);
    EXPECT_EQ(sa.transactions, sb.transactions);
    EXPECT_DOUBLE_EQ(sa.meanLatency, sb.meanLatency);
}

TEST(PacketNetworkTest, RunsContinueOneSimulation)
{
    // Stats describe the whole simulation so far: run(a); run(b) is a
    // fresh run(a + b), field for field.
    const PacketNetConfig c = config(4, 10.0, 1, 4, 11);
    PacketOmegaNetwork split(c);
    split.run(1'500);
    const PacketNetStats second = split.run(700);
    const PacketNetStats whole = PacketOmegaNetwork(c).run(2'200);

    EXPECT_EQ(second.cycles, 2'200u);
    EXPECT_EQ(second.cycles, whole.cycles);
    EXPECT_EQ(second.transactions, whole.transactions);
    EXPECT_EQ(second.computeFraction, whole.computeFraction);
    EXPECT_EQ(second.meanLatency, whole.meanLatency);
    EXPECT_EQ(second.linkLoad, whole.linkLoad);
    EXPECT_EQ(second.maxQueueDepth, whole.maxQueueDepth);
    EXPECT_EQ(second.backpressureStalls, whole.backpressureStalls);
    EXPECT_LE(second.linkLoad, 1.0);
}

TEST(PacketNetworkTest, LargestValidNetworkRuns)
{
    // 14 stages, the most validate() accepts: 16384 ports. Memories
    // keep no per-requester word counts, which would take 1 GiB here.
    PacketOmegaNetwork network(config(14, 200.0, 2, 4, 3));
    EXPECT_EQ(network.ports(), 16'384u);
    const PacketNetStats stats = network.run(200);
    EXPECT_EQ(stats.cycles, 200u);
    EXPECT_GT(stats.transactions, 0u);
    EXPECT_GT(stats.linkLoad, 0.0);
}

TEST(PacketNetworkTest, UncontendedLatencyMatchesTransitTime)
{
    // One lonely transaction at a time: latency ~ 2n + mem + resp - 1
    // (+ small accounting constants).
    PacketOmegaNetwork network(config(4, 5'000.0, 1, 4, 3));
    const PacketNetStats stats = network.run(200'000);
    ASSERT_GT(stats.transactions, 100u);
    const double ideal = 2.0 * 4.0 + 2.0 + 3.0;
    EXPECT_NEAR(stats.meanLatency, ideal, 2.5);
}

TEST(PacketNetworkTest, LoadAndBlockingGrowAsThinkShrinks)
{
    const PacketNetStats light =
        PacketOmegaNetwork(config(4, 200.0, 1, 4)).run(30'000);
    const PacketNetStats heavy =
        PacketOmegaNetwork(config(4, 10.0, 1, 4)).run(30'000);
    EXPECT_GT(heavy.linkLoad, light.linkLoad);
    EXPECT_LT(heavy.computeFraction, light.computeFraction);
    EXPECT_GT(heavy.meanLatency, light.meanLatency);
}

TEST(PacketNetworkTest, NoPacketLoss)
{
    // Buffered network: throughput equals offered load below
    // saturation. Transactions * words must equal delivered words;
    // verify indirectly through link-load conservation: measured load
    // ~= transactions * max(req, resp) / (cycles * ports).
    PacketNetConfig c = config(5, 40.0, 1, 4, 11);
    PacketOmegaNetwork network(c);
    const PacketNetStats stats = network.run(60'000);
    const double expected_load =
        static_cast<double>(stats.transactions) * 4.0 /
        (static_cast<double>(stats.cycles) * 32.0);
    EXPECT_NEAR(stats.linkLoad, expected_load, 0.01);
}

TEST(PacketNetworkTest, PostedTransactionsNeverBlockOnResponses)
{
    PacketOmegaNetwork network(config(4, 20.0, 2, 0, 5));
    const PacketNetStats stats = network.run(20'000);
    EXPECT_GT(stats.transactions, 5'000u);
    // Sources only spend the 2 injection cycles blocked.
    EXPECT_NEAR(stats.computeFraction,
                20.0 / 22.0, 0.05);
    EXPECT_NEAR(stats.meanLatency, 2.0, 0.1);
}

TEST(PacketNetworkTest, UnboundedBuffersNeverBackpressure)
{
    PacketOmegaNetwork network(config(4, 15.0, 1, 4, 3));
    const PacketNetStats stats = network.run(20'000);
    EXPECT_EQ(stats.backpressureStalls, 0u);
}

TEST(PacketNetworkTest, FiniteBuffersBoundQueueDepth)
{
    PacketNetConfig bounded = config(4, 12.0, 1, 4, 3);
    bounded.bufferWords = 2;
    PacketOmegaNetwork network(bounded);
    const PacketNetStats stats = network.run(30'000);
    EXPECT_LE(stats.maxQueueDepth, 2u);
    EXPECT_GT(stats.backpressureStalls, 0u);
    EXPECT_GT(stats.transactions, 1'000u);
}

TEST(PacketNetworkTest, TightBuffersCostThroughput)
{
    PacketNetConfig roomy = config(5, 10.0, 1, 4, 9);
    PacketNetConfig tight = roomy;
    tight.bufferWords = 1;
    const PacketNetStats free_flow =
        PacketOmegaNetwork(roomy).run(40'000);
    const PacketNetStats squeezed =
        PacketOmegaNetwork(tight).run(40'000);
    EXPECT_LT(squeezed.transactions, free_flow.transactions);
    EXPECT_LT(squeezed.computeFraction, free_flow.computeFraction);
}

TEST(PacketNetworkTest, ModestBuffersRecoverUnboundedThroughput)
{
    // A few words of buffering per port suffice at moderate load —
    // the Kruskal-Snir infinite-buffer model remains usable for real
    // (finite) switches.
    PacketNetConfig unbounded = config(4, 25.0, 1, 4, 5);
    PacketNetConfig eight = unbounded;
    eight.bufferWords = 8;
    const PacketNetStats a = PacketOmegaNetwork(unbounded).run(40'000);
    const PacketNetStats b = PacketOmegaNetwork(eight).run(40'000);
    EXPECT_NEAR(static_cast<double>(b.transactions),
                static_cast<double>(a.transactions),
                0.02 * static_cast<double>(a.transactions));
}

/** Model-vs-simulation across loads (the X3 validation, as tests). */
class PacketValidationTest : public ::testing::TestWithParam<double>
{
};

TEST_P(PacketValidationTest, KruskalSnirModelTracksTheSimulator)
{
    const PacketValidationPoint point =
        validatePacketPoint(GetParam(), 1, 4, 6, 120'000, 13);
    EXPECT_LT(std::abs(point.computeErrorPercent()), 6.0)
        << "think=" << GetParam() << " sim=" << point.simCompute
        << " model=" << point.modelCompute;
    EXPECT_NEAR(point.simLinkLoad, point.modelLinkLoad, 0.02);
    // The model's latency omits injection/ejection accounting (~1-2
    // cycles); require agreement within 15%.
    EXPECT_NEAR(point.simLatency, point.modelLatency,
                0.15 * point.simLatency);
}

INSTANTIATE_TEST_SUITE_P(Loads, PacketValidationTest,
                         ::testing::Values(100.0, 50.0, 30.0, 20.0,
                                           15.0));

} // namespace
} // namespace swcc
