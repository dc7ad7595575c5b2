/**
 * @file
 * Golden statistics of the network simulators.
 *
 * The omega and packet simulators are pinned bit for bit. A grid of
 * configurations runs once each; every field of every stats struct is
 * folded into one FNV-1a digest per simulator and compared with a
 * literal. A few configurations also carry literal per-field
 * expectations, so a failure names the field that moved. A change to
 * the RNG draw order, the cycle order or the counting rules moves
 * these numbers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/campaign/cell_hash.hh"
#include "sim/net/omega_network.hh"
#include "sim/net/packet_network.hh"

namespace swcc
{
namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

template <typename T>
void
mix(std::uint64_t &hash, const T &value)
{
    hash = campaign::fnv1a64(&value, sizeof value, hash);
}

void
mix(std::uint64_t &hash, const OmegaStats &stats)
{
    mix(hash, stats.cycles);
    mix(hash, stats.attempts);
    mix(hash, stats.accepted);
    mix(hash, stats.transactions);
    mix(hash, stats.stageLoads.size());
    for (double load : stats.stageLoads) {
        mix(hash, load);
    }
    mix(hash, stats.computeFraction);
    mix(hash, stats.acceptance);
    mix(hash, stats.throughputPerPort);
}

void
mix(std::uint64_t &hash, const PacketNetStats &stats)
{
    mix(hash, stats.cycles);
    mix(hash, stats.transactions);
    mix(hash, stats.computeFraction);
    mix(hash, stats.meanLatency);
    mix(hash, stats.linkLoad);
    mix(hash, static_cast<std::uint64_t>(stats.maxQueueDepth));
    mix(hash, stats.backpressureStalls);
}

constexpr double kThinks[] = {0.0, 0.5, 1.0, 7.0, 40.0, 200.0};

OmegaConfig
omegaConfig(unsigned dim, unsigned stages, double think, double message,
            NetMode mode, std::uint64_t seed)
{
    OmegaConfig config;
    config.switchDim = dim;
    config.stages = stages;
    config.meanThink = think;
    config.messageCycles = message;
    config.mode = mode;
    config.seed = seed;
    return config;
}

PacketNetConfig
packetConfig(unsigned stages, double think, unsigned request,
             unsigned response, unsigned buffer, unsigned memory)
{
    PacketNetConfig config;
    config.stages = stages;
    config.meanThink = think;
    config.requestWords = request;
    config.responseWords = response;
    config.bufferWords = buffer;
    config.memoryCycles = memory;
    config.seed = 5;
    return config;
}

TEST(NetGoldenTest, OmegaGridDigest)
{
    std::uint64_t hash = kFnvOffset;
    std::size_t configs = 0;
    for (unsigned dim : {2u, 3u, 4u}) {
        std::vector<unsigned> stages = {1, 2, 3, 4};
        if (dim == 2) {
            stages.push_back(6);
        }
        for (unsigned n : stages) {
            for (double think : kThinks) {
                for (double message : {1.0, 2.5, 12.0}) {
                    for (NetMode mode : {NetMode::UnitRequest,
                                         NetMode::Circuit}) {
                        for (std::uint64_t seed : {1u, 2u}) {
                            OmegaNetwork network(omegaConfig(
                                dim, n, think, message, mode, seed));
                            mix(hash, network.run(400));
                            ++configs;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(configs, 936u);
    EXPECT_EQ(hash, 0xb454cb80000293afull);
}

TEST(NetGoldenTest, OmegaDeepNetworkDigest)
{
    // Binary networks of 128 and 256 ports at X1's rates: the heavy
    // contention the grid above does not reach.
    std::uint64_t hash = kFnvOffset;
    std::size_t configs = 0;
    for (unsigned n : {7u, 8u}) {
        for (double rate : {0.005, 0.01, 0.02, 0.04, 0.08}) {
            for (NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
                OmegaNetwork network(omegaConfig(
                    2, n, 1.0 / rate, n == 7 ? 18.0 : 20.0, mode, 42));
                mix(hash, network.run(4'000));
                ++configs;
            }
        }
    }
    EXPECT_EQ(configs, 20u);
    EXPECT_EQ(hash, 0xad4b0199d8385310ull);
}

TEST(NetGoldenTest, OmegaLargestNetworkDigest)
{
    // The largest network of each switch dimension up to 2^16 ports,
    // saturated, for a few cycles.
    std::uint64_t hash = kFnvOffset;
    std::size_t configs = 0;
    for (const auto &[dim, n] :
         {std::pair{2u, 16u}, std::pair{3u, 10u}, std::pair{4u, 8u},
          std::pair{16u, 4u}, std::pair{256u, 2u},
          std::pair{65'536u, 1u}}) {
        for (NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
            OmegaNetwork network(omegaConfig(dim, n, 0.0, 3.0, mode, 9));
            mix(hash, network.run(5));
            ++configs;
        }
    }
    EXPECT_EQ(configs, 12u);
    EXPECT_EQ(hash, 0xd6d8735e4e93a014ull);
}

TEST(NetGoldenTest, OmegaSplitRunUnderContention)
{
    // run(a); run(b) is run(a + b) at 256 ports under contention,
    // including splits inside a busy stretch.
    std::uint64_t hash = kFnvOffset;
    for (NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
        for (double think : {12.5, 50.0}) {
            const OmegaConfig config =
                omegaConfig(2, 8, think, 20.0, mode, 11);
            OmegaNetwork split(config);
            split.run(1);
            split.run(1'236);
            const OmegaStats second = split.run(1'763);
            const OmegaStats whole = OmegaNetwork(config).run(3'000);
            std::uint64_t split_hash = kFnvOffset;
            std::uint64_t whole_hash = kFnvOffset;
            mix(split_hash, second);
            mix(whole_hash, whole);
            EXPECT_EQ(split_hash, whole_hash)
                << "think " << think << " circuit "
                << (mode == NetMode::Circuit);
            mix(hash, whole);
        }
    }
    EXPECT_EQ(hash, 0xa265e04350c79183ull);
}

TEST(NetGoldenTest, PacketGridDigest)
{
    std::uint64_t hash = kFnvOffset;
    std::size_t configs = 0;
    for (unsigned stages : {1u, 2u, 4u, 6u}) {
        for (double think : kThinks) {
            for (unsigned request : {1u, 2u}) {
                for (unsigned response : {0u, 1u, 4u}) {
                    for (unsigned buffer : {0u, 1u, 3u}) {
                        for (unsigned memory : {0u, 2u}) {
                            PacketOmegaNetwork network(packetConfig(
                                stages, think, request, response,
                                buffer, memory));
                            mix(hash, network.run(400));
                            ++configs;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(configs, 864u);
    EXPECT_EQ(hash, 0x92de9bf9b7cfe1a1ull);
}

struct OmegaGolden
{
    std::uint64_t attempts;
    std::uint64_t accepted;
    std::uint64_t transactions;
    double computeFraction;
    double acceptance;
    double throughputPerPort;
    std::vector<double> stageLoads;
};

void
expectOmega(const OmegaConfig &config, const OmegaGolden &golden)
{
    OmegaNetwork network(config);
    const OmegaStats stats = network.run(3'000);
    EXPECT_EQ(stats.cycles, 3'000u);
    EXPECT_EQ(stats.attempts, golden.attempts);
    EXPECT_EQ(stats.accepted, golden.accepted);
    EXPECT_EQ(stats.transactions, golden.transactions);
    EXPECT_EQ(stats.computeFraction, golden.computeFraction);
    EXPECT_EQ(stats.acceptance, golden.acceptance);
    EXPECT_EQ(stats.throughputPerPort, golden.throughputPerPort);
    ASSERT_EQ(stats.stageLoads.size(), golden.stageLoads.size());
    for (std::size_t i = 0; i < golden.stageLoads.size(); ++i) {
        EXPECT_EQ(stats.stageLoads[i], golden.stageLoads[i])
            << "stage " << i;
    }
}

struct PacketGolden
{
    std::uint64_t transactions;
    double computeFraction;
    double meanLatency;
    double linkLoad;
    std::size_t maxQueueDepth;
    std::uint64_t backpressureStalls;
};

void
expectPacket(const PacketNetConfig &config, const PacketGolden &golden)
{
    PacketOmegaNetwork network(config);
    const PacketNetStats stats = network.run(3'000);
    EXPECT_EQ(stats.cycles, 3'000u);
    EXPECT_EQ(stats.transactions, golden.transactions);
    EXPECT_EQ(stats.computeFraction, golden.computeFraction);
    EXPECT_EQ(stats.meanLatency, golden.meanLatency);
    EXPECT_EQ(stats.linkLoad, golden.linkLoad);
    EXPECT_EQ(stats.maxQueueDepth, golden.maxQueueDepth);
    EXPECT_EQ(stats.backpressureStalls, golden.backpressureStalls);
}

TEST(NetGoldenTest, OmegaUnitRequestFields)
{
    expectOmega(omegaConfig(2, 4, 7.0, 12.0, NetMode::UnitRequest, 1),
                {38'793, 16'553, 1'374, 0x1.88d4fdf3b645ap-3,
                 0x1.b4f106cdbf65p-2, 0x1.6121735ee402cp-2,
                 {0x1.9dcac083126e9p-1, 0x1.28da740da740ep-1,
                  0x1.d6f9db22d0e56p-2, 0x1.90bf258bf258cp-2,
                  0x1.6121735ee402cp-2}});
}

TEST(NetGoldenTest, OmegaCircuitFields)
{
    expectOmega(omegaConfig(2, 6, 40.0, 2.5, NetMode::Circuit, 3),
                {6'459, 4'498, 4'494, 0x1.d6cd7b900aec3p-1,
                 0x1.648d9329d0849p-1, 0x1.7fd44f3078264p-6,
                 {0x1.1395810624dd3p-5, 0x1.020c49ba5e354p-5,
                  0x1.e3ece2a53490cp-6, 0x1.c7c3ece2a5349p-6,
                  0x1.af87d9c54a692p-6, 0x1.9513cc1e098ebp-6,
                  0x1.7fd44f3078264p-6}});
}

TEST(NetGoldenTest, OmegaWideSwitchFields)
{
    expectOmega(omegaConfig(4, 3, 20.0, 10.0, NetMode::Circuit, 19),
                {33'829, 5'517, 5'496, 0x1.21ae147ae147bp-1,
                 0x1.4dff7864127ebp-3, 0x1.d6c8b43958106p-6,
                 {0x1.68d7b900aec34p-3, 0x1.c25e353f7ced9p-4,
                  0x1.fc3ece2a53491p-5, 0x1.d6c8b43958106p-6}});
}

TEST(NetGoldenTest, PacketUnboundedFields)
{
    expectPacket(packetConfig(4, 10.0, 1, 4, 0, 2),
                 {1'957, 0x1.b8369d0369d03p-2, 0x1.de014ee142527p+3,
                  0x1.4e9a485cd7b9p-3, 5, 0});
}

TEST(NetGoldenTest, PacketBufferedFields)
{
    expectPacket(packetConfig(6, 7.0, 2, 4, 2, 2),
                 {7'180, 0x1.06e978d4fdf3bp-2, 0x1.4d09d7360d68p+4,
                  0x1.32c928bb817aap-3, 2, 5'386});
}

TEST(NetGoldenTest, PacketPostedFields)
{
    expectPacket(packetConfig(5, 0.5, 2, 0, 1, 0),
                 {16'696, 0x1.64b17e4b17e4bp-3, 0x1.2f54452ebc2abp+2,
                  0x1.63c131d5acb6fp-2, 1, 102'335});
}

} // namespace
} // namespace swcc
