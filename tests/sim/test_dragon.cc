/**
 * @file
 * Unit and property tests for the Dragon write-broadcast protocol.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cache/dragon_protocol.hh"
#include "sim/synth/rng.hh"

namespace swcc
{
namespace
{

constexpr Addr kBlockA = 0x8000'0000;
constexpr Addr kBlockB = 0x8000'0010;

CacheConfig
config()
{
    CacheConfig c;
    c.sizeBytes = 1024;
    c.blockBytes = 16;
    c.associativity = 2;
    return c;
}

LineState
stateOf(const DragonProtocol &protocol, CpuId cpu, Addr addr)
{
    const CacheLine *line = protocol.cache(cpu).find(addr);
    return line != nullptr ? line->state : LineState::Invalid;
}

std::vector<Operation>
opsOf(const AccessResult &result)
{
    return {result.ops.begin(), result.ops.begin() + result.numOps};
}

TEST(DragonTest, ColdReadMissInstallsExclusive)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Exclusive);
}

TEST(DragonTest, SecondReaderMakesBothSharedClean)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
    // Memory supplies (no dirty copy); processor 0 snoops the fill.
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedClean);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedClean);
}

TEST(DragonTest, WriteToExclusiveIsSilent)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(result.numOps, 0u);
    EXPECT_TRUE(result.steals.empty());
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
}

TEST(DragonTest, DirtyCopyIsSuppliedByTheOwningCache)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result); // Dirty in 0.
    protocol.access(1, RefType::Load, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissCache});
    // The owner keeps ownership as SharedDirty; the reader is clean.
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedDirty);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedClean);
}

TEST(DragonTest, WriteToSharedBroadcastsAndStealsCycles)
{
    DragonProtocol protocol(config(), 3);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
    protocol.access(2, RefType::Load, kBlockA, result);

    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteBroadcast});
    EXPECT_EQ(result.steals.size(), 2u);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedDirty);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedClean);
    EXPECT_EQ(stateOf(protocol, 2, kBlockA), LineState::SharedClean);
}

TEST(DragonTest, UpdateReachesEveryHolderBeyondSixtyFourCpus)
{
    // The snoop walk probes every other cache, so no processor count
    // caps it: at 68 CPUs, past any 64-bit holder mask, a broadcast
    // from the middle updates the 67 other copies in ascending order.
    constexpr CpuId kCpus = 68;
    constexpr CpuId kWriter = 40;
    DragonProtocol protocol(config(), kCpus);
    AccessResult result;
    for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
        protocol.access(cpu, RefType::Load, kBlockA, result);
    }

    protocol.access(kWriter, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteBroadcast});
    std::vector<CpuId> others;
    for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
        if (cpu != kWriter) {
            others.push_back(cpu);
            EXPECT_EQ(stateOf(protocol, cpu, kBlockA),
                      LineState::SharedClean)
                << unsigned{cpu};
        }
    }
    EXPECT_EQ(result.steals, others);
    EXPECT_EQ(stateOf(protocol, kWriter, kBlockA), LineState::SharedDirty);
}

TEST(DragonTest, OwnershipMovesToTheLatestWriter)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result); // 0 owns.
    protocol.access(1, RefType::Load, kBlockA, result);  // 0 Sd, 1 Sc.
    protocol.access(1, RefType::Store, kBlockA, result); // Broadcast.
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteBroadcast});
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedClean);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedDirty);
}

TEST(DragonTest, BroadcastToVanishedSharersUpgradesToDirty)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result); // Both Sc.

    // Evict the copy in cache 1 by filling its set (2-way).
    protocol.access(1, RefType::Load, kBlockA + 512, result);
    protocol.access(1, RefType::Load, kBlockA + 1024, result);
    ASSERT_EQ(stateOf(protocol, 1, kBlockA), LineState::Invalid);

    // Cache 0 still believes the block is shared, so it broadcasts —
    // and learns from the (unasserted) shared line that it is alone.
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteBroadcast});
    EXPECT_TRUE(result.steals.empty());
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
}

TEST(DragonTest, WriteMissFetchesThenBroadcasts)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              (std::vector<Operation>{Operation::CleanMissMem,
                                      Operation::WriteBroadcast}));
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedDirty);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedClean);
}

TEST(DragonTest, ColdWriteMissGoesStraightToDirty)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
}

TEST(DragonTest, EvictingTheOwnerWritesBack)
{
    DragonProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result); // Dirty.
    protocol.access(0, RefType::Load, kBlockA + 512, result);
    protocol.access(0, RefType::Load, kBlockA + 1024, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::DirtyMissMem});
}

TEST(DragonTest, FlushEventsAreIgnored)
{
    DragonProtocol protocol(config(), 1);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    protocol.access(0, RefType::Flush, kBlockA, result);
    EXPECT_EQ(result.numOps, 0u);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
}

TEST(DragonTest, MeasurementsCountSharingInteractions)
{
    const SharedClassifier everything = [](Addr) { return true; };
    DragonProtocol protocol(config(), 2, everything);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result); // Shared miss.
    protocol.access(1, RefType::Load, kBlockA, result);  // Dirty miss.
    protocol.access(1, RefType::Store, kBlockB, result); // Clean miss.
    protocol.access(1, RefType::Store, kBlockA, result); // Broadcast.

    const DragonMeasurements &m = protocol.measurements();
    EXPECT_EQ(m.sharedMisses, 3u);
    EXPECT_EQ(m.sharedMissesClean, 2u);
    EXPECT_NEAR(m.oclean(), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(m.sharedWrites, 3u);
    EXPECT_EQ(m.sharedWritesPresent, 1u);
    EXPECT_EQ(m.broadcasts, 1u);
    EXPECT_EQ(m.broadcastCopies, 1u);
    EXPECT_DOUBLE_EQ(m.nshd(), 1.0);

    // Cache 0's copy is SharedClean, but its only sharer goes: two
    // conflicting instruction fetches (unmeasured) evict cache 1's.
    // The store then broadcasts to no one: a shared write and a
    // broadcast, but no copy present, though the line state says
    // shared.
    protocol.access(1, RefType::IFetch, kBlockA + 512, result);
    protocol.access(1, RefType::IFetch, kBlockA + 1024, result);
    ASSERT_EQ(stateOf(protocol, 1, kBlockA), LineState::Invalid);
    ASSERT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedClean);
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(m.sharedMisses, 3u);
    EXPECT_EQ(m.sharedWrites, 4u);
    EXPECT_EQ(m.sharedWritesPresent, 1u);
    EXPECT_EQ(m.broadcasts, 2u);
    EXPECT_EQ(m.broadcastCopies, 1u);
    EXPECT_DOUBLE_EQ(m.opres(), 0.25);
    EXPECT_DOUBLE_EQ(m.nshd(), 0.5);
}

TEST(DragonMeasurementsTest, FallbacksWhenNothingObserved)
{
    const DragonMeasurements empty;
    EXPECT_DOUBLE_EQ(empty.oclean(0.84), 0.84);
    EXPECT_DOUBLE_EQ(empty.opres(0.79), 0.79);
    EXPECT_DOUBLE_EQ(empty.nshd(1.0), 1.0);
}

/** Randomised stress: the cross-cache invariants always hold. */
class DragonStressTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DragonStressTest, InvariantsHoldUnderRandomTraffic)
{
    DragonProtocol protocol(config(), 4);
    Rng rng(GetParam());
    AccessResult result;
    for (int i = 0; i < 20'000; ++i) {
        const CpuId cpu = static_cast<CpuId>(rng.below(4));
        const Addr addr = kBlockA + 16 * rng.below(24);
        const RefType type = rng.chance(0.35) ? RefType::Store
                                              : RefType::Load;
        protocol.access(cpu, type, addr, result);
        if (i % 500 == 0) {
            ASSERT_NO_THROW(checkCoherenceInvariants(protocol));
        }
    }
    EXPECT_NO_THROW(checkCoherenceInvariants(protocol));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DragonStressTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

} // namespace
} // namespace swcc
