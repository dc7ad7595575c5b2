/**
 * @file
 * Unit tests for the Base, No-Cache and Software-Flush protocols, the
 * snoop walk every snooping protocol shares, and the cross-cache
 * invariant checker.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cache/base_protocol.hh"
#include "sim/cache/nocache_protocol.hh"
#include "sim/cache/swflush_protocol.hh"

namespace swcc
{
namespace
{

constexpr Addr kShared = 0x8000'0000;
constexpr Addr kPrivate = 0x4000'0000;

CacheConfig
config()
{
    CacheConfig c;
    c.sizeBytes = 1024;
    c.blockBytes = 16;
    c.associativity = 2;
    return c;
}

SharedClassifier
classifier()
{
    return [](Addr block) { return block >= kShared; };
}

std::vector<Operation>
opsOf(const AccessResult &result)
{
    return {result.ops.begin(), result.ops.begin() + result.numOps};
}

TEST(BaseProtocolTest, ColdMissThenHit)
{
    BaseProtocol protocol(config(), 1);
    AccessResult result;

    protocol.access(0, RefType::Load, kPrivate, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});

    protocol.access(0, RefType::Load, kPrivate + 4, result);
    EXPECT_EQ(result.numOps, 0u);
}

TEST(BaseProtocolTest, StoreDirtiesAndEvictionWritesBack)
{
    BaseProtocol protocol(config(), 1);
    AccessResult result;

    protocol.access(0, RefType::Store, kPrivate, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
    EXPECT_EQ(protocol.cache(0).find(kPrivate)->state, LineState::Dirty);

    // Two more blocks in the same set evict the dirty one (2-way).
    protocol.access(0, RefType::Load, kPrivate + 512, result);
    protocol.access(0, RefType::Load, kPrivate + 1024, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::DirtyMissMem});
}

TEST(BaseProtocolTest, IgnoresFlushes)
{
    BaseProtocol protocol(config(), 1);
    AccessResult result;
    protocol.access(0, RefType::Store, kShared, result);
    protocol.access(0, RefType::Flush, kShared, result);
    EXPECT_EQ(result.numOps, 0u);
    EXPECT_NE(protocol.cache(0).find(kShared), nullptr);
}

TEST(BaseProtocolTest, CachesAreFullyPrivate)
{
    BaseProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kShared, result);
    // Processor 1 misses even though processor 0 has the block dirty;
    // Base performs no coherence actions (and is thus incorrect but
    // fast, as the paper intends).
    protocol.access(1, RefType::Load, kShared, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
    EXPECT_EQ(protocol.cache(0).find(kShared)->state, LineState::Dirty);
}

TEST(NoCacheProtocolTest, SharedReferencesBypassTheCache)
{
    NoCacheProtocol protocol(config(), 1, classifier());
    AccessResult result;

    protocol.access(0, RefType::Load, kShared, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::ReadThrough});
    EXPECT_EQ(protocol.cache(0).find(kShared), nullptr);

    protocol.access(0, RefType::Store, kShared, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteThrough});
    EXPECT_EQ(protocol.cache(0).validLines(), 0u);
}

TEST(NoCacheProtocolTest, PrivateDataIsCachedNormally)
{
    NoCacheProtocol protocol(config(), 1, classifier());
    AccessResult result;
    protocol.access(0, RefType::Load, kPrivate, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
    protocol.access(0, RefType::Load, kPrivate, result);
    EXPECT_EQ(result.numOps, 0u);
}

TEST(NoCacheProtocolTest, InstructionsAreCachedEvenInSharedRange)
{
    // Only data references bypass; instruction fetches always cache.
    NoCacheProtocol protocol(config(), 1, classifier());
    AccessResult result;
    protocol.access(0, RefType::IFetch, kShared, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
}

TEST(NoCacheProtocolTest, RequiresClassifier)
{
    EXPECT_THROW(NoCacheProtocol(config(), 1, nullptr),
                 std::invalid_argument);
}

TEST(SwFlushProtocolTest, FlushInvalidatesCleanBlockCheaply)
{
    SwFlushProtocol protocol(config(), 1);
    AccessResult result;
    protocol.access(0, RefType::Load, kShared, result);
    protocol.access(0, RefType::Flush, kShared, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanFlush});
    EXPECT_EQ(protocol.cache(0).find(kShared), nullptr);
    EXPECT_EQ(protocol.measurements().flushes, 1u);
    EXPECT_EQ(protocol.measurements().dirtyFlushes, 0u);
}

TEST(SwFlushProtocolTest, FlushWritesBackDirtyBlock)
{
    SwFlushProtocol protocol(config(), 1);
    AccessResult result;
    protocol.access(0, RefType::Store, kShared, result);
    protocol.access(0, RefType::Flush, kShared, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::DirtyFlush});
    EXPECT_EQ(protocol.measurements().dirtyFlushes, 1u);
}

TEST(SwFlushProtocolTest, FlushOfAbsentBlockStillExecutes)
{
    SwFlushProtocol protocol(config(), 1);
    AccessResult result;
    protocol.access(0, RefType::Flush, kShared, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanFlush});
    EXPECT_EQ(protocol.measurements().missedFlushes, 1u);
}

TEST(SwFlushProtocolTest, RefetchAfterFlushMissesCleanly)
{
    SwFlushProtocol protocol(config(), 1);
    AccessResult result;
    protocol.access(0, RefType::Store, kShared, result);
    protocol.access(0, RefType::Flush, kShared, result);
    // The refetch is a clean miss: the flush freed the frame (the
    // model's Table 5 approximation, exact here).
    protocol.access(0, RefType::Load, kShared, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
}

TEST(ProtocolBaseTest, RejectsZeroCpus)
{
    EXPECT_THROW(BaseProtocol(config(), 0), std::invalid_argument);
}

/**
 * A protocol whose lines are planted directly, to drive the snoop walk
 * and the invariant checker without an access sequence.
 */
class PlantedProtocol : public CoherenceProtocol
{
  public:
    using CoherenceProtocol::CoherenceProtocol;

    void
    access(CpuId, RefType, Addr, AccessResult &) override
    {
        throw std::logic_error("a planted protocol takes no accesses");
    }

    Scheme scheme() const override { return Scheme::Base; }

    /** Installs @p addr's block in @p cpu's cache in @p state. */
    CacheLine &
    plant(CpuId cpu, Addr addr, LineState state)
    {
        Cache &cache = caches_[cpu];
        CacheLine &line = cache.victimFor(addr);
        cache.fill(line, addr, state);
        return line;
    }

    /** Invalidates @p line of @p cpu's cache. */
    void drop(CpuId cpu, CacheLine &line) { caches_[cpu].invalidate(line); }

    /** The processors the snoop walk visits for @p cpu and @p block. */
    std::vector<CpuId>
    walk(CpuId cpu, Addr block)
    {
        std::vector<CpuId> visited;
        forEachOtherHolder(cpu, block, [&](CpuId other, CacheLine &line) {
            EXPECT_EQ(line.blockAddr, block) << unsigned{other};
            visited.push_back(other);
        });
        return visited;
    }
};

/** The checker's complaint about @p protocol, or "" when it holds. */
std::string
violation(const PlantedProtocol &protocol)
{
    try {
        checkCoherenceInvariants(protocol);
    } catch (const std::logic_error &error) {
        return error.what();
    }
    return "";
}

TEST(SnoopWalkTest, VisitsOtherHoldersInAscendingCpuOrder)
{
    // 32 sets of 2 ways: kShared + 512 and + 1024 share kShared's set.
    PlantedProtocol protocol(config(), 8);
    for (const CpuId cpu : {CpuId{6}, CpuId{1}, CpuId{4}, CpuId{0}}) {
        protocol.plant(cpu, kShared, LineState::SharedClean);
    }
    // A copy invalidated in place, and a set holding other blocks.
    protocol.drop(3, protocol.plant(3, kShared, LineState::SharedClean));
    protocol.plant(2, kShared + 512, LineState::Dirty);
    protocol.plant(2, kShared + 1024, LineState::Exclusive);

    EXPECT_EQ(protocol.walk(4, kShared), (std::vector<CpuId>{0, 1, 6}));
    EXPECT_EQ(protocol.walk(7, kShared),
              (std::vector<CpuId>{0, 1, 4, 6}));
    EXPECT_EQ(protocol.walk(2, kShared + 512), std::vector<CpuId>{});
    EXPECT_EQ(protocol.walk(0, kShared + 512), std::vector<CpuId>{2});
}

TEST(CoherenceInvariantsTest, AcceptsSharedCopiesBesideOneOwner)
{
    PlantedProtocol protocol(config(), 4);
    protocol.plant(0, kShared, LineState::SharedDirty);
    protocol.plant(1, kShared, LineState::SharedClean);
    protocol.plant(2, kShared, LineState::SharedClean);
    protocol.plant(3, kPrivate, LineState::Dirty);
    // An invalidated way holds no block, whatever it held before.
    protocol.drop(2, protocol.plant(2, kPrivate, LineState::Exclusive));
    EXPECT_EQ(violation(protocol), "");
}

TEST(CoherenceInvariantsTest, FlagsAnExclusiveBlockHeldElsewhere)
{
    for (const LineState exclusive :
         {LineState::Exclusive, LineState::Dirty}) {
        PlantedProtocol protocol(config(), 3);
        protocol.plant(1, kShared, exclusive);
        protocol.plant(2, kShared, LineState::SharedClean);
        EXPECT_NE(violation(protocol).find("is exclusive in one cache"),
                  std::string::npos)
            << violation(protocol);
    }
}

TEST(CoherenceInvariantsTest, FlagsTwoDirtyOwners)
{
    PlantedProtocol protocol(config(), 3);
    protocol.plant(0, kShared, LineState::SharedDirty);
    protocol.plant(1, kShared, LineState::SharedClean);
    protocol.plant(2, kShared, LineState::SharedDirty);
    EXPECT_NE(violation(protocol).find("has 2 dirty owners"),
              std::string::npos)
        << violation(protocol);
}

TEST(AccessResultTest, OpAccountingHelpers)
{
    AccessResult result;
    result.addOp(Operation::DirtyMissCache);
    EXPECT_TRUE(result.hasMiss());
    EXPECT_TRUE(result.hasDirtyMiss());
    result.reset();
    EXPECT_FALSE(result.hasMiss());
    result.addOp(Operation::WriteBroadcast);
    EXPECT_FALSE(result.hasMiss());
    result.addOp(Operation::CleanMissMem);
    EXPECT_TRUE(result.hasMiss());
    EXPECT_FALSE(result.hasDirtyMiss());
    result.addOp(Operation::CycleSteal);
    EXPECT_THROW(result.addOp(Operation::InstrExec), std::logic_error);
}

} // namespace
} // namespace swcc
