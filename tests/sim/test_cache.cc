/**
 * @file
 * Unit tests for the set-associative cache structure.
 */

#include <gtest/gtest.h>

#include "sim/cache/cache.hh"

namespace swcc
{
namespace
{

CacheConfig
tinyConfig(std::size_t size = 256, std::size_t block = 16,
           std::size_t ways = 2)
{
    CacheConfig config;
    config.sizeBytes = size;
    config.blockBytes = block;
    config.associativity = ways;
    return config;
}

TEST(CacheConfigTest, GeometryDerivation)
{
    const CacheConfig config = tinyConfig(64 * 1024, 16, 2);
    EXPECT_EQ(config.numSets(), 2048u);
    EXPECT_EQ(config.numLines(), 4096u);
    EXPECT_NO_THROW(config.validate());
}

TEST(CacheConfigTest, RejectsBadGeometry)
{
    EXPECT_THROW(tinyConfig(100, 16, 1).validate(),
                 std::invalid_argument);
    EXPECT_THROW(tinyConfig(256, 24, 1).validate(),
                 std::invalid_argument);
    EXPECT_THROW(tinyConfig(256, 16, 0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(tinyConfig(256, 16, 3).validate(),
                 std::invalid_argument);
    // More ways than lines.
    EXPECT_THROW(tinyConfig(32, 16, 4).validate(),
                 std::invalid_argument);
}

TEST(CacheConfigTest, RejectsBlocksTheInvalidTagCouldName)
{
    // An invalid way's tag is ~0, the block address of 0xff..ff when
    // blocks are 1 byte: a cold cache would report that address as a
    // hit on an invalid line.
    EXPECT_THROW(tinyConfig(256, 1, 1).validate(), std::invalid_argument);
    EXPECT_THROW(Cache{tinyConfig(256, 1, 2)}, std::invalid_argument);

    const Cache two(tinyConfig(256, 2, 1));
    EXPECT_EQ(two.find(~Addr{0}), nullptr);
}

TEST(CacheTest, MissThenHit)
{
    Cache cache(tinyConfig());
    EXPECT_EQ(cache.find(0x1000), nullptr);
    CacheLine &victim = cache.victimFor(0x1000);
    cache.fill(victim, 0x1004, LineState::Exclusive);
    CacheLine *line = cache.find(0x1008); // Same block as 0x1004.
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->blockAddr, 0x1000u);
    EXPECT_EQ(line->state, LineState::Exclusive);
}

TEST(CacheTest, BlockAlignment)
{
    Cache cache(tinyConfig());
    EXPECT_EQ(cache.blockAddr(0x1234), 0x1230u);
    EXPECT_EQ(cache.blockAddr(0x1230), 0x1230u);
}

TEST(CacheTest, LruEvictsTheColdestWay)
{
    // 256 B, 16 B blocks, 2-way: 8 sets; addresses 128 bytes apart
    // share a set.
    Cache cache(tinyConfig());
    const Addr a = 0x0000, b = 0x0080, c = 0x0100;

    cache.fill(cache.victimFor(a), a, LineState::Exclusive);
    cache.fill(cache.victimFor(b), b, LineState::Exclusive);
    // Touch a so that b is LRU.
    cache.touch(*cache.find(a));
    cache.fill(cache.victimFor(c), c, LineState::Exclusive);

    EXPECT_NE(cache.find(a), nullptr);
    EXPECT_EQ(cache.find(b), nullptr);
    EXPECT_NE(cache.find(c), nullptr);
}

TEST(CacheTest, VictimPrefersInvalidLines)
{
    Cache cache(tinyConfig());
    cache.fill(cache.victimFor(0x0000), 0x0000, LineState::Dirty);
    CacheLine &victim = cache.victimFor(0x0080);
    EXPECT_EQ(victim.state, LineState::Invalid);
}

TEST(CacheTest, InvalidateFreesTheLine)
{
    Cache cache(tinyConfig());
    cache.fill(cache.victimFor(0x40), 0x40, LineState::Dirty);
    EXPECT_EQ(cache.validLines(), 1u);
    cache.invalidate(*cache.find(0x40));
    EXPECT_EQ(cache.find(0x40), nullptr);
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(CacheTest, DistinctSetsDoNotConflict)
{
    Cache cache(tinyConfig());
    for (Addr addr = 0; addr < 256; addr += 16) {
        cache.fill(cache.victimFor(addr), addr, LineState::Exclusive);
    }
    EXPECT_EQ(cache.validLines(), 16u);
    for (Addr addr = 0; addr < 256; addr += 16) {
        EXPECT_NE(cache.find(addr), nullptr) << addr;
    }
}

TEST(CacheStateTest, DirtyAndValidHelpers)
{
    EXPECT_TRUE(isDirtyState(LineState::Dirty));
    EXPECT_TRUE(isDirtyState(LineState::SharedDirty));
    EXPECT_FALSE(isDirtyState(LineState::Exclusive));
    EXPECT_FALSE(isDirtyState(LineState::SharedClean));
    EXPECT_FALSE(isDirtyState(LineState::Invalid));

    EXPECT_FALSE(isValidState(LineState::Invalid));
    EXPECT_TRUE(isValidState(LineState::Exclusive));
    EXPECT_TRUE(isValidState(LineState::SharedDirty));
}

TEST(CacheTest, DirectMappedConflicts)
{
    Cache cache(tinyConfig(256, 16, 1)); // 16 sets, 1 way.
    cache.fill(cache.victimFor(0x0000), 0x0000, LineState::Exclusive);
    cache.fill(cache.victimFor(0x0100), 0x0100, LineState::Exclusive);
    EXPECT_EQ(cache.find(0x0000), nullptr);
    EXPECT_NE(cache.find(0x0100), nullptr);
}

} // namespace
} // namespace swcc
