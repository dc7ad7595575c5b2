/**
 * @file
 * Unit tests for the flat block→holder-bitset map backing the sharer
 * index.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "sim/cache/holder_map.hh"

namespace swcc
{
namespace
{

TEST(HolderMapTest, DefaultConstructedMapIsEmpty)
{
    HolderMap map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.mask(0), 0u);
    EXPECT_EQ(map.mask(0xdead'0000), 0u);
    map.clearBit(0xdead'0000, 3); // No-op, not a crash.
}

TEST(HolderMapTest, SetAndClearSingleBlock)
{
    HolderMap map(64);
    map.setBit(0x1000, 2);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.mask(0x1000), 0b100u);

    map.setBit(0x1000, 0);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.mask(0x1000), 0b101u);

    map.clearBit(0x1000, 2);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.mask(0x1000), 0b001u);

    map.clearBit(0x1000, 0);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.mask(0x1000), 0u);
}

TEST(HolderMapTest, BlockAddressZeroIsAValidKey)
{
    HolderMap map(16);
    map.setBit(0, 5);
    EXPECT_EQ(map.mask(0), std::uint64_t{1} << 5);
    map.clearBit(0, 5);
    EXPECT_EQ(map.mask(0), 0u);
    EXPECT_EQ(map.size(), 0u);
}

TEST(HolderMapTest, ClearingAbsentBlockOrUnsetBitIsANoOp)
{
    HolderMap map(16);
    map.setBit(0x40, 1);
    map.clearBit(0x80, 1); // Absent block.
    map.clearBit(0x40, 3); // Unset bit of a present block.
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.mask(0x40), 0b010u);
}

TEST(HolderMapTest, SurvivesDenseChurnWithCollisions)
{
    // Half-full map of sequential block addresses: collisions are
    // certain, so lookups after interleaved erases exercise the
    // backward-shift deletion keeping probe chains intact.
    constexpr std::size_t kBlocks = 1024;
    HolderMap map(kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) {
        map.setBit(static_cast<Addr>(i * 16),
                   static_cast<CpuId>(i % 64));
        map.setBit(static_cast<Addr>(i * 16),
                   static_cast<CpuId>((i + 7) % 64));
    }
    EXPECT_EQ(map.size(), kBlocks);

    // Erase every third block completely.
    for (std::size_t i = 0; i < kBlocks; i += 3) {
        map.clearBit(static_cast<Addr>(i * 16),
                     static_cast<CpuId>(i % 64));
        map.clearBit(static_cast<Addr>(i * 16),
                     static_cast<CpuId>((i + 7) % 64));
    }
    for (std::size_t i = 0; i < kBlocks; ++i) {
        const auto mask = map.mask(static_cast<Addr>(i * 16));
        if (i % 3 == 0) {
            EXPECT_EQ(mask, 0u) << "block " << i;
        } else {
            const auto expected =
                (std::uint64_t{1} << (i % 64)) |
                (std::uint64_t{1} << ((i + 7) % 64));
            EXPECT_EQ(mask, expected) << "block " << i;
        }
    }

    // Refill the holes with new keys; chains must still resolve.
    for (std::size_t i = 0; i < kBlocks; i += 3) {
        map.setBit(static_cast<Addr>(0x9000'0000 + i * 16), 9);
    }
    for (std::size_t i = 0; i < kBlocks; i += 3) {
        EXPECT_EQ(map.mask(static_cast<Addr>(0x9000'0000 + i * 16)),
                  std::uint64_t{1} << 9);
    }
}

TEST(HolderMapTest, ThrowsWhenOverfilledPastItsSizingContract)
{
    HolderMap map(8); // Capacity 16, sized for at most 8 blocks.
    for (std::size_t i = 0; i < 8; ++i) {
        map.setBit(static_cast<Addr>(i * 16), 0);
    }
    EXPECT_THROW(map.setBit(0xffff'0000, 0), std::logic_error);
}

} // namespace
} // namespace swcc
