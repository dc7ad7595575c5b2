/**
 * @file
 * Cache geometry configuration.
 */

#ifndef SWCC_SIM_CACHE_CACHE_CONFIG_HH
#define SWCC_SIM_CACHE_CACHE_CONFIG_HH

#include <bit>
#include <cstddef>
#include <stdexcept>

namespace swcc
{

/**
 * Geometry of one per-processor cache.
 *
 * The paper simulates unified (combined instruction and data) caches of
 * 16K, 64K and 256K bytes with 16-byte blocks; associativity is
 * configurable here with a direct-mapped default, typical of the
 * period's machines.
 *
 * All sizes are powers of two (enforced by validate()), so address
 * decomposition never divides: the block offset is a shift by
 * blockShift() and the set index a mask with setMask(). The simulator
 * hot path relies on this invariant.
 */
struct CacheConfig
{
    std::size_t sizeBytes = 64 * 1024;
    std::size_t blockBytes = 16;
    std::size_t associativity = 1;

    /** Number of sets implied by the geometry. */
    std::size_t
    numSets() const
    {
        return sizeBytes / (blockBytes * associativity);
    }

    /** Total number of lines. */
    std::size_t
    numLines() const
    {
        return sizeBytes / blockBytes;
    }

    /** log2(blockBytes): shift that strips the block offset. */
    unsigned
    blockShift() const
    {
        return static_cast<unsigned>(std::countr_zero(blockBytes));
    }

    /** numSets() - 1: mask that extracts the set index. */
    std::size_t
    setMask() const
    {
        return numSets() - 1;
    }

    /**
     * Checks that sizes are powers of two and consistent.
     *
     * The power-of-two requirements are not merely conventional: the
     * cache's shift/mask address decomposition (blockShift()/setMask())
     * is only correct for power-of-two block sizes and set counts.
     * Blocks hold at least 2 bytes: the cache tags an invalid way with
     * ~0, which is a block address only for 1-byte blocks.
     *
     * @throws std::invalid_argument on a malformed geometry.
     */
    void
    validate() const
    {
        auto pow2 = [](std::size_t v) {
            return v != 0 && (v & (v - 1)) == 0;
        };
        if (!pow2(sizeBytes) || !pow2(blockBytes)) {
            throw std::invalid_argument(
                "cache size and block size must be powers of two");
        }
        if (blockBytes < 2) {
            throw std::invalid_argument(
                "block size must be at least 2 bytes");
        }
        if (associativity == 0) {
            throw std::invalid_argument("associativity must be positive");
        }
        if (blockBytes * associativity > sizeBytes ||
            !pow2(numSets())) {
            throw std::invalid_argument(
                "cache geometry does not yield a power-of-two set count");
        }
    }
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_CACHE_CONFIG_HH
