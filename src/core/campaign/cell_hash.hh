/**
 * @file
 * Deterministic cell identity for resumable campaigns.
 *
 * A campaign (sweep, sensitivity grid, validation matrix) is a set of
 * independent cells; each cell's identity is the full description of
 * what it computes — scheme, parameter point, processor count, seed —
 * never *when* or *where* it ran. CellKey folds those fields into a
 * 64-bit FNV-1a hash with unambiguous field framing, so a journal
 * written by one run can be matched against the cells of a resumed
 * run regardless of thread count, scheduling order, or how many cells
 * the first run completed.
 *
 * Determinism contract: two cells hash equal iff they were built from
 * the same field sequence. Doubles are hashed by IEEE-754 bit pattern
 * (after normalising -0.0 to 0.0 and any NaN to one canonical NaN),
 * and every word is hashed as explicit little-endian bytes, so a value
 * that round-trips through the journal re-hashes identically on any
 * host with IEEE doubles.
 *
 * CellKey is only the journal hash: the extraction memo keys its
 * entries with its own word-at-a-time builder (MemoKey, solver_cache.hh),
 * which canonicalises doubles by the same canonicalBits().
 */

#ifndef SWCC_CORE_CAMPAIGN_CELL_HASH_HH
#define SWCC_CORE_CAMPAIGN_CELL_HASH_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace swcc
{
struct WorkloadParams;
} // namespace swcc

namespace swcc::campaign
{

/**
 * One bit pattern per double value: -0.0 as 0.0 and every NaN as the
 * quiet NaN with a zero payload; any other value as its own bits.
 */
inline std::uint64_t
canonicalBits(double value)
{
    if (std::isnan(value)) {
        return 0x7ff8000000000000ull;
    }
    if (value == 0.0) {
        value = 0.0;
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/**
 * Builder for cell identity hashes (see file comment).
 *
 * @code
 *   const std::uint64_t h = CellKey("sweep")
 *       .add(paramName(param)).add(value).add(cpus)
 *       .add(schemeName(scheme)).hash();
 * @endcode
 */
class CellKey
{
  public:
    /** @param domain Namespace of the campaign ("sweep", ...). */
    explicit CellKey(std::string_view domain);

    /** Appends a string field. */
    CellKey &add(std::string_view field);

    /** Appends a double by canonical IEEE bit pattern. */
    CellKey &add(double value);

    /** Appends an unsigned integer field. */
    CellKey &add(std::uint64_t value);

    /**
     * Appends every Table 2 parameter of @p params, in table order;
     * the 1/apl slot holds apl itself.
     */
    CellKey &add(const WorkloadParams &params);

    /** The 64-bit journal hash accumulated so far. */
    std::uint64_t
    hash() const
    {
        return hash_;
    }

  private:
    void mixBytes(const void *data, std::size_t size);
    void mixWord(unsigned char tag, std::uint64_t word);

    std::uint64_t hash_;
};

/** FNV-1a 64 of a byte range; the primitive CellKey is built on. */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t seed);

} // namespace swcc::campaign

#endif // SWCC_CORE_CAMPAIGN_CELL_HASH_HH
