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
 * The same builder keys the solver memo (solver_cache.hh): key()
 * carries a second FNV-1a 64 state under a different seed over the
 * same bytes, and its low half is the journal hash.
 */

#ifndef SWCC_CORE_CAMPAIGN_CELL_HASH_HH
#define SWCC_CORE_CAMPAIGN_CELL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace swcc
{
class CostModel;
struct WorkloadParams;

/** 128-bit memo key: two independent FNV-1a 64 states. */
struct SolverCacheKey
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool operator==(const SolverCacheKey &) const = default;
};

struct SolverCacheKeyHash
{
    std::size_t
    operator()(const SolverCacheKey &key) const
    {
        return static_cast<std::size_t>(
            key.lo ^ (key.hi * 0x9e3779b97f4a7c15ull));
    }
};

} // namespace swcc

namespace swcc::campaign
{

/**
 * Builder for cell identity hashes and memo keys (see file comment).
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
    /** @param domain Namespace of the campaign or solver ("sweep", ...). */
    explicit CellKey(std::string_view domain);

    /** Appends a string field. */
    CellKey &add(std::string_view field);

    /** Appends a double by canonical IEEE bit pattern. */
    CellKey &add(double value);

    /** Appends an unsigned integer field. */
    CellKey &add(std::uint64_t value);

    /** Appends every Table 2 parameter of @p params, in table order. */
    CellKey &add(const WorkloadParams &params);

    /**
     * Appends the full cost table via its public interface: for every
     * operation, whether it is supported and (if so) its cpu/channel
     * cycles. Two semantically equal tables key identically.
     */
    CellKey &add(const CostModel &costs);

    /** The 64-bit journal hash accumulated so far. */
    std::uint64_t
    hash() const
    {
        return lo_;
    }

    /** The 128-bit memo key accumulated so far. */
    SolverCacheKey
    key() const
    {
        return {lo_, hi_};
    }

  private:
    void mixBytes(const void *data, std::size_t size);
    void mixWord(unsigned char tag, std::uint64_t word);

    std::uint64_t lo_;
    std::uint64_t hi_;
};

/** FNV-1a 64 of a byte range; the primitive CellKey is built on. */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t seed);

} // namespace swcc::campaign

#endif // SWCC_CORE_CAMPAIGN_CELL_HASH_HH
