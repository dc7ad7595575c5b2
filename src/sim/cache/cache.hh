/**
 * @file
 * Set-associative cache with LRU replacement and per-line coherence
 * state.
 */

#ifndef SWCC_SIM_CACHE_CACHE_HH
#define SWCC_SIM_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/cache/cache_config.hh"
#include "sim/trace/trace_event.hh"

namespace swcc
{

/**
 * Coherence state of a cache line.
 *
 * Base, No-Cache, and Software-Flush use only Invalid / Exclusive /
 * Dirty. Dragon adds the shared states: SharedClean copies may exist in
 * several caches; a SharedDirty line is the *owner* of a block whose
 * memory copy is stale (exactly one owner can exist per block).
 */
enum class LineState : std::uint8_t
{
    Invalid,
    /** Valid, clean, only copy (Dragon "Valid-Exclusive"). */
    Exclusive,
    /** Valid, modified, only copy. */
    Dirty,
    /** Valid, clean, possibly also in other caches. */
    SharedClean,
    /** Valid, modified, possibly shared: this cache owns the block. */
    SharedDirty,
};

/** True for states whose eviction requires a write-back. */
constexpr bool
isDirtyState(LineState state)
{
    return state == LineState::Dirty || state == LineState::SharedDirty;
}

/** True for any valid state. */
constexpr bool
isValidState(LineState state)
{
    return state != LineState::Invalid;
}

/**
 * One cache line in 16 bytes: the block address it holds, which is
 * also its tag, an LRU stamp and the coherence state.
 */
struct CacheLine
{
    /**
     * Block address of invalid ways: all ones, which no block-aligned
     * address equals (CacheConfig::validate() requires blocks of at
     * least 2 bytes), so an invalid way never matches a lookup.
     */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Block-aligned address of the held block; kInvalidTag when the
     *  way is invalid. */
    Addr blockAddr = kInvalidTag;
    /**
     * LRU timestamp (larger = more recent), from the owning cache's
     * counter. 32 bits suffice in the simulator:
     * MultiprocessorSystem::run() refuses a trace of 2^32 or more
     * events, a system runs once, and each event stamps at most one
     * line, in its own processor's cache, so no counter passes
     * 2^32 - 1. A standalone Cache throws rather than wrap (touch()).
     */
    std::uint32_t lastUse = 0;
    LineState state = LineState::Invalid;
};

static_assert(sizeof(CacheLine) <= 16, "a cache line is at most 16 bytes");

/**
 * A single processor's cache.
 *
 * Purely structural: protocols decide state transitions; the cache
 * provides lookup, LRU victim selection, and iteration for invariant
 * checking.
 *
 * Address decomposition is shift/mask only (the power-of-two geometry
 * is enforced by CacheConfig::validate()), and a line's block address
 * is its tag, so find() is a branch-light compare loop over one set's
 * lines: invalid ways carry CacheLine::kInvalidTag, which no
 * block-aligned address can equal.
 */
class Cache
{
  public:
    /**
     * @param config Validated geometry.
     * @throws std::invalid_argument via config.validate().
     */
    explicit Cache(const CacheConfig &config);

    /** Block-aligned address of @p addr. */
    Addr
    blockAddr(Addr addr) const
    {
        return addr & blockMask_;
    }

    /**
     * Finds the valid line holding @p addr's block, or nullptr.
     * Does not update LRU state; call touch() on a hit.
     */
    CacheLine *
    find(Addr addr)
    {
        const Addr tag = addr & blockMask_;
        CacheLine *set = &lines_[setBase(addr)];
        for (std::size_t way = 0; way < assoc_; ++way) {
            if (set[way].blockAddr == tag) {
                return &set[way];
            }
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr addr) const
    {
        return const_cast<Cache *>(this)->find(addr);
    }

    /**
     * Marks a line most recently used.
     *
     * @throws std::overflow_error rather than wrap the 32-bit stamp
     *         counter (after 2^32 - 1 stamps; see CacheLine::lastUse).
     */
    void touch(CacheLine &line);

    /**
     * Selects the replacement victim for @p addr's set: an invalid
     * line if present, otherwise the least recently used.
     */
    CacheLine &victimFor(Addr addr);

    /**
     * Installs @p addr's block into @p victim with @p state and marks
     * it most recently used. The caller is responsible for having
     * handled the victim's write-back.
     */
    void fill(CacheLine &victim, Addr addr, LineState state);

    /** Invalidates a line: its way answers no find() until refilled. */
    void invalidate(CacheLine &line);

    /** All lines, for snooping and invariant checks. */
    const std::vector<CacheLine> &lines() const { return lines_; }

    const CacheConfig &config() const { return config_; }

    /** Number of currently valid lines. */
    std::size_t validLines() const;

  private:
    /** First line index of @p addr's set. */
    std::size_t
    setBase(Addr addr) const
    {
        return ((static_cast<std::size_t>(addr >> blockShift_)) &
                setMask_) * assoc_;
    }

    CacheConfig config_;
    std::vector<CacheLine> lines_;
    std::uint32_t useCounter_ = 0;
    Addr blockMask_ = 0;
    unsigned blockShift_ = 0;
    std::size_t setMask_ = 0;
    std::size_t assoc_ = 1;
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_CACHE_HH
