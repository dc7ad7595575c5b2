/**
 * @file
 * Thread-safe memo cache, and the key builder its keys come from.
 *
 * The one memo is validatePoint()'s (sim/mp/validation.cc): it stores
 * each trace's ExtractedParams, keyed on every input of the trace and
 * of its extraction, so every scheme validated on one trace in a
 * process shares one extraction. A stored value is the bitwise output
 * of the original extraction, so the memo never changes a result, only
 * skips recomputing it. An entry is about 0.8 KiB plus 96 B per CPU
 * (its Base and Dragon per-CPU statistics), so at the bound below
 * (16 shards x 4096 entries) the memo tops out near 100 MiB for 8-CPU
 * traces. Analytical solves (evaluateBus(), evaluateNetwork() and
 * their curves) cost microseconds and are never stored.
 *
 * Keys are 128-bit (MemoKey below): a domain tag word, then every
 * field as 64-bit words, folded into two independent lanes by a
 * bijective xor-rotate-multiply step and finalised once. Each domain
 * has one fixed layout, so two keys of a domain whose words differ in
 * one place always differ; any other collision would need both 64-bit
 * lanes to collide at once, past any campaign size this library will
 * see. Keys are process-local, so their values are not a format and
 * may change between builds (journals use campaign::CellKey). swccd's
 * batches group their queries by such keys and store nothing.
 *
 * The cache is sharded (16 shards, one mutex each) so concurrent pool
 * lanes hit different locks; each shard is bounded and self-clears on
 * overflow rather than evicting (campaign working sets either fit or
 * churn — LRU bookkeeping would cost more than the rare refill).
 *
 * Gate: SWCC_SOLVER_CACHE=off|0|false disables it process-wide;
 * setSolverCacheEnabled() overrides programmatically (tests compare
 * cached vs uncached bitwise). clearSolverCache() empties it, and
 * solverCacheStats() (the solver_cache.hits/misses gauges) counts its
 * lookups.
 */

#ifndef SWCC_CORE_SOLVER_CACHE_HH
#define SWCC_CORE_SOLVER_CACHE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "core/campaign/cell_hash.hh"
#include "core/types.hh"

namespace swcc
{
struct WorkloadParams;

/** 128-bit memo key: the two finalised lanes of a MemoKey. */
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

/** What a memo key names; the first word of every key. */
enum class MemoDomain : std::uint64_t
{
    /** swccd's batch groups: query domain, scheme, params. */
    ServiceGroup = 5,
    /** validatePoint()'s per-trace extraction: every trace input. */
    Extraction = 6,
};

/**
 * Builder of memo and group keys (see file comment).
 *
 * Every field is one word: integers and enum values as themselves,
 * doubles by canonical bit pattern (campaign::canonicalBits):
 *
 * @code
 *   const SolverCacheKey key = MemoKey(MemoDomain::ServiceGroup)
 *       .add(std::uint64_t{domain}).add(scheme).add(params).key();
 * @endcode
 */
class MemoKey
{
  public:
    explicit MemoKey(MemoDomain domain)
    {
        add(static_cast<std::uint64_t>(domain));
    }

    /** Appends one word. */
    MemoKey &
    add(std::uint64_t word)
    {
        lo_ = step(lo_, word, kRotateLo, kMultiplyLo);
        hi_ = step(hi_, word, kRotateHi, kMultiplyHi);
        return *this;
    }

    /** Appends a double by canonical bit pattern. */
    MemoKey &
    add(double value)
    {
        return add(campaign::canonicalBits(value));
    }

    /** Appends a scheme by enum value. */
    MemoKey &
    add(Scheme scheme)
    {
        return add(std::uint64_t{static_cast<std::uint8_t>(scheme)});
    }

    /** Appends the eleven Table 2 parameters, in table order. */
    MemoKey &add(const WorkloadParams &params);

    /** The key of the words appended so far. */
    SolverCacheKey
    key() const
    {
        return {finalise(lo_), finalise(hi_)};
    }

  private:
    static constexpr std::uint64_t kSeedLo = 0x243f6a8885a308d3ull;
    static constexpr std::uint64_t kSeedHi = 0x13198a2e03707344ull;
    static constexpr int kRotateLo = 29;
    static constexpr int kRotateHi = 41;
    static constexpr std::uint64_t kMultiplyLo = 0x9e3779b97f4a7c15ull;
    static constexpr std::uint64_t kMultiplyHi = 0xc2b2ae3d27d4eb4full;

    /**
     * Folds one word into a lane. Xor, rotate and an odd multiply are
     * each bijective, so the step is a bijection of the lane for any
     * fixed word and of the word for any fixed lane.
     */
    static std::uint64_t
    step(std::uint64_t lane, std::uint64_t word, int rotate,
         std::uint64_t multiply)
    {
        const std::uint64_t x = lane ^ word;
        return ((x << rotate) | (x >> (64 - rotate))) * multiply;
    }

    /** MurmurHash3's fmix64: a bijective avalanche of one lane. */
    static std::uint64_t
    finalise(std::uint64_t lane)
    {
        lane ^= lane >> 33;
        lane *= 0xff51afd7ed558ccdull;
        lane ^= lane >> 33;
        lane *= 0xc4ceb9fe1a85ec53ull;
        lane ^= lane >> 33;
        return lane;
    }

    std::uint64_t lo_ = kSeedLo;
    std::uint64_t hi_ = kSeedHi;
};

/** Hit/miss/eviction totals across every memo in the process. */
struct SolverCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Entries dropped by shard-overflow clears (not clear() calls). */
    std::uint64_t evictions = 0;
};

/**
 * True unless disabled by env or setSolverCacheEnabled(false). Every
 * memo user gates on this one predicate.
 */
bool solverCacheEnabled();

/** Programmatic override of the SWCC_SOLVER_CACHE gate. */
void setSolverCacheEnabled(bool enabled);

/** Process-wide hit/miss counters (all memo instances). */
SolverCacheStats solverCacheStats();

/** @internal Counts one hit/miss into solverCacheStats(). */
void noteSolverCacheLookup(bool hit);

/** @internal Counts @p count overflow-evicted entries. */
void noteSolverCacheEvictions(std::uint64_t count);

/**
 * Mirrors solverCacheStats() into the metrics registry as the
 * `solver_cache.{hits,misses,evictions}` gauges. Registered as an
 * obs finalize hook on first cache use, so every `--metrics-out`
 * artifact of a run that used the memo carries the totals; callable
 * any time for a mid-run snapshot.
 */
void publishSolverCacheMetrics();

/**
 * Drops every entry of every registered memo (tests). Values reappear
 * on the next extraction.
 */
void clearSolverCache();

/** @internal Registers a memo's clear() with clearSolverCache(). */
void registerSolverCacheClearer(void (*clearer)());

/**
 * One sharded, bounded, thread-safe memo map (see file comment).
 * Instantiated per value type by its user; register the instance's
 * clear with registerSolverCacheClearer() once.
 */
template <typename Value>
class SolverMemo
{
  public:
    /** Looks @p key up; counts the hit/miss. */
    bool
    lookup(const SolverCacheKey &key, Value &out)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(key);
        const bool hit = it != shard.map.end();
        noteSolverCacheLookup(hit);
        if (hit) {
            out = it->second;
        }
        return hit;
    }

    /** Stores @p value; a full shard clears itself first. */
    void
    insert(const SolverCacheKey &key, const Value &value)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.map.size() >= kMaxPerShard) {
            noteSolverCacheEvictions(shard.map.size());
            shard.map.clear();
        }
        shard.map.emplace(key, value);
    }

    void
    clear()
    {
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.map.clear();
        }
    }

  private:
    static constexpr std::size_t kShards = 16;
    static constexpr std::size_t kMaxPerShard = 4096;

    struct Shard
    {
        std::mutex mutex;
        std::unordered_map<SolverCacheKey, Value, SolverCacheKeyHash>
            map;
    };

    Shard &
    shardFor(const SolverCacheKey &key)
    {
        return shards_[key.hi % kShards];
    }

    std::array<Shard, kShards> shards_;
};

} // namespace swcc

#endif // SWCC_CORE_SOLVER_CACHE_HH
