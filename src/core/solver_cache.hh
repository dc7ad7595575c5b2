/**
 * @file
 * Thread-safe memo cache for analytical solver results.
 *
 * Campaigns re-solve the same operating points constantly: the Table 8
 * companion grids revisit each base point per varied parameter, power
 * curves share their workload point across processor counts, and
 * resumed or repeated sweeps recompute identical cells. The memo cache
 * keys a solution by the *complete* canonical description of what the
 * solver computes — domain, scheme, every workload parameter, machine
 * size, and the full cost table — and returns the stored value on a
 * hit. Cached values are the bitwise output of the original solve, so
 * caching never changes a result, only skips recomputing it.
 *
 * Keys are 128-bit (campaign::CellKey::key(), cell_hash.hh): two
 * FNV-1a 64 hashes of the same canonical byte stream under different
 * seeds, the low one being the journal hash of the same fields. A
 * collision would need both hashes to collide simultaneously, pushing
 * accidental aliasing past any campaign size this library will see.
 *
 * The cache is sharded (16 shards, one mutex each) so concurrent pool
 * lanes hit different locks; each shard is bounded and self-clears on
 * overflow rather than evicting (campaign working sets either fit or
 * churn — LRU bookkeeping would cost more than the rare refill).
 *
 * The memo also holds per-trace parameter extractions: validatePoint()
 * (sim/mp/validation.cc) stores each trace's ExtractedParams, keyed on
 * every input of the trace and of its extraction, so every scheme
 * validated on one trace in a process shares one extraction. An entry
 * is about 0.8 KiB plus 96 B per CPU (its Base and Dragon per-CPU
 * statistics), so at the bound above (16 shards x 4096 entries) the
 * extraction memo tops out near 100 MiB for 8-CPU traces.
 *
 * Gate: SWCC_SOLVER_CACHE=off|0|false disables it process-wide;
 * setSolverCacheEnabled() overrides programmatically (benches measure
 * cold vs warm, tests compare cached vs uncached bitwise). The gate,
 * the fault-injection bypass (solverMemoUsable()) and
 * clearSolverCache() cover every memo, extractions included, and
 * solverCacheStats() (the solver_cache.hits/misses gauges) counts
 * extraction lookups alongside solver lookups.
 */

#ifndef SWCC_CORE_SOLVER_CACHE_HH
#define SWCC_CORE_SOLVER_CACHE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "core/campaign/cell_hash.hh"

namespace swcc
{

/** Hit/miss/eviction totals across every solver memo in the process. */
struct SolverCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Entries dropped by shard-overflow clears (not clear() calls). */
    std::uint64_t evictions = 0;
};

/** True unless disabled by env or setSolverCacheEnabled(false). */
bool solverCacheEnabled();

/** Programmatic override of the SWCC_SOLVER_CACHE gate. */
void setSolverCacheEnabled(bool enabled);

/**
 * True when results may be served from / stored into a memo: the
 * cache is enabled and no fault plan is armed. Fault injection must
 * reach the solvers' checkFault() sites, so an armed plan bypasses
 * every memo entirely. Every memo user gates on this one predicate.
 */
bool solverMemoUsable();

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
 * artifact carries the totals; callable any time for a mid-run
 * snapshot (the daemon's scrape reads the raw atomics instead).
 */
void publishSolverCacheMetrics();

/**
 * Drops every entry of every registered memo (tests and
 * cold-vs-warm benches). Values reappear on the next solve.
 */
void clearSolverCache();

/** @internal Registers a memo's clear() with clearSolverCache(). */
void registerSolverCacheClearer(void (*clearer)());

/**
 * One sharded, bounded, thread-safe memo map (see file comment).
 * Instantiated per value type by the evaluators; register the
 * instance's clear with registerSolverCacheClearer() once.
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
