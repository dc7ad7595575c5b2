#include "core/solver_cache.hh"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "core/obs/metrics.hh"
#include "core/obs/obs.hh"
#include "core/workload.hh"

namespace swcc
{

namespace
{

/** -1 unknown, 0 off, 1 on; setSolverCacheEnabled writes 0/1. */
std::atomic<int> cache_enabled{-1};

std::atomic<std::uint64_t> cache_hits{0};
std::atomic<std::uint64_t> cache_misses{0};
std::atomic<std::uint64_t> cache_evictions{0};

/**
 * Registers publishSolverCacheMetrics() as a finalize hook, lazily
 * from the counting paths (a cross-TU static initializer would race
 * obs's own globals). Idempotent via the function-local static.
 */
void
ensureMetricsHook()
{
    [[maybe_unused]] static const bool registered = [] {
        obs::addFinalizeHook(publishSolverCacheMetrics);
        return true;
    }();
}

std::mutex clearers_mutex;
std::vector<void (*)()> &
clearers()
{
    static std::vector<void (*)()> list;
    return list;
}

bool
envDisablesCache()
{
    const char *env = std::getenv("SWCC_SOLVER_CACHE");
    if (env == nullptr || *env == '\0') {
        return false;
    }
    std::string value(env);
    for (char &c : value) {
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return value == "off" || value == "0" || value == "false" ||
        value == "no";
}

} // namespace

MemoKey &
MemoKey::add(const WorkloadParams &params)
{
    return add(params.ls)
        .add(params.msdat)
        .add(params.mains)
        .add(params.md)
        .add(params.shd)
        .add(params.wr)
        .add(params.apl)
        .add(params.mdshd)
        .add(params.oclean)
        .add(params.opres)
        .add(params.nshd);
}

bool
solverCacheEnabled()
{
    int state = cache_enabled.load(std::memory_order_relaxed);
    if (state < 0) {
        state = envDisablesCache() ? 0 : 1;
        cache_enabled.store(state, std::memory_order_relaxed);
    }
    return state != 0;
}

void
setSolverCacheEnabled(bool enabled)
{
    cache_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

SolverCacheStats
solverCacheStats()
{
    SolverCacheStats stats;
    stats.hits = cache_hits.load(std::memory_order_relaxed);
    stats.misses = cache_misses.load(std::memory_order_relaxed);
    stats.evictions = cache_evictions.load(std::memory_order_relaxed);
    return stats;
}

void
noteSolverCacheLookup(bool hit)
{
    ensureMetricsHook();
    (hit ? cache_hits : cache_misses)
        .fetch_add(1, std::memory_order_relaxed);
}

void
noteSolverCacheEvictions(std::uint64_t count)
{
    ensureMetricsHook();
    cache_evictions.fetch_add(count, std::memory_order_relaxed);
}

void
publishSolverCacheMetrics()
{
    const SolverCacheStats stats = solverCacheStats();
    obs::MetricsRegistry &registry = obs::metrics();
    registry.gauge("solver_cache.hits")
        .set(static_cast<double>(stats.hits));
    registry.gauge("solver_cache.misses")
        .set(static_cast<double>(stats.misses));
    registry.gauge("solver_cache.evictions")
        .set(static_cast<double>(stats.evictions));
}

void
clearSolverCache()
{
    std::lock_guard<std::mutex> lock(clearers_mutex);
    for (void (*clearer)() : clearers()) {
        clearer();
    }
}

void
registerSolverCacheClearer(void (*clearer)())
{
    std::lock_guard<std::mutex> lock(clearers_mutex);
    clearers().push_back(clearer);
}

} // namespace swcc
