/**
 * @file
 * Workload-parameter extraction: trace + cache simulation -> the
 * analytical model's Table 2 parameters.
 *
 * This mirrors the paper's methodology: ls, shd, wr, apl and mdshd are
 * measured from the raw trace; miss rates and md come from simulating
 * the caches; oclean, opres and nshd come from a Dragon simulation that
 * observes other caches at each shared miss and write.
 */

#ifndef SWCC_SIM_MP_PARAM_EXTRACTOR_HH
#define SWCC_SIM_MP_PARAM_EXTRACTOR_HH

#include "core/workload.hh"
#include "sim/cache/cache_config.hh"
#include "sim/cache/dragon_protocol.hh"
#include "sim/mp/sim_stats.hh"
#include "sim/trace/trace_buffer.hh"
#include "sim/trace/trace_stats.hh"

namespace swcc
{

/** Extraction result: the model inputs plus their provenance. */
struct ExtractedParams
{
    /** The assembled model input. */
    WorkloadParams params;
    /** Raw-trace measurements (ls, shd, wr, apl, mdshd). */
    TraceStatistics traceStats;
    /** Base-scheme cache statistics (miss rates, md). */
    SimStats baseStats;
    /**
     * Dragon-scheme statistics of the run behind dragonMeasurements.
     * The classifier steers only the measurements, so these equal any
     * Dragon run of the trace at the same cache geometry.
     */
    SimStats dragonStats;
    /** Dragon sharing measurements (oclean, opres, nshd). */
    DragonMeasurements dragonMeasurements;
};

/**
 * Measures every Table 2 parameter of @p trace at @p cache_config.
 *
 * Defaults stand in for quantities a trace cannot expose: when the
 * trace has no flushes, mdshd falls back to the Table 7 middle value;
 * when it has no terminated write-runs, apl does likewise, as do
 * oclean, opres and nshd when the Dragon run sees no shared misses,
 * shared writes or broadcasts. Each fallback bumps the registry
 * counter extract.fallback.<param>. The counters count extractions
 * performed: validatePoint() extracts each distinct trace once per
 * process, so a cell served from its memo adds nothing.
 *
 * @param trace Interleaved trace.
 * @param cache_config Cache geometry for the miss-rate simulations.
 * @param shared Shared classifier; dynamic detection when null.
 */
ExtractedParams extractParams(const TraceBuffer &trace,
                              const CacheConfig &cache_config,
                              const SharedClassifier &shared = nullptr);

} // namespace swcc

#endif // SWCC_SIM_MP_PARAM_EXTRACTOR_HH
