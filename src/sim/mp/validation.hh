/**
 * @file
 * Model-vs-simulation validation harness (paper Section 3).
 */

#ifndef SWCC_SIM_MP_VALIDATION_HH
#define SWCC_SIM_MP_VALIDATION_HH

#include <vector>

#include "core/bus_model.hh"
#include "core/campaign/campaign.hh"
#include "core/types.hh"
#include "sim/cache/cache_config.hh"
#include "sim/mp/sim_stats.hh"
#include "sim/synth/app_profiles.hh"

namespace swcc
{

/** One validated operating point. */
struct ValidationPoint
{
    AppProfile profile = AppProfile::PopsLike;
    Scheme scheme = Scheme::Base;
    CpuId cpus = 0;
    std::size_t cacheBytes = 0;

    /** Simulator measurement. */
    double simPower = 0.0;
    /** Analytical model prediction (parameters extracted from trace). */
    double modelPower = 0.0;
    /** Full model solution, for detailed reporting. */
    BusSolution model;
    /** Full simulator statistics. */
    SimStats sim;

    /** Signed (model - sim) / sim in percent. */
    double errorPercent() const;
};

/** Configuration of one validation experiment. */
struct ValidationConfig
{
    AppProfile profile = AppProfile::PopsLike;
    Scheme scheme = Scheme::Dragon;
    std::size_t cacheBytes = 64 * 1024;
    /** Evaluate 1..maxCpus processors. */
    CpuId maxCpus = 4;
    std::size_t instructionsPerCpu = 150'000;
    std::uint64_t seed = 1;
};

/**
 * Evaluates a single validation cell at @p cpus processors: generates
 * a fresh trace of the profile (seeded from config.seed + cpus, so the
 * cell is self-contained and order-independent), simulates the scheme
 * on it, extracts the Table 2 parameters from that same trace, and
 * evaluates the analytical model on them. validate() and the sweep
 * benches fan these cells out across the pool.
 *
 * Cells share work without changing any result:
 *  - Extractions are memoized per trace in the solver memo (see
 *    solver_cache.hh), keyed on the profile, @p cpus, the trace length
 *    and seed, whether the trace carries flushes, and the cache size.
 *    Every scheme validated on one trace in a process shares one
 *    extraction; a cell that finds it stored skips the trace
 *    statistics and extraction's Base and Dragon runs.
 *    SWCC_SOLVER_CACHE=off bypasses the memo, and clearSolverCache()
 *    empties it.
 *  - A Base or Dragon cell, memo on or off, takes its simulator
 *    statistics from extraction's own Base or Dragon run instead of
 *    simulating the trace again. When its extraction is stored, it
 *    neither generates nor simulates the trace.
 */
ValidationPoint validatePoint(const ValidationConfig &config, CpuId cpus);

/**
 * Runs one model-vs-simulation validation experiment.
 *
 * For each processor count a fresh trace of the profile is generated,
 * the scheme is simulated on it, the Table 2 parameters are extracted
 * from that same trace, and the analytical model is evaluated on the
 * extracted parameters — exactly the paper's validation flow. Software
 * schemes are validated with flush-bearing traces (an extension the
 * paper's hardware-coherent traces ruled out). Each cell shares its
 * trace's extraction with every scheme validated on that trace in the
 * process, as validatePoint() describes.
 */
std::vector<ValidationPoint> validate(const ValidationConfig &config);

/**
 * validate() as a resumable campaign: one journaled cell per
 * processor count. Cells satisfied from the journal carry only
 * simPower and modelPower — the detailed model / sim sub-structures
 * are populated only for cells evaluated in this run. The
 * parameterless overload delegates here with journaling disabled.
 *
 * Cells go to the pool as 1, N, N-1, ..., 2 CPUs: the pool runs the
 * first cell alone on the caller, and the rest start heaviest first,
 * since a cell's cost grows with its trace of cpus x
 * instructionsPerCpu instructions. Each journal key names its
 * processor count, not its position, and the points come back
 * ordered 1..N.
 *
 * @throws std::invalid_argument when maxCpus is 0 or exceeds
 *         SyntheticWorkloadConfig::kMaxCpus, before any cell runs.
 */
std::vector<ValidationPoint>
validate(const ValidationConfig &config,
         const campaign::CampaignOptions &options,
         campaign::CampaignReport *report = nullptr);

} // namespace swcc

#endif // SWCC_SIM_MP_VALIDATION_HH
