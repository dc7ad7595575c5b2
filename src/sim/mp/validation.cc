#include "sim/mp/validation.hh"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/campaign/cell_hash.hh"
#include "core/obs/progress.hh"
#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{

double
ValidationPoint::errorPercent() const
{
    return simPower > 0.0
        ? 100.0 * (modelPower - simPower) / simPower
        : 0.0;
}

namespace
{

/**
 * Per-trace extraction results. The Table 2 parameters depend on the
 * trace, not on the scheme validated against it, so every scheme
 * validated on one trace in a process shares one extraction.
 */
SolverMemo<ExtractedParams> &
extractionMemo()
{
    static SolverMemo<ExtractedParams> memo;
    return memo;
}

[[maybe_unused]] const bool extraction_clearer_registered = [] {
    registerSolverCacheClearer(+[] { extractionMemo().clear(); });
    return true;
}();

/**
 * Every input of a validation trace and of its extraction: the
 * profileConfig() arguments and the cache size (the block size comes
 * with the profile).
 */
SolverCacheKey
extractionKey(const ValidationConfig &config, CpuId cpus,
              bool software_trace)
{
    return MemoKey(MemoDomain::Extraction)
        .add(std::uint64_t{static_cast<std::uint8_t>(config.profile)})
        .add(std::uint64_t{cpus})
        .add(static_cast<std::uint64_t>(config.instructionsPerCpu))
        .add(config.seed + cpus)
        .add(std::uint64_t{software_trace})
        .add(static_cast<std::uint64_t>(config.cacheBytes))
        .key();
}

} // namespace

ValidationPoint
validatePoint(const ValidationConfig &config, CpuId cpus)
{
    const bool software_trace = config.scheme == Scheme::SoftwareFlush;

    SyntheticWorkloadConfig workload = profileConfig(
        config.profile, cpus, config.instructionsPerCpu,
        config.seed + cpus, software_trace);
    const SharedClassifier shared = workload.sharedClassifier();

    CacheConfig cache;
    cache.sizeBytes = config.cacheBytes;
    cache.blockBytes = workload.blockBytes;

    ValidationPoint point;
    point.profile = config.profile;
    point.scheme = config.scheme;
    point.cpus = cpus;
    point.cacheBytes = config.cacheBytes;

    const bool memo = solverCacheEnabled();
    SolverCacheKey key;
    ExtractedParams extracted;
    bool stored = false;
    if (memo) {
        key = extractionKey(config, cpus, software_trace);
        stored = extractionMemo().lookup(key, extracted);
    }

    // Extraction's own Base and Dragon runs are the Base and Dragon
    // cells' simulations (BaseProtocol ignores the classifier, and
    // Dragon's steers only its measurements), so those cells never
    // simulate, and with a stored extraction they need no trace.
    const bool reuses_run =
        config.scheme == Scheme::Base || config.scheme == Scheme::Dragon;
    // Lane-resident arena: batched campaign cells run many validation
    // points per pool lane, and the multi-megabyte trace buffer is the
    // dominant allocation. clear() resets length and cpu count but
    // keeps capacity, so every cell after the first on a lane
    // generates into already-warm memory. Contents are identical to a
    // fresh generateTrace() call.
    thread_local TraceBuffer trace;
    if (!stored || !reuses_run) {
        generateTrace(workload, trace);
    }
    if (!stored) {
        extracted = extractParams(trace, cache, shared);
        if (memo) {
            extractionMemo().insert(key, extracted);
        }
    }

    if (config.scheme == Scheme::Base) {
        point.sim = std::move(extracted.baseStats);
    } else if (config.scheme == Scheme::Dragon) {
        point.sim = std::move(extracted.dragonStats);
    } else {
        MultiprocessorSystem system(config.scheme, cache, cpus, shared);
        point.sim = system.run(trace);
    }
    point.simPower = point.sim.processingPower();

    point.model = evaluateBus(config.scheme, extracted.params, cpus);
    point.modelPower = point.model.processingPower;

    return point;
}

std::vector<ValidationPoint>
validate(const ValidationConfig &config)
{
    return validate(config, campaign::CampaignOptions{});
}

std::vector<ValidationPoint>
validate(const ValidationConfig &config,
         const campaign::CampaignOptions &options,
         campaign::CampaignReport *report)
{
    if (config.maxCpus == 0) {
        throw std::invalid_argument("maxCpus must be positive");
    }
    if (config.maxCpus > SyntheticWorkloadConfig::kMaxCpus) {
        throw std::invalid_argument(
            "maxCpus must be at most " +
            std::to_string(SyntheticWorkloadConfig::kMaxCpus));
    }
    // One simulator instance per processor count, run concurrently.
    // Each cell seeds its own trace generator from its processor count
    // (seed + cpus), so the numbers are independent of evaluation
    // order and bit-identical to the serial loop.
    const std::size_t n = config.maxCpus;
    obs::ProgressReporter progress("validate", n);

    // Cell k runs 1 CPU for k = 0, then N, N-1, ..., 2. A cell's trace
    // holds cpus x instructionsPerCpu instructions and its cost grows
    // with it, so the largest cells start first and the lanes finish
    // together; the 1-CPU cell leads because the pool runs index 0
    // alone on the caller, and that inline prefix outlasts one cell.
    const auto cpusOf = [n](std::size_t k) {
        return static_cast<CpuId>(k == 0 ? 1 : n + 1 - k);
    };

    // Freshly evaluated cells keep their full model/sim detail; cells
    // satisfied from the journal fall back to the powers alone.
    // Slots are addressed by cpus - 1, so concurrent cells never
    // contend.
    std::vector<ValidationPoint> details(n);
    std::vector<char> have_detail(n, 0);

    const auto results = campaign::runCells(
        n, 2,
        [&](std::size_t k) {
            return campaign::CellKey("validate")
                .add(profileName(config.profile))
                .add(schemeName(config.scheme))
                .add(static_cast<std::uint64_t>(config.cacheBytes))
                .add(static_cast<std::uint64_t>(
                    config.instructionsPerCpu))
                .add(config.seed)
                .add(static_cast<std::uint64_t>(cpusOf(k)))
                .hash();
        },
        [&](std::size_t k) {
            const CpuId cpus = cpusOf(k);
            const ValidationPoint point = validatePoint(config, cpus);
            details[cpus - 1] = point;
            have_detail[cpus - 1] = 1;
            progress.tick();
            return std::vector<double>{point.simPower,
                                       point.modelPower};
        },
        options, report);

    std::vector<ValidationPoint> points(n);
    for (std::size_t k = 0; k < n; ++k) {
        const CpuId cpus = cpusOf(k);
        ValidationPoint &point = points[cpus - 1];
        if (have_detail[cpus - 1]) {
            point = details[cpus - 1];
        } else {
            point.profile = config.profile;
            point.scheme = config.scheme;
            point.cpus = cpus;
            point.cacheBytes = config.cacheBytes;
        }
        // Journal values are bit-exact round-trips, so taking them for
        // fresh cells too keeps resumed and uninterrupted runs
        // byte-identical downstream.
        point.simPower = results[k][0];
        point.modelPower = results[k][1];
    }
    return points;
}

} // namespace swcc
