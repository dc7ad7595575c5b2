#include "sim/mp/param_extractor.hh"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/obs/metrics.hh"
#include "sim/mp/system.hh"

namespace swcc
{

namespace
{

/**
 * Bumps extract.fallback.<param> once for each model input @p out
 * could not measure and so takes from the paper's middle value.
 */
void
countFallbacks(const ExtractedParams &out)
{
    static obs::Counter &apl =
        obs::metrics().counter("extract.fallback.apl");
    static obs::Counter &mdshd =
        obs::metrics().counter("extract.fallback.mdshd");
    static obs::Counter &oclean =
        obs::metrics().counter("extract.fallback.oclean");
    static obs::Counter &opres =
        obs::metrics().counter("extract.fallback.opres");
    static obs::Counter &nshd =
        obs::metrics().counter("extract.fallback.nshd");
    const DragonMeasurements &dragon = out.dragonMeasurements;
    if (!out.traceStats.apl.has_value()) {
        apl.add();
    }
    if (!out.traceStats.mdshd.has_value()) {
        mdshd.add();
    }
    if (dragon.sharedMisses == 0) {
        oclean.add();
    }
    if (dragon.sharedWrites == 0) {
        opres.add();
    }
    if (dragon.broadcasts == 0) {
        nshd.add();
    }
}

} // namespace

ExtractedParams
extractParams(const TraceBuffer &trace, const CacheConfig &cache_config,
              const SharedClassifier &shared)
{
    ExtractedParams out;

    // Raw-trace measurements. When no classifier is supplied, build the
    // dynamic one (blocks touched by more than one processor).
    out.traceStats = analyzeTrace(trace, cache_config.blockBytes, shared);

    // Cache-dependent measurements from a Base-scheme run: miss rates
    // and the dirty-victim fraction, uncontaminated by coherence
    // actions.
    const CpuId cpus = std::max<CpuId>(1, trace.numCpus());
    {
        MultiprocessorSystem base_system(Scheme::Base, cache_config, cpus);
        out.baseStats = base_system.run(trace);
    }

    // Sharing interaction measurements from a Dragon run.
    {
        SharedClassifier measure = shared;
        if (!measure) {
            // Dynamic interpretation: precompute the multi-processor
            // blocks, then classify against that set.
            auto shared_blocks =
                std::make_shared<std::unordered_set<Addr>>();
            std::unordered_map<Addr, CpuId> first;
            const Addr mask =
                ~static_cast<Addr>(cache_config.blockBytes - 1);
            for (const TraceEvent &event : trace) {
                if (!isData(event.type)) {
                    continue;
                }
                const Addr block = event.addr & mask;
                auto [it, inserted] = first.emplace(block, event.cpu);
                if (!inserted && it->second != event.cpu) {
                    shared_blocks->insert(block);
                }
            }
            measure = [shared_blocks](Addr block) {
                return shared_blocks->contains(block);
            };
        }
        MultiprocessorSystem dragon_system(Scheme::Dragon, cache_config,
                                           cpus, measure);
        out.dragonStats = dragon_system.run(trace);
        const auto &dragon =
            static_cast<const DragonProtocol &>(dragon_system.protocol());
        out.dragonMeasurements = dragon.measurements();
    }

    // Assemble the model input.
    WorkloadParams params = middleParams();
    params.ls = out.traceStats.ls;
    params.shd = out.traceStats.shd;
    params.wr = out.traceStats.wr;
    params.msdat = out.baseStats.dataMissRate();
    params.mains = out.baseStats.instrMissRate();
    params.md = out.baseStats.dirtyMissFraction();
    // A trace without write runs cannot measure apl, one without
    // flushes cannot measure mdshd, and a Dragon run without shared
    // misses, shared writes or broadcasts cannot measure oclean, opres
    // or nshd. Each then takes the paper's middle value, and the
    // extract.fallback.* counters say how often that happened.
    countFallbacks(out);
    params.apl = std::max(
        1.0, out.traceStats.apl.value_or(
                 1.0 / paramLevelValue(ParamId::InvApl, Level::Middle)));
    params.mdshd = out.traceStats.mdshd.value_or(
        paramLevelValue(ParamId::Mdshd, Level::Middle));
    params.oclean = out.dragonMeasurements.oclean(
        paramLevelValue(ParamId::Oclean, Level::Middle));
    params.opres = out.dragonMeasurements.opres(
        paramLevelValue(ParamId::Opres, Level::Middle));
    params.nshd = out.dragonMeasurements.nshd(
        paramLevelValue(ParamId::Nshd, Level::Middle));
    params.validate();
    out.params = params;
    return out;
}

} // namespace swcc
