/**
 * @file
 * Extension X5: write-update (Dragon) versus write-invalidate
 * (Illinois/MESI-style) — reproducing the Archibald & Baer comparison
 * that led the paper to adopt Dragon, on this repository's traces and
 * in its analytical formalism.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/cache/invalidate_protocol.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace
{

/** Every protocol simulated on one profile's trace. */
struct ProfileComparison
{
    swcc::SimStats dragon;
    swcc::SimStats inval;
    swcc::SimStats mesi;
    swcc::SimStats mesif;
    swcc::SimStats moesi;
    swcc::SimStats hybrid;
    swcc::InvalidateMeasurements measured;
};

} // namespace

int
main()
{
    using namespace swcc;

    std::cout << "=== X5: Dragon (write-update) vs write-invalidate "
                 "snooping ===\n\n";

    std::cout << "Simulator, 4 CPUs, 64KB caches:\n\n";

    // Each profile's Dragon + Invalidate pair shares a trace, so the
    // profile is the natural parallel unit; slots come back in
    // kAllProfiles order regardless of which finishes first.
    const std::vector<ProfileComparison> comparisons = parallelMap(
        kAllProfiles.size(), [&](std::size_t i) {
            const SyntheticWorkloadConfig workload =
                profileConfig(kAllProfiles[i], 4, 120'000, 55, false);
            const TraceBuffer trace = generateTrace(workload);

            CacheConfig cache;
            cache.sizeBytes = 64 * 1024;
            cache.blockBytes = 16;

            ProfileComparison result;
            MultiprocessorSystem dragon_system(Scheme::Dragon, cache,
                                               4);
            result.dragon = dragon_system.run(trace);

            auto protocol =
                std::make_unique<InvalidateProtocol>(cache, 4);
            const InvalidateProtocol &inval_protocol = *protocol;
            MultiprocessorSystem inval_system(std::move(protocol));
            result.inval = inval_system.run(trace);
            result.measured = inval_protocol.measurements();

            const auto run_scheme = [&](Scheme scheme) {
                MultiprocessorSystem system(scheme, cache, 4);
                return system.run(trace);
            };
            result.mesi = run_scheme(Scheme::Mesi);
            result.mesif = run_scheme(Scheme::Mesif);
            result.moesi = run_scheme(Scheme::Moesi);
            result.hybrid = run_scheme(Scheme::Hybrid);
            return result;
        });

    TextTable sim_table({"profile", "Dragon power", "Invalidate power",
                         "Dragon bus ops", "Invalidate bus ops",
                         "coherence misses", "measured reref"});
    for (std::size_t i = 0; i < kAllProfiles.size(); ++i) {
        const ProfileComparison &result = comparisons[i];
        sim_table.addRow(
            {std::string(profileName(kAllProfiles[i])),
             formatNumber(result.dragon.processingPower(), 3),
             formatNumber(result.inval.processingPower(), 3),
             formatNumber(static_cast<double>(
                 result.dragon.opCount(Operation::WriteBroadcast)), 0),
             formatNumber(static_cast<double>(
                 result.inval.opCount(Operation::WriteBroadcast)), 0),
             formatNumber(static_cast<double>(
                 result.measured.coherenceMisses), 0),
             formatNumber(result.measured.rerefFraction(), 3)});
    }
    sim_table.print(std::cout);
    exportCsv(sim_table, "x5_protocols_sim");

    std::cout << "\nInvalidate-family variants on the same traces:\n\n";
    TextTable family_table({"profile", "MESI", "MESIF", "MOESI",
                            "Adaptive-Hybrid", "MESI cache-fills",
                            "MESIF cache-fills", "MOESI cache-fills"});
    const auto cache_fills = [](const SimStats &stats) {
        return formatNumber(
            static_cast<double>(
                stats.opCount(Operation::CleanMissCache) +
                stats.opCount(Operation::DirtyMissCache)),
            0);
    };
    for (std::size_t i = 0; i < kAllProfiles.size(); ++i) {
        const ProfileComparison &result = comparisons[i];
        family_table.addRow(
            {std::string(profileName(kAllProfiles[i])),
             formatNumber(result.mesi.processingPower(), 3),
             formatNumber(result.mesif.processingPower(), 3),
             formatNumber(result.moesi.processingPower(), 3),
             formatNumber(result.hybrid.processingPower(), 3),
             cache_fills(result.mesi), cache_fills(result.mesif),
             cache_fills(result.moesi)});
    }
    family_table.print(std::cout);
    exportCsv(family_table, "x5_invalidate_family");

    std::cout << "\nAnalytical model, 16 CPUs, medium parameters, "
                 "sweeping the write-run length:\n\n";
    TextTable model_table({"apl", "firstWrite", "Dragon", "Invalidate "
                           "(reref .2)", "Invalidate (reref .8)",
                           "MESI", "MESIF", "MOESI", "Hybrid"});
    for (double apl : {2.0, 4.0, 8.0, 16.0, 64.0}) {
        WorkloadParams params = middleParams();
        params.apl = apl;
        const double first =
            InvalidateModelConfig::firstWriteFromRun(params);
        auto inval_power = [&](double reref) {
            InvalidateModelConfig config;
            config.firstWriteFraction = first;
            config.rerefFraction = reref;
            return evaluateInvalidateBus(params, 16, config)
                .processingPower;
        };
        auto scheme_power = [&](Scheme scheme) {
            return formatNumber(
                evaluateBus(scheme, params, 16).processingPower, 2);
        };
        model_table.addRow(
            {formatNumber(apl, 0), formatNumber(first, 2),
             scheme_power(Scheme::Dragon),
             formatNumber(inval_power(0.2), 2),
             formatNumber(inval_power(0.8), 2),
             scheme_power(Scheme::Mesi), scheme_power(Scheme::Mesif),
             scheme_power(Scheme::Moesi),
             scheme_power(Scheme::Hybrid)});
    }
    model_table.print(std::cout);
    exportCsv(model_table, "x5_model_apl");

    std::cout
        << "\nFindings: on fine-grain critical-section workloads the "
           "protocols are close,\nwith Dragon ahead when invalidated "
           "copies are promptly re-read (high reref)\nand invalidation "
           "ahead on long private write runs (low firstWrite, low\n"
           "reref) — the classic update-vs-invalidate trade-off behind "
           "the paper's choice\nof Dragon as its hardware yardstick.\n";
    return 0;
}
