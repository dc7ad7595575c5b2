/**
 * @file
 * Extension X5: write-update (Dragon) versus write-invalidate
 * (Illinois/MESI) — reproducing the Archibald & Baer comparison that
 * led the paper to adopt Dragon, on this repository's traces and in
 * its analytical formalism. The findings are computed from the rows;
 * the binary exits 1 when a claim fails.
 */

#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/cache/mesi_family_protocol.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace
{

/** Every protocol simulated on one profile's trace. */
struct ProfileComparison
{
    swcc::SimStats dragon;
    swcc::SimStats mesi;
    swcc::SimStats mesif;
    swcc::SimStats moesi;
    swcc::SimStats hybrid;
    swcc::MesiFamilyMeasurements measured;
};

} // namespace

int
main()
{
    using namespace swcc;

    std::cout << "=== X5: Dragon (write-update) vs write-invalidate "
                 "snooping ===\n\n";

    std::cout << "Simulator, 4 CPUs, 64KB caches:\n\n";

    // Each profile's protocols share a trace, so the profile is the
    // natural parallel unit; slots come back in kAllProfiles order
    // regardless of which finishes first.
    const std::vector<ProfileComparison> comparisons = parallelMap(
        kAllProfiles.size(), [&](std::size_t i) {
            const SyntheticWorkloadConfig workload =
                profileConfig(kAllProfiles[i], 4, 120'000, 55, false);
            const TraceBuffer trace = generateTrace(workload);

            CacheConfig cache;
            cache.sizeBytes = 64 * 1024;
            cache.blockBytes = 16;

            ProfileComparison result;
            const auto run_scheme = [&](Scheme scheme) {
                MultiprocessorSystem system(scheme, cache, 4);
                return system.run(trace);
            };
            result.dragon = run_scheme(Scheme::Dragon);

            // One MESI run feeds both invalidate tables.
            auto protocol = std::make_unique<MesiFamilyProtocol>(
                MesiVariant::Mesi, cache, 4);
            const MesiFamilyProtocol &mesi_protocol = *protocol;
            MultiprocessorSystem mesi_system(std::move(protocol));
            result.mesi = mesi_system.run(trace);
            result.measured = mesi_protocol.measurements();

            result.mesif = run_scheme(Scheme::Mesif);
            result.moesi = run_scheme(Scheme::Moesi);
            result.hybrid = run_scheme(Scheme::Hybrid);
            return result;
        });

    const auto ops = [](const SimStats &stats, Operation op) {
        return static_cast<double>(stats.opCount(op));
    };
    const auto power = [](const SimStats &stats) {
        return formatNumber(stats.processingPower(), 3);
    };
    const auto fills = [&](const SimStats &stats) {
        return formatNumber(ops(stats, Operation::CleanMissCache) +
                                ops(stats, Operation::DirtyMissCache),
                            0);
    };
    TextTable sim_table({"profile", "Dragon power", "Invalidate power",
                         "Dragon bus ops", "Invalidate bus ops",
                         "coherence misses", "measured reref"});
    TextTable family_table({"profile", "MESI", "MESIF", "MOESI",
                            "Adaptive-Hybrid", "MESI cache-fills",
                            "MESIF cache-fills", "MOESI cache-fills"});
    bool fewer_ops = true;
    std::string ratios;
    double widest_gap = 0.0;
    std::string widest;
    for (std::size_t i = 0; i < kAllProfiles.size(); ++i) {
        const ProfileComparison &result = comparisons[i];
        const std::string profile(profileName(kAllProfiles[i]));
        const double dragon_ops =
            ops(result.dragon, Operation::WriteBroadcast);
        const double inval_ops = ops(result.mesi, Operation::WriteBroadcast);
        sim_table.addRow(
            {profile, power(result.dragon), power(result.mesi),
             formatNumber(dragon_ops, 0), formatNumber(inval_ops, 0),
             formatNumber(static_cast<double>(
                 result.measured.coherenceMisses), 0),
             formatNumber(result.measured.rerefFraction(), 3)});
        family_table.addRow({profile, power(result.mesi),
                             power(result.mesif), power(result.moesi),
                             power(result.hybrid), fills(result.mesi),
                             fills(result.mesif), fills(result.moesi)});

        fewer_ops = fewer_ops && inval_ops < dragon_ops;
        ratios += (i == 0 ? "" : ", ") +
            formatNumber(dragon_ops / inval_ops, 2) + "x on " + profile;
        const double gap = std::abs(result.mesi.processingPower() /
                                        result.dragon.processingPower() -
                                    1.0);
        if (gap > widest_gap) {
            widest_gap = gap;
            widest = profile;
        }
    }
    sim_table.print(std::cout);
    exportCsv(sim_table, "x5_protocols_sim");
    std::cout << "\nInvalidate-family variants on the same traces:\n\n";
    family_table.print(std::cout);
    exportCsv(family_table, "x5_invalidate_family");

    std::cout << "\nAnalytical model, 16 CPUs, medium parameters, "
                 "sweeping the write-run length:\n\n";
    TextTable model_table({"apl", "firstWrite", "Dragon", "Invalidate "
                           "(reref .2)", "Invalidate (reref .8)",
                           "MESI", "MESIF", "MOESI", "Hybrid"});
    // Dragon's lead at the shortest run, and the first apl at which
    // each reref column overtakes it (NaN: never).
    bool dragon_leads = true;
    double overtakes[2] = {std::nan(""), std::nan("")};
    for (double apl : {2.0, 4.0, 8.0, 16.0, 64.0}) {
        WorkloadParams params = middleParams();
        params.apl = apl;
        const auto inval_power = [&](double reref) {
            return solveBus(perInstructionCost(
                                invalidateFrequencies(params, reref),
                                BusCostModel()),
                            16)
                .processingPower;
        };
        const auto scheme_power = [&](Scheme scheme) {
            return evaluateBus(scheme, params, 16).processingPower;
        };
        const double dragon = scheme_power(Scheme::Dragon);
        const double inval[2] = {inval_power(0.2), inval_power(0.8)};
        for (int r = 0; r < 2; ++r) {
            dragon_leads = dragon_leads && (apl != 2.0 || dragon > inval[r]);
            if (std::isnan(overtakes[r]) && inval[r] > dragon) {
                overtakes[r] = apl;
            }
        }
        const auto fmt = [](double value) { return formatNumber(value, 2); };
        model_table.addRow(
            {formatNumber(apl, 0), fmt(firstWriteFraction(params)),
             fmt(dragon), fmt(inval[0]), fmt(inval[1]),
             fmt(scheme_power(Scheme::Mesi)), fmt(scheme_power(Scheme::Mesif)),
             fmt(scheme_power(Scheme::Moesi)),
             fmt(scheme_power(Scheme::Hybrid))});
    }
    model_table.print(std::cout);
    exportCsv(model_table, "x5_model_apl");

    bool holds = true;
    const auto claim = [&holds](bool ok, const std::string &text) {
        std::cout << "  [" << (ok ? "holds" : "FAILS") << "] " << text
                  << '\n';
        holds = holds && ok;
    };
    std::cout << "\nFindings:\n";
    claim(fewer_ops, "invalidation issues fewer bus operations than "
                     "Dragon on every profile (" + ratios + ")");
    std::cout << "  largest |power gap| between the two: "
              << formatNumber(100.0 * widest_gap, 1)
              << "% of Dragon's, on " << widest << '\n';
    claim(dragon_leads,
          "model: Dragon leads at apl 2 in both reref columns");
    claim(overtakes[0] < overtakes[1],
          "model: invalidation overtakes Dragon at a shorter run for "
          "reref .2 (apl " + formatNumber(overtakes[0], 0) +
              ") than for reref .8 (apl " +
              formatNumber(overtakes[1], 0) + ")");
    return holds ? 0 : 1;
}
