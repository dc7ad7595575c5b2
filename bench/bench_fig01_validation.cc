/**
 * @file
 * Reproduces Figure 1: analytical model versus trace-driven
 * simulation for the Base and Dragon schemes with 64K-byte caches.
 *
 * The paper used ATUM-2 traces (POPS, THOR, PERO) of a 4-CPU VAX 8350;
 * we use the synthetic application profiles documented in DESIGN.md.
 * Model parameters are extracted from the very trace being simulated,
 * exactly as in the paper. The findings are computed from the
 * unrounded points and printed as holds or FAILS; the binary exits 1
 * when one fails.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/campaign/campaign.hh"
#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/mp/validation.hh"

namespace
{

/** Largest |error| a 1-CPU cell may show and still be exact, in
 *  percent: rounding only, as no second processor contends. */
constexpr double kExactPct = 1e-9;
/** Largest shortfall of the model below the simulation at 2 to 4
 *  CPUs, in percent. */
constexpr double kErrorBoundPct = 5.0;

} // namespace

int
main(int argc, char **argv)
{
    using namespace swcc;
    obs::consumeArgs(argc, argv);

    std::cout << "=== Figure 1: model vs simulation, Base & Dragon, "
                 "64KB caches ===\n\n";

    constexpr std::array kSchemes{Scheme::Base, Scheme::Dragon};
    constexpr CpuId kMaxCpus = 4;

    // Journaled + resumable when SWCC_JOURNAL_DIR is set: every
    // (profile, scheme, cpus) cell lands in one shared journal, so a
    // killed figure run picks up where it left off.
    const campaign::CampaignOptions campaign_options =
        campaign::envCampaignOptions("fig01");
    campaign::CampaignReport report;

    // Findings, over every profile and scheme; a NaN error fails them.
    bool single_cpu_exact = true;
    bool multi_cpu_below = true;
    bool gap_widens = true;
    double single_cpu_worst = 0.0;
    double multi_cpu_low = HUGE_VAL;
    double multi_cpu_high = -HUGE_VAL;

    for (AppProfile profile : kAllProfiles) {
        // Each scheme's 1..kMaxCpus cells are independent simulations
        // fanned across the pool by validate(); render serially.
        std::vector<ValidationPoint> points;
        for (Scheme scheme : kSchemes) {
            ValidationConfig config;
            config.profile = profile;
            config.scheme = scheme;
            config.cacheBytes = 64 * 1024;
            config.maxCpus = kMaxCpus;
            config.instructionsPerCpu = 120'000;
            config.seed = 1989;
            campaign::CampaignReport scheme_report;
            const std::vector<ValidationPoint> scheme_points =
                validate(config, campaign_options, &scheme_report);
            points.insert(points.end(), scheme_points.begin(),
                          scheme_points.end());
            report.merge(scheme_report);
        }

        TextTable table({"scheme", "cpus", "sim power", "model power",
                         "error %"});
        AsciiChart chart(56, 14);
        for (std::size_t row = 0; row < kSchemes.size(); ++row) {
            const Scheme scheme = kSchemes[row];
            Series sim_series, model_series;
            sim_series.label =
                std::string(schemeName(scheme)) + " sim";
            model_series.label =
                std::string(schemeName(scheme)) + " model";

            for (CpuId cpus = 1; cpus <= kMaxCpus; ++cpus) {
                const ValidationPoint &point =
                    points[row * kMaxCpus + cpus - 1];
                const double error = point.errorPercent();
                if (cpus == 1) {
                    single_cpu_exact =
                        single_cpu_exact && std::abs(error) <= kExactPct;
                    single_cpu_worst =
                        std::max(single_cpu_worst, std::abs(error));
                } else {
                    multi_cpu_below = multi_cpu_below && error < 0.0 &&
                        error > -kErrorBoundPct;
                    gap_widens = gap_widens &&
                        error < points[row * kMaxCpus + cpus - 2]
                                    .errorPercent();
                    multi_cpu_low = std::min(multi_cpu_low, error);
                    multi_cpu_high = std::max(multi_cpu_high, error);
                }
                table.addRow({std::string(schemeName(scheme)),
                              formatNumber(point.cpus, 0),
                              formatNumber(point.simPower, 3),
                              formatNumber(point.modelPower, 3),
                              formatNumber(error, 1)});
                sim_series.points.push_back(
                    {static_cast<double>(point.cpus), point.simPower});
                model_series.points.push_back(
                    {static_cast<double>(point.cpus),
                     point.modelPower});
            }
            chart.addSeries(sim_series);
            chart.addSeries(model_series);
        }
        std::cout << "--- " << profileName(profile) << " ---\n";
        table.print(std::cout);
        exportCsv(table, "fig01_validation_" +
                             std::string(profileName(profile)));
        chart.setAxisTitles("processors", "processing power");
        chart.print(std::cout);
        std::cout << '\n';
    }

    bool holds = true;
    const auto claim = [&holds](bool ok, const std::string &text) {
        std::cout << "  [" << (ok ? "holds" : "FAILS") << "] " << text
                  << '\n';
        holds = holds && ok;
    };
    std::cout << "Findings:\n";
    claim(single_cpu_exact,
          "with one processor nothing contends, and the model is exact: "
          "every 1-CPU cell's |error| is " +
              formatNumber(single_cpu_worst, 1) + "%");
    claim(multi_cpu_below,
          "at 2 to " + std::to_string(kMaxCpus) +
              " CPUs the model is below the simulation by under " +
              formatNumber(kErrorBoundPct, 0) +
              "% for Base and Dragon on every profile (" +
              formatNumber(multi_cpu_high, 1) + "% to " +
              formatNumber(multi_cpu_low, 1) + "%)");
    claim(gap_widens,
          "the gap widens with every added processor, for both schemes "
          "on every profile");
    if (report.fromJournal > 0) {
        std::cerr << "campaign: " << report.summary() << '\n';
    }
    obs::finalize();
    return holds ? 0 : 1;
}
