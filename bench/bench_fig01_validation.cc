/**
 * @file
 * Reproduces Figure 1: analytical model versus trace-driven
 * simulation for the Base and Dragon schemes with 64K-byte caches.
 *
 * The paper used ATUM-2 traces (POPS, THOR, PERO) of a 4-CPU VAX 8350;
 * we use the synthetic application profiles documented in DESIGN.md.
 * Model parameters are extracted from the very trace being simulated,
 * exactly as in the paper.
 */

#include <array>
#include <iostream>
#include <vector>

#include "core/campaign/campaign.hh"
#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/mp/validation.hh"

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
                table.addRow({std::string(schemeName(scheme)),
                              formatNumber(point.cpus, 0),
                              formatNumber(point.simPower, 3),
                              formatNumber(point.modelPower, 3),
                              formatNumber(point.errorPercent(), 1)});
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

    std::cout << "Paper's observation: the model captures the "
                 "Base/Dragon gap exactly but\n"
                 "consistently overestimates contention (exponential "
                 "vs fixed bus service),\n"
                 "so model power sits slightly below simulation at "
                 "higher processor counts.\n";
    if (report.fromJournal > 0) {
        std::cerr << "campaign: " << report.summary() << '\n';
    }
    obs::finalize();
    return 0;
}
