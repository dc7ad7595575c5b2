/**
 * @file
 * Extension X2: model-vs-simulation validation of the *software*
 * schemes. The paper could not validate these ("the traces are from a
 * multiprocessor that used hardware for cache coherence"); our
 * synthetic traces carry flush instructions and a marked shared
 * region, so the Software-Flush and No-Cache models can be checked
 * the same way as Base and Dragon. The findings are computed from the
 * rows; the binary exits 1 when a claim fails.
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

    // Findings, from the unrounded errors of every row.
    std::array<double, kSchemes.size()> largest_error{};
    bool errors_fall = true;
    bool nocache_worse = true;

    for (AppProfile profile :
         {AppProfile::PopsLike, AppProfile::PeroLike}) {
        // Each scheme's 1..kMaxCpus cells fan across the pool inside
        // validate(); one series per scheme, in kSchemes order.
        std::array<std::vector<ValidationPoint>, kSchemes.size()> series;
        for (std::size_t s = 0; s < kSchemes.size(); ++s) {
            ValidationConfig config;
            config.profile = profile;
            config.scheme = kSchemes[s];
            config.cacheBytes = 64 * 1024;
            config.maxCpus = kMaxCpus;
            config.instructionsPerCpu = 120'000;
            config.seed = 77;
            series[s] = validate(config, campaign_options);
        }

        std::cout << "--- " << profileName(profile) << " ---\n";
        TextTable table({"scheme", "cpus", "sim power", "model power",
                         "error %"});
        for (std::size_t s = 0; s < series.size(); ++s) {
            const std::vector<ValidationPoint> &points = series[s];
            for (std::size_t i = 0; i < points.size(); ++i) {
                const ValidationPoint &point = points[i];
                const double error = point.errorPercent();
                table.addRow({std::string(schemeName(point.scheme)),
                              formatNumber(point.cpus, 0),
                              formatNumber(point.simPower, 3),
                              formatNumber(point.modelPower, 3),
                              formatNumber(error, 1)});
                largest_error[s] =
                    std::max(largest_error[s], std::abs(error));
                errors_fall = errors_fall &&
                    (i == 0 || error < points[i - 1].errorPercent());
            }
        }
        // kSchemes is {Software-Flush, No-Cache}.
        for (std::size_t i = 0; i < series[0].size(); ++i) {
            nocache_worse = nocache_worse &&
                std::abs(series[1][i].errorPercent()) >
                    std::abs(series[0][i].errorPercent());
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

    bool holds = true;
    const auto claim = [&holds](bool ok, const std::string &text) {
        std::cout << "  [" << (ok ? "holds" : "FAILS") << "] " << text
                  << '\n';
        holds = holds && ok;
    };
    std::cout << "\nFindings:\n  largest |error|:";
    for (std::size_t s = 0; s < kSchemes.size(); ++s) {
        std::cout << (s == 0 ? " " : ", ") << schemeName(kSchemes[s])
                  << ' ' << formatNumber(largest_error[s], 1) << '%';
    }
    std::cout << '\n';
    claim(errors_fall,
          "in every (profile, scheme) series the model's error falls "
          "with each added CPU: the model overestimates contention "
          "more as the machine grows");
    claim(nocache_worse,
          "No-Cache's |error| exceeds Software-Flush's at every CPU "
          "count on both profiles");
    obs::finalize();
    return holds ? 0 : 1;
}
