/**
 * @file
 * Reproduces Table 8: per-parameter sensitivity of execution time,
 * reported as the percent change when a parameter moves from its low
 * to its high value with every other parameter held at its middle
 * value (16-processor bus system).
 */

#include <iostream>

#include "core/campaign/campaign.hh"
#include "core/obs/obs.hh"
#include "core/swcc.hh"

int
main(int argc, char **argv)
{
    using namespace swcc;
    obs::consumeArgs(argc, argv);

    SensitivityConfig config;
    config.processors = 16;
    // Journaled + resumable when SWCC_JOURNAL_DIR is set (see
    // campaign.hh); the default is a plain uncheckpointed run.
    campaign::CampaignReport report;
    const auto table = sensitivityTable(
        config, campaign::envCampaignOptions("table8"), &report);

    std::cout << "Table 8: Sensitivity to parameter variation "
                 "(% change in execution time, low -> high,\n"
                 "all other parameters at middle values; "
              << config.processors << "-processor bus)\n\n";

    TextTable out({"Parameter", "Software-Flush", "No-Cache", "Dragon",
                   "Base"});
    for (ParamId param : kAllParams) {
        std::vector<std::string> row{std::string(paramName(param))};
        for (Scheme scheme : {Scheme::SoftwareFlush, Scheme::NoCache,
                              Scheme::Dragon, Scheme::Base}) {
            for (const SensitivityEntry &entry : table) {
                if (entry.param == param && entry.scheme == scheme) {
                    row.push_back(formatNumber(entry.percentChange, 1));
                }
            }
        }
        out.addRow(std::move(row));
    }
    out.print(std::cout);
    exportCsv(out, "table8_sensitivity");

    std::cout << "\nRanking by |% change| per scheme:\n";
    for (Scheme scheme : {Scheme::SoftwareFlush, Scheme::NoCache,
                          Scheme::Dragon, Scheme::Base}) {
        std::cout << "  " << schemeName(scheme) << ":";
        for (const SensitivityEntry &entry :
             rankedSensitivities(table, scheme)) {
            if (std::abs(entry.percentChange) < 0.5) {
                continue;
            }
            std::cout << ' ' << paramName(entry.param) << " ("
                      << formatNumber(entry.percentChange, 0) << "%)";
        }
        std::cout << '\n';
    }

    std::cout << "\nPaper's qualitative claims to compare against:\n"
                 "  - Software-Flush: apl has a huge effect, shd almost "
                 "as great, ls significant,\n"
                 "    miss rates noticeably smaller, others minor.\n"
                 "  - No-Cache: same picture minus apl.\n"
                 "  - Dragon: overall hit rate beats sharing level.\n"
                 "  - wr unimportant everywhere.\n";
    if (report.fromJournal > 0) {
        std::cerr << "campaign: " << report.summary() << '\n';
    }
    obs::finalize();
    return 0;
}
