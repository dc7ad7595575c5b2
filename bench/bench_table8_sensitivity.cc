/**
 * @file
 * Reproduces Table 8: per-parameter sensitivity of execution time,
 * reported as the percent change when a parameter moves from its low
 * to its high value with every other parameter held at its middle
 * value (16-processor bus system). The paper's qualitative claims are
 * computed from the unrounded rows and printed as holds or FAILS; the
 * binary exits 1 when a claim fails.
 */

#include <cmath>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "core/campaign/campaign.hh"
#include "core/obs/obs.hh"
#include "core/swcc.hh"

namespace
{

using namespace swcc;

/** A parameter moving execution time by less than this many percent
 *  is minor. */
constexpr double kMinorPct = 1.0;
/** ... and by less than this, it leaves execution time unmoved. */
constexpr double kUnmovedPct = 0.05;

/** Percent change of @p param for @p scheme, or NaN (failing every
 *  claim) when the table lacks it. */
double
change(const std::vector<SensitivityEntry> &table, Scheme scheme,
       ParamId param)
{
    for (const SensitivityEntry &entry : table) {
        if (entry.scheme == scheme && entry.param == param) {
            return entry.percentChange;
        }
    }
    return std::nan("");
}

/** Place of @p param among @p scheme's parameters by |% change|, 1 for
 *  the largest. */
std::size_t
rank(const std::vector<SensitivityEntry> &table, Scheme scheme,
     ParamId param)
{
    const std::vector<SensitivityEntry> ranked =
        rankedSensitivities(table, scheme);
    std::size_t place = 1;
    while (place <= ranked.size() && ranked[place - 1].param != param) {
        ++place;
    }
    return place;
}

/** A signed percentage with one decimal ("+13.6%", "-21.1%"). */
std::string
signedPct(double pct)
{
    return (pct > 0.0 ? "+" : "") + formatNumber(pct, 1) + "%";
}

/** Prints the paper's claims as computed from @p table; true when
 *  every one holds. */
bool
checkClaims(const std::vector<SensitivityEntry> &table)
{
    constexpr Scheme kFlush = Scheme::SoftwareFlush;
    constexpr Scheme kNoCache = Scheme::NoCache;
    constexpr Scheme kDragon = Scheme::Dragon;
    bool holds = true;
    const auto claim = [&holds](bool ok, const std::string &text) {
        std::cout << "  [" << (ok ? "holds" : "FAILS") << "] " << text
                  << '\n';
        holds = holds && ok;
    };
    const auto effect = [&table](Scheme scheme, ParamId param) {
        return std::abs(change(table, scheme, param));
    };
    // True when every parameter of params moves scheme's time by at
    // least low and less than high percent.
    const auto within = [&effect](Scheme scheme,
                                  std::initializer_list<ParamId> params,
                                  double low, double high) {
        for (ParamId param : params) {
            const double pct = effect(scheme, param);
            if (!(pct >= low && pct < high)) {
                return false;
            }
        }
        return true;
    };
    const auto pct = [&table](Scheme scheme, ParamId param) {
        return signedPct(change(table, scheme, param));
    };

    std::cout << "\nFindings (the paper's claims, from the rows):\n";
    claim(rank(table, kFlush, ParamId::InvApl) == 1 &&
              rank(table, kFlush, ParamId::Shd) == 2 &&
              rank(table, kFlush, ParamId::Ls) == 3,
          "Software-Flush: 1/apl has a huge effect (" +
              pct(kFlush, ParamId::InvApl) + "), shd is next (" +
              pct(kFlush, ParamId::Shd) + "), then ls (" +
              pct(kFlush, ParamId::Ls) + ")");
    claim(within(kFlush,
                 {ParamId::Msdat, ParamId::Mains, ParamId::Md,
                  ParamId::Mdshd},
                 kMinorPct, effect(kFlush, ParamId::Ls)),
          "Software-Flush: each miss rate moves it noticeably but less "
          "than ls (msdat " + pct(kFlush, ParamId::Msdat) + ", mains " +
              pct(kFlush, ParamId::Mains) + ", md " +
              pct(kFlush, ParamId::Md) + ", mdshd " +
              pct(kFlush, ParamId::Mdshd) + ")");
    claim(within(kFlush,
                 {ParamId::Wr, ParamId::Oclean, ParamId::Opres,
                  ParamId::Nshd},
                 0.0, kMinorPct),
          "Software-Flush: wr, oclean, opres and nshd are minor (each "
          "under " + formatNumber(kMinorPct, 0) + "%)");
    claim(rank(table, kNoCache, ParamId::Shd) == 1 &&
              rank(table, kNoCache, ParamId::Ls) == 2 &&
              effect(kNoCache, ParamId::InvApl) < kUnmovedPct &&
              within(kNoCache,
                     {ParamId::Msdat, ParamId::Mains, ParamId::Md},
                     kMinorPct, effect(kNoCache, ParamId::Ls)),
          "No-Cache: the same picture without apl: shd first (" +
              pct(kNoCache, ParamId::Shd) + "), ls second (" +
              pct(kNoCache, ParamId::Ls) + "), 1/apl unmoved, each miss "
              "rate less than ls");
    claim(effect(kDragon, ParamId::Msdat) > effect(kDragon, ParamId::Shd),
          "Dragon: the overall miss rate moves it more than the sharing "
          "level (msdat " + pct(kDragon, ParamId::Msdat) + ", shd " +
              pct(kDragon, ParamId::Shd) + ")");

    // The paper calls wr unimportant everywhere; the rows bound that.
    bool wr_outside_top_two = true;
    for (Scheme scheme : {kFlush, kNoCache, kDragon, Scheme::Base}) {
        wr_outside_top_two =
            wr_outside_top_two && rank(table, scheme, ParamId::Wr) > 2;
    }
    claim(wr_outside_top_two, "wr is in no scheme's top two parameters");
    claim(effect(kFlush, ParamId::Wr) < kUnmovedPct &&
              effect(Scheme::Base, ParamId::Wr) < kUnmovedPct &&
              effect(kNoCache, ParamId::Wr) > kMinorPct &&
              effect(kDragon, ParamId::Wr) > kMinorPct,
          "wr leaves Software-Flush and Base unmoved but moves the "
          "schemes whose shared writes reach the bus: No-Cache (" +
              pct(kNoCache, ParamId::Wr) + ") and Dragon (" +
              pct(kDragon, ParamId::Wr) + ")");
    return holds;
}

} // namespace

int
main(int argc, char **argv)
{
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

    const bool holds = checkClaims(table);
    if (report.fromJournal > 0) {
        std::cerr << "campaign: " << report.summary() << '\n';
    }
    obs::finalize();
    return holds ? 0 : 1;
}
