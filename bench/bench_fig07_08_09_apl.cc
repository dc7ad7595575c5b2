/**
 * @file
 * Reproduces Figures 7-9: the dependence of Software-Flush on apl
 * (references to a shared block before it is flushed).
 *
 * Figure 7: scheme comparison with apl at its extremes; Figures 8-9:
 * processing power versus apl at low and medium sharing. The findings
 * are computed from the unrounded rows and printed as holds or FAILS;
 * the binary exits 1 when a claim fails.
 */

#include <cmath>
#include <iostream>
#include <string>

#include "core/swcc.hh"

namespace
{

using namespace swcc;

/** How close, in percent, apl 16 must come to apl 512 for the benefit
 *  of apl to have saturated (the paper's "saturates quickly"). */
constexpr double kSaturationPct = 10.0;

/** Figure 7's rows at the two ends of its apl axis. */
struct AplExtremes
{
    double softwareFlushAtOne = std::nan("");
    double noCacheAtOne = std::nan("");
    double topApl = std::nan("");
    double softwareFlushAtTop = std::nan("");
    double dragonAtTop = std::nan("");
};

AplExtremes
figure7()
{
    std::cout << "=== Figure 7: effect of varying apl (16 CPUs, other "
                 "parameters medium) ===\n\n";
    const WorkloadParams params = middleParams();
    TextTable table({"apl", "Software-Flush", "No-Cache", "Dragon",
                     "Base"});
    AplExtremes extremes;
    for (double apl : {1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0}) {
        WorkloadParams p = params;
        p.apl = apl;
        const double swf =
            evaluateBus(Scheme::SoftwareFlush, p, 16).processingPower;
        const double nocache =
            evaluateBus(Scheme::NoCache, p, 16).processingPower;
        const double dragon =
            evaluateBus(Scheme::Dragon, p, 16).processingPower;
        if (apl == 1.0) {
            extremes.softwareFlushAtOne = swf;
            extremes.noCacheAtOne = nocache;
        }
        // The rows run upward, so the last one is the highest apl.
        extremes.topApl = apl;
        extremes.softwareFlushAtTop = swf;
        extremes.dragonAtTop = dragon;
        table.addRow(
            {formatNumber(apl, 0), formatNumber(swf, 2),
             formatNumber(nocache, 2), formatNumber(dragon, 2),
             formatNumber(
                 evaluateBus(Scheme::Base, p, 16).processingPower, 2)});
    }
    table.print(std::cout);
    exportCsv(table, "fig07_apl_schemes");
    std::cout << '\n';
    return extremes;
}

Series
aplSweep(const char *title, Level sharing, unsigned cpus)
{
    WorkloadParams params = middleParams();
    setParam(params, ParamId::Shd, paramLevelValue(ParamId::Shd, sharing));
    std::cout << "=== " << title
              << " (shd=" << formatNumber(params.shd, 2) << ", " << cpus
              << " CPUs) ===\n\n";

    const std::vector<double> apls = logspace(1.0, 512.0, 10);
    const Series series =
        aplPowerSeries(Scheme::SoftwareFlush, params, apls, cpus);

    TextTable table({"apl", "Software-Flush power", "fraction of Dragon"});
    const double dragon =
        evaluateBus(Scheme::Dragon, params, cpus).processingPower;
    for (const SeriesPoint &point : series.points) {
        table.addRow({formatNumber(point.x, 1),
                      formatNumber(point.y, 2),
                      formatNumber(point.y / dragon, 2)});
    }
    table.print(std::cout);
    exportCsv(table, std::string("fig08_09_apl_") +
                         std::string(levelName(sharing)));

    AsciiChart chart(56, 12);
    chart.addSeries(series);
    chart.setAxisTitles("apl", "processing power");
    chart.print(std::cout);
    std::cout << '\n';
    return series;
}

/** Power at @p apl on @p series, or NaN (failing every claim) when no
 *  row sits there. */
double
powerAt(const Series &series, double apl)
{
    for (const SeriesPoint &point : series.points) {
        if (std::abs(point.x - apl) <= 1e-9 * apl) {
            return point.y;
        }
    }
    return std::nan("");
}

/** Percent change from @p from to @p to. */
double
percentChange(double from, double to)
{
    return 100.0 * (to - from) / from;
}

/** A signed percentage with one decimal ("+3.9%", "-6.1%"). */
std::string
signedPct(double pct)
{
    return (pct > 0.0 ? "+" : "") + formatNumber(pct, 1) + "%";
}

} // namespace

int
main()
{
    const AplExtremes fig7 = figure7();
    const Series low = aplSweep("Figure 8: effect of apl with low sharing",
                                Level::Low, 16);
    const Series medium = aplSweep(
        "Figure 9: effect of apl with medium sharing", Level::Middle, 16);

    bool holds = true;
    const auto claim = [&holds](bool ok, const std::string &text) {
        std::cout << "  [" << (ok ? "holds" : "FAILS") << "] " << text
                  << '\n';
        holds = holds && ok;
    };
    std::cout << "Findings:\n";
    claim(fig7.softwareFlushAtOne < fig7.noCacheAtOne,
          "at apl 1 every shared reference flushes and refetches: "
          "Software-Flush is below No-Cache (" +
              formatNumber(fig7.softwareFlushAtOne, 2) + " against " +
              formatNumber(fig7.noCacheAtOne, 2) + ")");
    claim(fig7.softwareFlushAtTop >= fig7.dragonAtTop,
          "at the highest apl (" + formatNumber(fig7.topApl, 0) +
              ") Software-Flush reaches or beats Dragon (" +
              formatNumber(fig7.softwareFlushAtTop, 2) + " against " +
              formatNumber(fig7.dragonAtTop, 2) + ")");

    const double low_at_16 =
        percentChange(powerAt(low, 512.0), powerAt(low, 16.0));
    const double medium_at_16 =
        percentChange(powerAt(medium, 512.0), powerAt(medium, 16.0));
    const std::string bound = formatNumber(kSaturationPct, 0) + "%";
    claim(std::abs(low_at_16) <= kSaturationPct,
          "with low sharing the benefit of apl saturates quickly: apl 16 "
          "is within " + bound + " of apl 512 (" + signedPct(low_at_16) +
              ")");
    claim(std::abs(medium_at_16) > kSaturationPct,
          "with medium sharing it does not: apl 16 is not within " +
              bound + " of apl 512 (" + signedPct(medium_at_16) + ")");

    const double low_gain =
        percentChange(powerAt(low, 64.0), powerAt(low, 512.0));
    const double medium_gain =
        percentChange(powerAt(medium, 64.0), powerAt(medium, 512.0));
    claim(medium_gain > low_gain,
          "medium sharing stays sensitive to apl at high values: from "
          "apl 64 to 512 it gains " + signedPct(medium_gain) +
              " against " + signedPct(low_gain) + " with low sharing");
    return holds ? 0 : 1;
}
