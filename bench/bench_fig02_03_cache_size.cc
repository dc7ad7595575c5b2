/**
 * @file
 * Reproduces Figures 2 and 3: impact of cache size (16K/64K/256K, 16B
 * blocks) on the Dragon scheme, model versus simulation, for four or
 * fewer processors (Figure 2) and eight or fewer (Figure 3). Each
 * figure's findings are computed from its rows and printed as holds
 * or FAILS; the binary exits 1 when a claim fails.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/mp/validation.hh"

namespace
{

using namespace swcc;

/** Largest |model - simulation| error a row may show, in percent. */
constexpr double kErrorBoundPct = 5.0;

/** Prints the figure and its findings; true when every claim holds. */
bool
runFigure(const char *title, AppProfile profile, CpuId max_cpus,
          std::size_t instructions)
{
    std::cout << "=== " << title << " (" << profileName(profile)
              << ") ===\n\n";
    TextTable table({"cache", "cpus", "sim power", "model power",
                     "error %", "msdat", "mains"});
    AsciiChart chart(56, 14);

    // Cache-size rows take very different times (256K simulates the
    // same trace against 4x the sets of 64K), so flatten the size x
    // cpus grid into one index space and let the pool balance it.
    constexpr std::array kCacheKb{16u, 64u, 256u};
    const std::vector<ValidationPoint> points = parallelMapGrid(
        kCacheKb.size(), max_cpus,
        [&](std::size_t row, std::size_t col) {
            ValidationConfig config;
            config.profile = profile;
            config.scheme = Scheme::Dragon;
            config.cacheBytes = kCacheKb[row] * std::size_t{1024};
            config.maxCpus = max_cpus;
            config.instructionsPerCpu = instructions;
            config.seed = 23;
            return validatePoint(config, static_cast<CpuId>(col + 1));
        });

    for (std::size_t row = 0; row < kCacheKb.size(); ++row) {
        const unsigned cache_kb = kCacheKb[row];
        Series sim_series;
        sim_series.label = std::to_string(cache_kb) + "K sim";
        Series model_series;
        model_series.label = std::to_string(cache_kb) + "K model";

        for (CpuId cpus = 1; cpus <= max_cpus; ++cpus) {
            const ValidationPoint &point =
                points[row * max_cpus + cpus - 1];
            table.addRow(
                {std::to_string(cache_kb) + "K",
                 formatNumber(point.cpus, 0),
                 formatNumber(point.simPower, 3),
                 formatNumber(point.modelPower, 3),
                 formatNumber(point.errorPercent(), 1),
                 formatNumber(point.sim.dataMissRate(), 4),
                 formatNumber(point.sim.instrMissRate(), 4)});
            sim_series.points.push_back(
                {static_cast<double>(point.cpus), point.simPower});
            model_series.points.push_back(
                {static_cast<double>(point.cpus), point.modelPower});
        }
        chart.addSeries(sim_series);
        chart.addSeries(model_series);
    }
    table.print(std::cout);
    exportCsv(table, std::string("fig02_03_cache_size_") +
                         std::string(profileName(profile)));
    chart.setAxisTitles("processors", "processing power");
    chart.print(std::cout);

    // At every CPU count, each larger cache must miss less and run
    // faster in simulation than the one below it.
    bool misses_fall = true;
    bool power_rises = true;
    double worst_error = 0.0;
    for (CpuId cpus = 1; cpus <= max_cpus; ++cpus) {
        for (std::size_t row = 1; row < kCacheKb.size(); ++row) {
            const ValidationPoint &smaller =
                points[(row - 1) * max_cpus + cpus - 1];
            const ValidationPoint &larger =
                points[row * max_cpus + cpus - 1];
            misses_fall = misses_fall &&
                larger.sim.dataMissRate() < smaller.sim.dataMissRate();
            power_rises =
                power_rises && larger.simPower > smaller.simPower;
        }
    }
    for (const ValidationPoint &point : points) {
        worst_error =
            std::max(worst_error, std::abs(point.errorPercent()));
    }
    bool holds = true;
    const auto claim = [&holds](bool ok, const std::string &text) {
        std::cout << "  [" << (ok ? "holds" : "FAILS") << "] " << text
                  << '\n';
        holds = holds && ok;
    };
    const std::string cpus =
        " at 1.." + std::to_string(max_cpus) + " CPUs";
    std::cout << "\nFindings:\n";
    claim(misses_fall,
          "the data miss rate falls from 16K to 64K to 256K" + cpus);
    claim(power_rises,
          "simulated power rises from 16K to 64K to 256K" + cpus);
    claim(worst_error <= kErrorBoundPct,
          "the model stays within " + formatNumber(kErrorBoundPct, 0) +
              "% of the simulation in every row (largest |error| " +
              formatNumber(worst_error, 1) + "%)");
    std::cout << '\n';
    return holds;
}

} // namespace

int
main()
{
    const bool fig2 =
        runFigure("Figure 2: cache size impact on Dragon, <= 4 CPUs",
                  AppProfile::PopsLike, 4, 120'000);
    const bool fig3 =
        runFigure("Figure 3: cache size impact on Dragon, <= 8 CPUs",
                  AppProfile::PeroLike, 8, 90'000);
    return fig2 && fig3 ? 0 : 1;
}
