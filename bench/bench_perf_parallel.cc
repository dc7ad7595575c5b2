/**
 * @file
 * Thread-scaling harness for the campaign engine: times the Table 8
 * sensitivity grid and a trace-driven validation matrix at 1/2/4/8
 * threads, each with journaling off and on, checks every configuration
 * produces bit-identical results, and writes the measured matrix to
 * bench_results/perf_parallel_speedup.csv. A solver-memo section
 * times the analytical evaluators cache-cold vs cache-warm.
 *
 * Modes:
 *   (default)              full measurement + CSV export
 *   --smoke                small workloads, no CSV — the ctest gate
 *   --assert-speedup X     exit nonzero unless the validation matrix
 *                          speeds up by at least X at 4 threads (the
 *                          sub-millisecond sensitivity grid is too
 *                          short to scale); the check self-gates
 *                          (skips) on hosts with fewer than 4
 *                          hardware threads, where a wall-clock
 *                          speedup is physically unmeasurable.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/swcc.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/rng.hh"

namespace
{

using namespace swcc;

struct BenchConfig
{
    bool smoke = false;
    double assertSpeedup = 0.0;
    int reps = 3;
    std::vector<unsigned> threads{1, 2, 4, 8};
};

/** Wall-clock seconds of @p body, best of @p reps runs. */
template <typename Body>
double
bestOf(int reps, Body &&body)
{
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = clock::now();
        body();
        const std::chrono::duration<double> elapsed =
            clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

/** The grid-averaged Table 8 (108 cells x 27-point companion grids). */
std::vector<SensitivityEntry>
sensitivityWork(const BenchConfig &bench,
                const campaign::CampaignOptions &options)
{
    SensitivityConfig config;
    config.averageOverGrid = !bench.smoke;
    return sensitivityTable(config, options);
}

/**
 * A small validation matrix: one trace-driven simulator instance per
 * (scheme, cpus) cell, every cell seeded from its index via Rng::split
 * so the matrix is identical however the cells are scheduled.
 */
std::vector<ValidationPoint>
validationWork(const BenchConfig &bench,
               const campaign::CampaignOptions &options)
{
    const Rng seeder(1989);
    std::vector<ValidationPoint> matrix;
    std::uint64_t cell = 0;
    for (Scheme scheme : {Scheme::Base, Scheme::Dragon}) {
        ValidationConfig config;
        config.scheme = scheme;
        config.maxCpus = bench.smoke ? 2 : 4;
        config.instructionsPerCpu = bench.smoke ? 20'000 : 40'000;
        config.seed = seeder.split(cell++).next();
        const auto points = validate(config, options);
        matrix.insert(matrix.end(), points.begin(), points.end());
    }
    return matrix;
}

bool
identicalSensitivity(const std::vector<SensitivityEntry> &a,
                     const std::vector<SensitivityEntry> &b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].timeLow != b[i].timeLow ||
            a[i].timeHigh != b[i].timeHigh ||
            a[i].percentChange != b[i].percentChange) {
            return false;
        }
    }
    return true;
}

bool
identicalValidation(const std::vector<ValidationPoint> &a,
                    const std::vector<ValidationPoint> &b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].simPower != b[i].simPower ||
            a[i].modelPower != b[i].modelPower) {
            return false;
        }
    }
    return true;
}

/** Journal path for one timed configuration; removed before use. */
std::string
journalPath(const std::string &tag)
{
    const auto path = std::filesystem::temp_directory_path() /
        ("swcc_bench_parallel_" + tag + ".journal");
    std::filesystem::remove(path);
    return path.string();
}

/**
 * Times @p work at every thread count with journaling off and on,
 * verifying each configuration reproduces the 1-thread no-journal
 * result bit for bit. Returns the best no-journal speedup measured at
 * @p assert_threads (0.0 when that count was not run).
 */
template <typename Work, typename Identical>
double
sweepConfigurations(TextTable &table, const BenchConfig &bench,
                    const std::string &name, Work &&work,
                    Identical &&identical, unsigned assert_threads,
                    bool &all_identical)
{
    // The engine-scaling rows time the solvers cache-cold every run:
    // a warm memo would collapse the sensitivity grid to map lookups
    // and hide the scheduling behaviour this bench exists to watch.
    setSolverCacheEnabled(false);

    campaign::CampaignOptions plain;
    setThreadCount(1);
    const auto reference = work(plain);
    const double serial = bestOf(bench.reps, [&] { work(plain); });

    double at_assert_threads = 0.0;
    for (unsigned threads : bench.threads) {
        setThreadCount(threads);

        const auto no_journal_result = work(plain);
        const double no_journal =
            bestOf(bench.reps, [&] { work(plain); });

        campaign::CampaignOptions journaled;
        journaled.journalPath =
            journalPath(name + "_t" + std::to_string(threads));
        const auto journal_result = work(journaled);
        const double journal = bestOf(bench.reps, [&] {
            std::filesystem::remove(journaled.journalPath);
            work(journaled);
        });
        std::filesystem::remove(journaled.journalPath);

        const bool ok = identical(reference, no_journal_result) &&
            identical(reference, journal_result);
        all_identical = all_identical && ok;

        const double speedup = serial / no_journal;
        if (threads == assert_threads) {
            at_assert_threads = speedup;
        }
        table.addRow({name, std::to_string(threads),
                      formatNumber(no_journal * 1e3, 1),
                      formatNumber(journal * 1e3, 1),
                      formatNumber(speedup, 2) + "x",
                      ok ? "yes" : "NO"});
    }
    setThreadCount(0);
    setSolverCacheEnabled(true);
    return at_assert_threads;
}

/**
 * Times the analytical evaluators cache-cold vs cache-warm: the same
 * power curves and sensitivity solves a campaign re-issues, keyed into
 * the solver memo. Appends two rows; returns the warm speedup.
 */
double
memoRows(TextTable &table, const BenchConfig &bench,
         bool &all_identical)
{
    const unsigned max_cpus = bench.smoke ? 16 : 64;
    const auto curves = [&] {
        std::vector<BusSolution> last;
        for (Scheme scheme : kAllSchemes) {
            last = busPowerCurve(scheme, middleParams(), max_cpus);
        }
        return last;
    };

    setThreadCount(1);
    setSolverCacheEnabled(true);
    clearSolverCache();
    const auto cold_result = curves();
    const double cold = bestOf(bench.reps, [&] {
        clearSolverCache();
        curves();
    });
    const auto warm_result = curves();
    const double warm = bestOf(bench.reps, [&] { curves(); });
    setThreadCount(0);

    bool ok = cold_result.size() == warm_result.size();
    for (std::size_t i = 0; ok && i < cold_result.size(); ++i) {
        ok = cold_result[i].processingPower ==
            warm_result[i].processingPower;
    }
    all_identical = all_identical && ok;

    const double speedup = cold / warm;
    table.addRow({"solver memo (cold)", "1",
                  formatNumber(cold * 1e3, 3), "-", "1.00x",
                  ok ? "yes" : "NO"});
    table.addRow({"solver memo (warm)", "1",
                  formatNumber(warm * 1e3, 3), "-",
                  formatNumber(speedup, 2) + "x",
                  ok ? "yes" : "NO"});
    return speedup;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig bench;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            bench.smoke = true;
            bench.reps = 1;
            bench.threads = {1, 2};
        } else if (arg == "--assert-speedup" && i + 1 < argc) {
            bench.assertSpeedup = std::atof(argv[++i]);
        } else {
            std::cerr << "usage: bench_perf_parallel [--smoke] "
                         "[--assert-speedup X]\n";
            return 2;
        }
    }

    std::cout << "=== Campaign engine thread scaling ("
              << hardwareThreads() << " hardware threads) ===\n\n";

    TextTable table({"experiment", "threads", "no journal ms",
                     "journal ms", "speedup", "identical"});
    bool all_identical = true;

    sweepConfigurations(
        table, bench, "sensitivity grid (Table 8)",
        [&](const campaign::CampaignOptions &options) {
            return sensitivityWork(bench, options);
        },
        identicalSensitivity, 4, all_identical);
    const double validation_speedup = sweepConfigurations(
        table, bench, "validation matrix",
        [&](const campaign::CampaignOptions &options) {
            return validationWork(bench, options);
        },
        identicalValidation, 4, all_identical);
    memoRows(table, bench, all_identical);

    table.print(std::cout);

    if (!all_identical) {
        std::cout << "\nFAIL: a configuration changed the results\n";
        return 1;
    }
    std::cout << "\nall configurations bit-identical\n";

    if (!bench.smoke) {
        std::cout << exportCsv(table, "perf_parallel_speedup")
                  << " written\n";
    }

    if (bench.assertSpeedup > 0.0) {
        if (hardwareThreads() < 4) {
            std::cout << "speedup assertion skipped: only "
                      << hardwareThreads()
                      << " hardware threads (need 4)\n";
            return 0;
        }
        std::cout << "validation matrix at 4 threads: "
                  << formatNumber(validation_speedup, 2)
                  << "x (required " << bench.assertSpeedup << "x)\n";
        if (validation_speedup < bench.assertSpeedup) {
            std::cout << "FAIL: below required speedup\n";
            return 1;
        }
    }
    return 0;
}
