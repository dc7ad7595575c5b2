/**
 * @file
 * Before/after performance harness for the trace-driven simulator.
 *
 * Section 1 times every coherence protocol on a sharing-heavy
 * pero-like 16-CPU workload twice — once forced onto the retained
 * pre-optimisation reference snoop path (O(P) scans over all caches)
 * and once on the sharer-index directory path — asserting that the two
 * runs produce byte-identical SimStats before reporting events/sec and
 * the speedup. Section 2 times a Dragon validation sweep at one thread
 * versus all hardware threads, asserting the per-point statistics are
 * byte-identical across thread counts.
 *
 * The per-scheme table lands in bench_results/perf_simulator_speedup.csv.
 * Any statistics divergence makes the process exit non-zero, which is
 * how the `--smoke` ctest target (a scaled-down run of the same
 * checks) turns a snoop-path or determinism regression into a test
 * failure.
 */

#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/cache/invalidate_protocol.hh"
#include "sim/mp/system.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace
{

using namespace swcc;

/** Scaled-down --smoke run for ctest; full run for reporting. */
struct HarnessConfig
{
    std::size_t instructionsPerCpu = 40'000;
    CpuId cpus = 16;
    int reps = 3;
    CpuId sweepMaxCpus = 6;
    std::size_t sweepInstructions = 30'000;
    // Wide-machine rows: many holders per block, so the dirty-holder
    // bitset path (update-based schemes on the directory) is loaded.
    CpuId bigCpus = 48;
    std::size_t bigInstructionsPerCpu = 20'000;
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

/** One protocol under test; factory builds a cold system per run. */
struct SchemeCase
{
    std::string name;
    CpuId cpus = 0;
    const TraceBuffer *trace = nullptr;
    std::function<std::unique_ptr<MultiprocessorSystem>()> make;
};

/** Statistics and best-of timing of one (scheme, snoop path) cell. */
struct PathResult
{
    std::string serialized;
    double seconds = 0.0;
};

PathResult
runPath(const SchemeCase &scheme_case, SnoopPath path, int reps)
{
    PathResult result;
    // Every reference (including the timed ones) constructs a fresh
    // system: caches must be cold, and construction cost is noise next
    // to replaying the trace.
    result.serialized = [&] {
        auto system = scheme_case.make();
        system->setSnoopPath(path);
        return system->run(*scheme_case.trace).serialize();
    }();
    result.seconds = bestOf(reps, [&] {
        auto system = scheme_case.make();
        system->setSnoopPath(path);
        system->run(*scheme_case.trace);
    });
    return result;
}

/** Per-scheme reference-vs-directory table; true if all stats match. */
bool
reportSnoopPathSpeedup(const HarnessConfig &config)
{
    std::cout << "=== Simulator snoop path: reference scan vs "
                 "sharer-index directory ===\n"
              << "(pero-like workload, "
              << static_cast<unsigned>(config.cpus) << " CPUs, "
              << config.instructionsPerCpu
              << " instructions per CPU, 64KB caches)\n\n";

    // The sharing-heavy pero-like profile stresses the snoop paths the
    // hardest: broadcasts and coherence misses dominate, so every
    // event used to pay O(P) cache scans.
    const SyntheticWorkloadConfig hw_workload =
        profileConfig(AppProfile::PeroLike, config.cpus,
                      config.instructionsPerCpu, 55, false);
    const TraceBuffer hw_trace = generateTrace(hw_workload);
    const SharedClassifier shared = hw_workload.sharedClassifier();
    const TraceBuffer sw_trace = generateTrace(
        profileConfig(AppProfile::PeroLike, config.cpus,
                      config.instructionsPerCpu, 55, true));

    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;

    // Wide-machine workload: same sharing-heavy profile at bigCpus so
    // blocks accumulate many holders and bus writes under the
    // update-based schemes exercise the dirty-holder bitset.
    const SyntheticWorkloadConfig big_workload =
        profileConfig(AppProfile::PeroLike, config.bigCpus,
                      config.bigInstructionsPerCpu, 55, false);
    const TraceBuffer big_trace = generateTrace(big_workload);
    const SharedClassifier big_shared = big_workload.sharedClassifier();

    const auto paper = [&](Scheme scheme, const TraceBuffer &trace) {
        return SchemeCase{
            std::string(schemeName(scheme)), config.cpus, &trace,
            [&, scheme] {
                return std::make_unique<MultiprocessorSystem>(
                    scheme, cache, config.cpus, shared);
            }};
    };
    const std::vector<SchemeCase> cases{
        paper(Scheme::Base, hw_trace),
        paper(Scheme::NoCache, hw_trace),
        paper(Scheme::SoftwareFlush, sw_trace),
        paper(Scheme::Dragon, hw_trace),
        SchemeCase{"invalidate", config.cpus, &hw_trace, [&] {
            return std::make_unique<MultiprocessorSystem>(
                std::make_unique<InvalidateProtocol>(cache,
                                                     config.cpus));
        }},
        SchemeCase{"dragon", config.bigCpus, &big_trace, [&] {
            return std::make_unique<MultiprocessorSystem>(
                Scheme::Dragon, cache, config.bigCpus, big_shared);
        }},
        SchemeCase{"invalidate", config.bigCpus, &big_trace, [&] {
            return std::make_unique<MultiprocessorSystem>(
                std::make_unique<InvalidateProtocol>(cache,
                                                     config.bigCpus));
        }},
    };

    TextTable table({"scheme", "cpus", "events", "reference ms",
                     "directory ms", "ref Mev/s", "dir Mev/s", "speedup",
                     "identical"});
    bool all_identical = true;
    for (const SchemeCase &scheme_case : cases) {
        const PathResult reference =
            runPath(scheme_case, SnoopPath::ReferenceScan, config.reps);
        const PathResult directory =
            runPath(scheme_case, SnoopPath::Directory, config.reps);
        const bool identical =
            reference.serialized == directory.serialized;
        all_identical = all_identical && identical;

        const auto events =
            static_cast<double>(scheme_case.trace->size());
        table.addRow(
            {scheme_case.name,
             std::to_string(unsigned{scheme_case.cpus}),
             formatNumber(events, 0),
             formatNumber(reference.seconds * 1e3, 1),
             formatNumber(directory.seconds * 1e3, 1),
             formatNumber(events / reference.seconds / 1e6, 2),
             formatNumber(events / directory.seconds / 1e6, 2),
             formatNumber(reference.seconds / directory.seconds, 2) +
                 "x",
             identical ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::cout << '\n' << exportCsv(table, "perf_simulator_speedup")
              << " written\n";
    return all_identical;
}

/** Serial-vs-parallel sweep timing; true if stats thread-invariant. */
bool
reportSweepSpeedup(const HarnessConfig &config)
{
    const unsigned parallel_threads = std::max(4u, hardwareThreads());
    std::cout << "\n=== Simulation sweep: 1 thread vs "
              << parallel_threads << " threads ===\n"
              << "(Dragon validation sweep, 1.."
              << static_cast<unsigned>(config.sweepMaxCpus)
              << " CPUs)\n\n";

    ValidationConfig sweep;
    sweep.profile = AppProfile::PeroLike;
    sweep.scheme = Scheme::Dragon;
    sweep.maxCpus = config.sweepMaxCpus;
    sweep.instructionsPerCpu = config.sweepInstructions;
    sweep.seed = 1989;

    const auto serialized_sweep = [&] {
        std::vector<std::string> result;
        for (const ValidationPoint &point : validate(sweep)) {
            result.push_back(point.sim.serialize());
        }
        return result;
    };

    // Memo off: with it, every sweep after the first would copy the
    // stored extractions, and the parallel row would time lookups and
    // compare copies instead of simulating.
    setSolverCacheEnabled(false);
    setThreadCount(1);
    const std::vector<std::string> serial_stats = serialized_sweep();
    const double serial = bestOf(config.reps, [&] { validate(sweep); });
    setThreadCount(parallel_threads);
    const std::vector<std::string> parallel_stats = serialized_sweep();
    const double parallel =
        bestOf(config.reps, [&] { validate(sweep); });
    setThreadCount(0);
    setSolverCacheEnabled(true);

    const bool identical = serial_stats == parallel_stats;
    TextTable table({"serial ms", "parallel ms", "speedup", "threads",
                     "identical"});
    table.addRow({formatNumber(serial * 1e3, 1),
                  formatNumber(parallel * 1e3, 1),
                  formatNumber(serial / parallel, 2) + "x",
                  std::to_string(parallel_threads),
                  identical ? "yes" : "NO"});
    table.print(std::cout);
    return identical;
}

/**
 * Observability overhead: Dragon run with the tracer disabled (the
 * default one-branch-on-null path) versus enabled, asserting the
 * simulator statistics are byte-identical either way. The disabled
 * throughput is the number the ≤2% regression budget is judged on.
 */
bool
reportObservabilityOverhead(const HarnessConfig &config)
{
    std::cout << "\n=== Observability: tracer disabled vs enabled ===\n"
              << "(Dragon, pero-like, "
              << static_cast<unsigned>(config.cpus) << " CPUs)\n\n";

    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PeroLike, config.cpus,
                      config.instructionsPerCpu, 55, false);
    const TraceBuffer trace = generateTrace(workload);
    const SharedClassifier shared = workload.sharedClassifier();
    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;

    const auto timed_run = [&](bool tracing) {
        obs::tracer().setEnabled(tracing);
        PathResult result;
        result.serialized = [&] {
            MultiprocessorSystem system(Scheme::Dragon, cache,
                                        config.cpus, shared);
            return system.run(trace).serialize();
        }();
        result.seconds = bestOf(config.reps, [&] {
            MultiprocessorSystem system(Scheme::Dragon, cache,
                                        config.cpus, shared);
            system.run(trace);
        });
        obs::tracer().setEnabled(false);
        return result;
    };

    const PathResult off = timed_run(false);
    const PathResult on = timed_run(true);
    const bool identical = off.serialized == on.serialized;

    const auto events = static_cast<double>(trace.size());
    TextTable table({"tracing", "ms", "Mev/s", "identical"});
    table.addRow({"off", formatNumber(off.seconds * 1e3, 1),
                  formatNumber(events / off.seconds / 1e6, 2),
                  identical ? "yes" : "NO"});
    table.addRow({"on", formatNumber(on.seconds * 1e3, 1),
                  formatNumber(events / on.seconds / 1e6, 2),
                  identical ? "yes" : "NO"});
    table.print(std::cout);
    std::cout << "tracing overhead: "
              << formatNumber(
                     100.0 * (on.seconds - off.seconds) / off.seconds, 1)
              << "%\n";
    return identical;
}

} // namespace

int
main(int argc, char **argv)
{
    swcc::obs::consumeArgs(argc, argv);
    HarnessConfig config;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            config.instructionsPerCpu = 3'000;
            config.cpus = 8;
            config.reps = 1;
            config.sweepMaxCpus = 4;
            config.sweepInstructions = 5'000;
            config.bigCpus = 24;
            config.bigInstructionsPerCpu = 1'500;
        } else {
            std::cerr << "usage: bench_perf_simulator [--smoke]\n";
            return 1;
        }
    }

    const bool paths_ok = reportSnoopPathSpeedup(config);
    const bool sweep_ok = reportSweepSpeedup(config);
    const bool obs_ok = reportObservabilityOverhead(config);
    if (!paths_ok || !sweep_ok || !obs_ok) {
        std::cerr << "\nFAIL: statistics diverged between snoop paths, "
                     "thread counts, or tracing modes\n";
        return 1;
    }
    std::cout << "\nAll statistics byte-identical across snoop paths, "
                 "thread counts, and tracing modes.\n";
    swcc::obs::finalize();
    return 0;
}
