/**
 * @file
 * replay: the `swcc sim` path, the only workload that decodes trace
 * files. Set-up writes pero-like traces at 16 and 48 CPUs in text and
 * binary form; one operation is loadTrace() followed by
 * simulateTrace() under Dragon or MESI, as `swcc sim` composes them.
 * At 16-48 CPUs the sharer-index directory is on the simulator's hot
 * path, which validate's <= 8 CPUs barely touch.
 */

#include <cmath>
#include <filesystem>
#include <optional>

#include "core/scheme_evaluator.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"
#include "sim/trace/trace_io.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace swcc;

/** Sized so one pass of the eight operations takes about a second. */
constexpr std::size_t kInstructionsPerCpu = 12'000;
constexpr CpuId kCpus[] = {16, 48};
constexpr Scheme kSchemes[] = {Scheme::Dragon, Scheme::Mesi};

struct TraceFile
{
    CpuId cpus = 0;
    bool binary = false;
    std::string path;
    std::uintmax_t bytes = 0;
};

/** `swcc sim`'s cache and shared region (tools/cli/commands.cc). */
CacheConfig
cliCache()
{
    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;
    cache.associativity = 1;
    return cache;
}

bool
cliShared(Addr addr)
{
    return addr >= SyntheticWorkloadConfig::kSharedBase;
}

std::uint64_t
statsHash(const SimStats &stats)
{
    const std::string text = stats.serialize();
    return fnv1a(text.data(), text.size());
}

bool
sameEvents(const TraceBuffer &a, const TraceBuffer &b)
{
    return a.numCpus() == b.numCpus() && a.events() == b.events();
}

struct SpanNames
{
    std::uint32_t op = spanLog().intern("replay.op");
    std::uint32_t decodeText = spanLog().intern("trace.decode.text");
    std::uint32_t decodeBin = spanLog().intern("trace.decode.bin");
    std::uint32_t sim16 = spanLog().intern("sim.run.c16");
    std::uint32_t sim48 = spanLog().intern("sim.run.c48");
};

} // namespace

void
runReplay(const Options &opts, Result &result)
{
    const SpanNames names;
    const CacheConfig cache = cliCache();
    const SharedClassifier shared = cliShared;

    // Set-up: generate and write the four trace files, timing the
    // generation and encoding layers for the traced run's report.
    std::vector<TraceBuffer> traces;
    std::vector<TraceFile> files;
    double setupSynthMs = 0.0;
    double setupEncodeMs = 0.0;
    const auto msSince = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    };
    for (CpuId cpus : kCpus) {
        Clock::time_point t0 = Clock::now();
        traces.push_back(generateTrace(profileConfig(
            AppProfile::PeroLike, cpus, kInstructionsPerCpu,
            opts.seed + cpus)));
        setupSynthMs += msSince(t0);
        for (bool binary : {false, true}) {
            TraceFile file;
            file.cpus = cpus;
            file.binary = binary;
            file.path = opts.runDir + "/pero" + std::to_string(cpus) +
                (binary ? ".swcc" : ".trace");
            t0 = Clock::now();
            saveTrace(traces.back(), file.path);
            setupEncodeMs += msSince(t0);
            file.bytes = std::filesystem::file_size(file.path);
            files.push_back(file);
        }
    }
    std::uint64_t generatedEvents = 0;
    for (const TraceBuffer &trace : traces) {
        generatedEvents += trace.size();
    }

    // Untimed warm-up: one decode of each format and one simulation.
    (void)simulateTrace(Scheme::Dragon, loadTrace(files[0].path), cache,
                        shared);
    (void)loadTrace(files[1].path);
    announceReady();
    if (opts.setupOnly) {
        return;
    }

    struct Op
    {
        std::size_t file;
        Scheme scheme;
        std::string name;
    };
    std::vector<Op> pass;
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (Scheme scheme : kSchemes) {
            pass.push_back({f, scheme,
                            "pero" + std::to_string(files[f].cpus) +
                                (files[f].binary ? ".bin/" : ".text/") +
                                std::string(schemeName(scheme))});
        }
    }

    std::vector<std::uint64_t> expected(pass.size(), 0);
    std::vector<char> haveExpected(pass.size(), 0);
    std::vector<double> simPower(pass.size(), 0.0);
    OpTimes latency(pass.size());
    std::vector<double> untracedTimes;
    std::vector<double> tracedTimes;
    std::map<std::string, double> counts;
    std::uint64_t nextOp = 1;

    const auto settle = [&](std::size_t i, bool ok, const SimStats *stats,
                            const char *what) {
        ++result.attempted;
        const std::uint64_t hash = ok ? statsHash(*stats) : 0;
        if (ok && !haveExpected[i]) {
            expected[i] = hash;
            simPower[i] = stats->processingPower();
            haveExpected[i] = 1;
        } else if (!ok || expected[i] != hash) {
            result.fail(1, pass[i].name + ": " + what);
        }
    };

    // Peak RSS by the end of the first timed pass: set-up, warm-up and
    // every operation once, as a one-shot run of the same work would
    // use. Later passes repeat the work and add only allocator
    // fragmentation, which differs run to run.
    double rssMb = 0.0;
    const auto untracedPass = [&]() {
        for (std::size_t i = 0; i < pass.size(); ++i) {
            const Clock::time_point t0 = Clock::now();
            SimStats stats;
            bool ok = true;
            try {
                const TraceBuffer trace = loadTrace(files[pass[i].file].path);
                stats = simulateTrace(pass[i].scheme, trace, cache, shared);
            } catch (const std::exception &) {
                ok = false;
            }
            latency.add(i,
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          t0)
                    .count());
            settle(i, ok, &stats, "threw, or output differs between passes");
        }
        if (rssMb == 0.0) {
            rssMb = peakRssMb();
        }
    };

    const auto tracedPass = [&]() {
        const auto before = registryValues();
        spanLog().setEnabled(true);
        for (std::size_t i = 0; i < pass.size(); ++i) {
            const TraceFile &file = files[pass[i].file];
            const std::uint64_t opId = nextOp++;
            SimStats stats;
            {
                Span root(names.op, opId);
                std::optional<TraceBuffer> trace;
                {
                    Span span(file.binary ? names.decodeBin
                                          : names.decodeText,
                              opId, root.id());
                    trace.emplace(loadTrace(file.path));
                }
                Span span(file.cpus == 16 ? names.sim16 : names.sim48, opId,
                          root.id());
                stats = simulateTrace(pass[i].scheme, *trace, cache, shared);
            }
            const double events =
                static_cast<double>(traces[file.cpus == 16 ? 0 : 1].size());
            counts[file.binary ? "decoded.bin" : "decoded.text"] += events;
            counts[file.cpus == 16 ? "simulated.c16" : "simulated.c48"] +=
                events;
            settle(i, true, &stats, "traced replay differs");
        }
        spanLog().setEnabled(false);
        const auto after = registryValues();
        counts["sim.runs"] += registryDelta(before, after, "sim.runs");
        counts["sim.events"] += registryDelta(before, after, "sim.events");
    };

    unsigned cpusRotated = 0;
    const std::vector<double> times =
        runPasses(opts.seconds, opts.trace ? 3 : 1, [&](std::size_t index) {
            cpusRotated = pinForPass(index);
            if (opts.trace && index % 2 == 1) {
                tracedPass();
            } else {
                untracedPass();
            }
        });
    for (std::size_t index = 0; index < times.size(); ++index) {
        (opts.trace && index % 2 == 1 ? tracedTimes : untracedTimes)
            .push_back(times[index]);
    }

    // Checks outside the timed phase: each file decodes to the trace
    // that was generated, and each (trace, scheme) simulation agrees
    // with the ReferenceScan snoop path. Text and binary replays of
    // one trace must agree too.
    std::vector<char> fileOk(files.size(), 0);
    for (std::size_t f = 0; f < files.size(); ++f) {
        try {
            fileOk[f] = sameEvents(loadTrace(files[f].path),
                                   traces[files[f].cpus == 16 ? 0 : 1]);
        } catch (const std::exception &) {
            fileOk[f] = 0;
        }
    }
    double errSum = 0.0;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        const ExtractedParams extracted =
            extractParams(traces[t], cache, shared);
        for (Scheme scheme : kSchemes) {
            MultiprocessorSystem system(scheme, cache, kCpus[t], shared);
            system.setSnoopPath(SnoopPath::ReferenceScan);
            const SimStats stats = system.run(traces[t]);
            const std::uint64_t reference = statsHash(stats);
            const double model =
                evaluateBus(scheme, extracted.params, kCpus[t])
                    .processingPower;
            const double err = 100.0 * (model - stats.processingPower()) /
                stats.processingPower();
            errSum += std::fabs(err);
            result.info("model_err_pct.pero-like." +
                            std::string(schemeName(scheme)) + ".c" +
                            std::to_string(kCpus[t]),
                        err);
            for (std::size_t i = 0; i < pass.size(); ++i) {
                const TraceFile &file = files[pass[i].file];
                if (file.cpus != kCpus[t] || pass[i].scheme != scheme) {
                    continue;
                }
                if (!fileOk[pass[i].file] || !haveExpected[i] ||
                    expected[i] != reference) {
                    // Every pass ran this operation once.
                    result.fail(times.size(),
                                pass[i].name +
                                    ": decode or statistics differ from "
                                    "the reference path");
                }
            }
        }
    }
    for (std::size_t i = 0; i < pass.size(); ++i) {
        result.outputs.emplace_back("replay/" + pass[i].name,
                                    hex64(expected[i]) + ":" +
                                        hexBits(simPower[i]));
    }
    result.info("model_err_pct", errSum / 4.0);
    result.info("instructions_per_cpu",
                static_cast<double>(kInstructionsPerCpu));
    result.info("events.c16", static_cast<double>(traces[0].size()));
    result.info("events.c48", static_cast<double>(traces[1].size()));
    result.info("ops_per_pass", static_cast<double>(pass.size()));
    result.info("passes", static_cast<double>(times.size()));
    result.info("cpus_rotated", static_cast<double>(cpusRotated));
    result.info("pass_s.untraced", joined(untracedTimes));
    result.info("pass_s.traced", joined(tracedTimes));

    if (!opts.trace) {
        emitBatchMetrics(latency, rssMb, result);
        return;
    }

    const double passes = static_cast<double>(tracedTimes.size());
    const auto spans = spanLog().totals();
    const auto selfMs = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.selfMs / passes;
    };
    std::map<std::string, double> layers;
    layers["synth.ms"] = setupSynthMs;
    layers["synth.events"] = static_cast<double>(generatedEvents);
    layers["trace.encode_ms"] = setupEncodeMs;
    layers["trace.decode_ms.text"] = selfMs("trace.decode.text");
    layers["trace.decode_ms.bin"] = selfMs("trace.decode.bin");
    layers["trace.decode_mev_s.text"] = counts["decoded.text"] / passes /
        (layers["trace.decode_ms.text"] * 1e3);
    layers["trace.decode_mev_s.bin"] = counts["decoded.bin"] / passes /
        (layers["trace.decode_ms.bin"] * 1e3);
    std::uintmax_t textBytes = 0;
    std::uintmax_t binBytes = 0;
    for (const TraceFile &file : files) {
        (file.binary ? binBytes : textBytes) += file.bytes;
    }
    layers["trace.bytes_per_event.text"] =
        static_cast<double>(textBytes) / static_cast<double>(generatedEvents);
    layers["trace.bytes_per_event.bin"] =
        static_cast<double>(binBytes) / static_cast<double>(generatedEvents);
    layers["sim.ms"] = selfMs("sim.run.c16") + selfMs("sim.run.c48");
    layers["sim.runs"] = counts["sim.runs"] / passes;
    layers["sim.events"] = counts["sim.events"] / passes;
    layers["sim.mev_s.c16"] = counts["simulated.c16"] / passes /
        (selfMs("sim.run.c16") * 1e3);
    layers["sim.mev_s.c48"] = counts["simulated.c48"] / passes /
        (selfMs("sim.run.c48") * 1e3);
    layers["trace.overhead_pct"] = overheadPct(untracedTimes, tracedTimes);
    emitLayerMetrics(layers, result);
    emitSpanTotals(passes, result);
    spanLog().writeChromeTrace(opts.runDir + "/trace.json", 100'000);
}

} // namespace perfbench
