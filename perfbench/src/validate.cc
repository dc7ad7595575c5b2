/**
 * @file
 * validate: validate() over 3 profiles x 8 schemes x 1..8 CPUs, the
 * cost behind fig01, fig02/03, X2, X5 and the conformance matrix. One
 * operation is one validate() call (one profile and scheme, cells at
 * 1..8 CPUs) on a fixed two-lane pool.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>

#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/trace_generator.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace swcc;

/** Two lanes measured steadiest on a 4-thread host (README.md). */
constexpr unsigned kLanes = 2;
constexpr CpuId kMaxCpus = 8;
/** fig01's trace length: shorter traces shrink the MESI model error
 *  the workload has to show (-15% at 8 CPUs with 30k, -41% here). */
constexpr std::size_t kInstructionsPerCpu = 120'000;

struct Call
{
    AppProfile profile;
    Scheme scheme;
};

std::vector<Call>
grid()
{
    std::vector<Call> calls;
    for (AppProfile profile : kAllProfiles) {
        for (Scheme scheme : kAllSchemes) {
            calls.push_back({profile, scheme});
        }
    }
    return calls;
}

ValidationConfig
configOf(const Call &call, std::uint64_t seed)
{
    ValidationConfig config;
    config.profile = call.profile;
    config.scheme = call.scheme;
    config.cacheBytes = 64 * 1024;
    config.maxCpus = kMaxCpus;
    config.instructionsPerCpu = kInstructionsPerCpu;
    config.seed = seed;
    return config;
}

std::string
callName(const Call &call)
{
    return std::string(profileName(call.profile)) + "/" +
        std::string(schemeName(call.scheme));
}

/** One cell's outputs as compared bit for bit. */
struct CellOut
{
    std::uint64_t simBits = 0;
    std::uint64_t modelBits = 0;
    std::uint64_t statsHash = 0;
    double errorPercent = 0.0;

    bool
    operator==(const CellOut &o) const
    {
        return simBits == o.simBits && modelBits == o.modelBits &&
            statsHash == o.statsHash;
    }
};

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

std::uint64_t
statsHash(const SimStats &stats)
{
    const std::string text = stats.serialize();
    return fnv1a(text.data(), text.size());
}

CellOut
outOf(const ValidationPoint &point)
{
    return {bitsOf(point.simPower), bitsOf(point.modelPower),
            statsHash(point.sim), point.errorPercent()};
}

struct SpanNames
{
    std::uint32_t call = spanLog().intern("validate.call");
    std::uint32_t cell = spanLog().intern("validate.cell");
    std::uint32_t synth = spanLog().intern("synth.generate");
    std::uint32_t sim = spanLog().intern("sim.run");
    std::uint32_t extract = spanLog().intern("extract.params");
    std::uint32_t solve = spanLog().intern("solve.bus");
};

/**
 * validatePoint() composed from the layers' public functions exactly
 * as validation.cc composes them, with a span around each call.
 */
ValidationPoint
tracedCell(const ValidationConfig &config, CpuId cpus, std::uint64_t op,
           std::uint64_t parent, const SpanNames &names,
           std::atomic<std::uint64_t> &events)
{
    Span cell(names.cell, op, parent);
    const bool software_trace = config.scheme == Scheme::SoftwareFlush;
    SyntheticWorkloadConfig workload = profileConfig(
        config.profile, cpus, config.instructionsPerCpu,
        config.seed + cpus, software_trace);
    thread_local TraceBuffer trace;
    {
        Span span(names.synth, op, cell.id());
        generateTrace(workload, trace);
    }
    events.fetch_add(trace.size(), std::memory_order_relaxed);
    const SharedClassifier shared = workload.sharedClassifier();

    CacheConfig cache;
    cache.sizeBytes = config.cacheBytes;
    cache.blockBytes = workload.blockBytes;

    ValidationPoint point;
    point.profile = config.profile;
    point.scheme = config.scheme;
    point.cpus = cpus;
    point.cacheBytes = config.cacheBytes;

    MultiprocessorSystem system(config.scheme, cache, cpus, shared);
    {
        Span span(names.sim, op, cell.id());
        point.sim = system.run(trace);
    }
    point.simPower = point.sim.processingPower();

    std::optional<ExtractedParams> extracted;
    {
        Span span(names.extract, op, cell.id());
        extracted.emplace(extractParams(trace, cache, shared));
    }
    {
        Span span(names.solve, op, cell.id());
        point.model = evaluateBus(config.scheme, extracted->params, cpus);
    }
    point.modelPower = point.model.processingPower;
    return point;
}

} // namespace

void
runValidate(const Options &opts, Result &result)
{
    setThreadCount(kLanes);
    globalPool();
    const std::vector<Call> calls = grid();

    // Untimed warm-up: starts the lanes, grows their trace arenas to
    // an 8-CPU trace and pages in the simulator.
    (void)validate(configOf({AppProfile::PeroLike, Scheme::Dragon},
                            opts.seed));
    announceReady();
    if (opts.setupOnly) {
        return;
    }

    const SpanNames names;
    std::vector<std::optional<std::vector<CellOut>>> expected(
        calls.size());
    std::vector<std::uint64_t> opsOfCall(calls.size(), 0);
    std::vector<char> callFailed(calls.size(), 0);
    OpTimes latency(calls.size());
    std::vector<double> untracedTimes;
    std::vector<double> tracedTimes;
    std::uint64_t nextOp = 1;

    // Per-layer counts over the traced passes.
    std::atomic<std::uint64_t> synthEvents{0};
    std::map<std::string, double> deltas;
    const auto addDelta = [&deltas](const std::string &name, double v) {
        deltas[name] += v;
    };

    const auto compare = [&](std::size_t i,
                             const std::vector<CellOut> &outs) {
        if (!expected[i]) {
            expected[i] = outs;
            return true;
        }
        return *expected[i] == outs;
    };

    // Peak RSS by the end of the first timed pass: set-up, warm-up and
    // every operation once, as a one-shot run of the same work would
    // use. Later passes repeat the work and add only allocator
    // fragmentation, which differs run to run.
    double rssMb = 0.0;
    const auto untracedPass = [&]() {
        for (std::size_t i = 0; i < calls.size(); ++i) {
            const Clock::time_point t0 = Clock::now();
            std::vector<ValidationPoint> points;
            bool ok = true;
            try {
                points = validate(configOf(calls[i], opts.seed));
            } catch (const std::exception &) {
                ok = false;
            }
            latency.add(i, std::chrono::duration<double, std::micro>(
                               Clock::now() - t0)
                               .count());
            std::vector<CellOut> outs;
            for (const ValidationPoint &p : points) {
                outs.push_back(outOf(p));
            }
            ok = ok && outs.size() == kMaxCpus && compare(i, outs);
            ++opsOfCall[i];
            ++result.attempted;
            if (!ok) {
                callFailed[i] = 1;
                result.fail(1, callName(calls[i]) +
                                   ": threw, or output differs between "
                                   "passes");
            }
        }
        if (rssMb == 0.0) {
            rssMb = peakRssMb();
        }
    };

    const auto tracedPass = [&]() {
        const auto before = registryValues();
        const SolverCacheStats cacheBefore = solverCacheStats();
        const PoolStats poolBefore = globalPool().stats();
        const Clock::time_point t0 = Clock::now();
        spanLog().setEnabled(true);
        for (std::size_t i = 0; i < calls.size(); ++i) {
            const std::uint64_t op = nextOp++;
            const ValidationConfig config = configOf(calls[i], opts.seed);
            std::vector<ValidationPoint> points(kMaxCpus);
            {
                Span call(names.call, op);
                parallelFor(kMaxCpus, [&](std::size_t c) {
                    points[c] = tracedCell(config, static_cast<CpuId>(c + 1),
                                           op, call.id(), names,
                                           synthEvents);
                });
            }
            std::vector<CellOut> outs;
            for (const ValidationPoint &p : points) {
                outs.push_back(outOf(p));
            }
            ++opsOfCall[i];
            ++result.attempted;
            if (!compare(i, outs)) {
                callFailed[i] = 1;
                result.fail(1, callName(calls[i]) +
                                   ": traced composition differs from "
                                   "validatePoint");
            }
        }
        spanLog().setEnabled(false);
        const double wall =
            std::chrono::duration<double>(Clock::now() - t0).count();
        const auto after = registryValues();
        for (const char *name :
             {"sim.runs", "sim.events", "solver.bus.solves",
              "solver.network.solves", "solver.network.iterations"}) {
            addDelta(name, registryDelta(before, after, name));
        }
        const SolverCacheStats cacheAfter = solverCacheStats();
        addDelta("solver_cache.hits",
                 static_cast<double>(cacheAfter.hits - cacheBefore.hits));
        addDelta("solver_cache.misses", static_cast<double>(
                                            cacheAfter.misses -
                                            cacheBefore.misses));
        addDelta("solver_cache.evictions",
                 static_cast<double>(cacheAfter.evictions -
                                     cacheBefore.evictions));
        const WorkerStats pa = globalPool().stats().totals();
        const WorkerStats pb = poolBefore.totals();
        addDelta("pool.tasks_executed",
                 static_cast<double>(pa.tasksExecuted - pb.tasksExecuted));
        addDelta("pool.steal",
                 static_cast<double>(pa.chunksStolen - pb.chunksStolen));
        addDelta("pool.idle_s",
                 static_cast<double>(pa.idleNs - pb.idleNs) * 1e-9);
        addDelta("pool.lane_s", wall * kLanes);
    };

    const std::vector<double> times =
        runPasses(opts.seconds, opts.trace ? 3 : 1, [&](std::size_t pass) {
            if (opts.trace && pass % 2 == 1) {
                tracedPass();
            } else {
                untracedPass();
            }
        });
    for (std::size_t pass = 0; pass < times.size(); ++pass) {
        (opts.trace && pass % 2 == 1 ? tracedTimes : untracedTimes)
            .push_back(times[pass]);
    }

    // Checks outside the timed phase, on every host thread up to four:
    // every cell's simulator statistics against the ReferenceScan snoop
    // path on a regenerated trace. The trace hashes also give the
    // distinct-trace count.
    setThreadCount(std::min(4u, hostThreads()));
    const std::size_t cells = calls.size() * kMaxCpus;
    std::vector<std::uint64_t> traceHash(cells, 0);
    std::vector<char> refOk(cells, 0);
    parallelFor(cells, [&](std::size_t k) {
        const std::size_t i = k / kMaxCpus;
        const CpuId cpus = static_cast<CpuId>(k % kMaxCpus + 1);
        const ValidationConfig config = configOf(calls[i], opts.seed);
        SyntheticWorkloadConfig workload = profileConfig(
            config.profile, cpus, config.instructionsPerCpu,
            config.seed + cpus, config.scheme == Scheme::SoftwareFlush);
        const TraceBuffer trace = generateTrace(workload);
        // Field by field: TraceEvent has padding bytes.
        std::uint64_t h = fnv1a(nullptr, 0);
        for (const TraceEvent &e : trace) {
            const std::uint64_t fields[] = {
                e.addr, e.cpu, static_cast<std::uint64_t>(e.type)};
            h = fnv1a(fields, sizeof fields, h);
        }
        traceHash[k] = h;
        CacheConfig cache;
        cache.sizeBytes = config.cacheBytes;
        cache.blockBytes = workload.blockBytes;
        MultiprocessorSystem system(config.scheme, cache, cpus,
                                    workload.sharedClassifier());
        system.setSnoopPath(SnoopPath::ReferenceScan);
        const SimStats stats = system.run(trace);
        refOk[k] = expected[i] &&
            statsHash(stats) == (*expected[i])[cpus - 1].statsHash &&
            bitsOf(stats.processingPower()) ==
                (*expected[i])[cpus - 1].simBits;
    });

    double errSum = 0.0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        bool ok = expected[i].has_value();
        for (CpuId c = 0; ok && c < kMaxCpus; ++c) {
            ok = refOk[i * kMaxCpus + c] != 0;
        }
        if (!ok && !callFailed[i]) {
            // Every timed operation of this call returned the output
            // that disagrees with the reference path.
            result.fail(opsOfCall[i],
                        callName(calls[i]) +
                            ": statistics differ from ReferenceScan");
        }
        if (!expected[i]) {
            continue;
        }
        for (CpuId c = 0; c < kMaxCpus; ++c) {
            const CellOut &out = (*expected[i])[c];
            errSum += std::fabs(out.errorPercent);
            result.outputs.emplace_back(
                callName(calls[i]) + "/" + std::to_string(c + 1),
                hex64(out.simBits) + ":" + hex64(out.modelBits) + ":" +
                    hex64(out.statsHash));
        }
        if (calls[i].profile == AppProfile::PeroLike &&
            calls[i].scheme == Scheme::Mesi) {
            result.info("model_err_pct.pero-like.MESI.c8",
                        (*expected[i])[kMaxCpus - 1].errorPercent);
        }
    }
    result.info("model_err_pct", errSum / static_cast<double>(cells));

    // Waste ratios of ROADMAP item 2: how many traces were distinct,
    // and how many simulator runs the distinct traces needed (one per
    // scheme simulated on it, plus extraction's Base and Dragon runs).
    std::map<std::uint64_t, std::set<Scheme>> schemesOnTrace;
    for (std::size_t k = 0; k < cells; ++k) {
        auto &schemes = schemesOnTrace[traceHash[k]];
        schemes.insert(calls[k / kMaxCpus].scheme);
        schemes.insert(Scheme::Base);
        schemes.insert(Scheme::Dragon);
    }
    double runsNeeded = 0.0;
    for (const auto &entry : schemesOnTrace) {
        runsNeeded += static_cast<double>(entry.second.size());
    }

    result.info("lanes", static_cast<double>(kLanes));
    result.info("instructions_per_cpu",
                static_cast<double>(kInstructionsPerCpu));
    result.info("ops_per_pass", static_cast<double>(calls.size()));
    result.info("cells_per_pass", static_cast<double>(cells));
    result.info("passes", static_cast<double>(times.size()));
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
    const auto count = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end()
            ? 0.0
            : static_cast<double>(it->second.count) / passes;
    };
    std::map<std::string, double> layers;
    layers["synth.ms"] = selfMs("synth.generate");
    layers["synth.events"] =
        static_cast<double>(synthEvents.load()) / passes;
    layers["synth.unique_pct"] = 100.0 *
        static_cast<double>(schemesOnTrace.size()) / count("synth.generate");
    layers["extract.ms"] = selfMs("extract.params");
    layers["extract.calls"] = count("extract.params");
    layers["sim.ms"] = selfMs("sim.run");
    layers["sim.runs"] = deltas["sim.runs"] / passes;
    layers["sim.events"] = deltas["sim.events"] / passes;
    layers["sim.useful_pct"] = 100.0 * runsNeeded * passes /
        deltas["sim.runs"];
    layers["solve.ms"] = selfMs("solve.bus");
    for (const char *name :
         {"solver.bus.solves", "solver.network.solves",
          "solver.network.iterations", "solver_cache.hits",
          "solver_cache.misses", "solver_cache.evictions",
          "pool.tasks_executed", "pool.steal", "pool.idle_s"}) {
        layers[name] = deltas[name] / passes;
    }
    const double lookups =
        deltas["solver_cache.hits"] + deltas["solver_cache.misses"];
    layers["solver_cache.hit_pct"] =
        lookups > 0.0 ? 100.0 * deltas["solver_cache.hits"] / lookups : 0.0;
    layers["pool.busy_pct"] =
        100.0 * (1.0 - deltas["pool.idle_s"] / deltas["pool.lane_s"]);
    layers["trace.overhead_pct"] = overheadPct(untracedTimes, tracedTimes);
    emitLayerMetrics(layers, result);
    emitSpanTotals(passes, result);
    spanLog().writeChromeTrace(opts.runDir + "/trace.json", 100'000);
}

} // namespace perfbench
