/**
 * @file
 * netval: the X1 and X3 validation points, the only workload that
 * touches sim/net. One pass runs networkValidationSweep() over stages
 * {4,6,8} x rates {0.005, 0.02, 0.08} x {unit-request, circuit} (one
 * operation per sweep) and validatePacketPoint() at stages {4,6,8} x
 * think {10, 40, 160} (one operation per point). Serial, as X1 and X3
 * run today.
 */

#include <cmath>
#include <optional>

#include "core/network_model.hh"
#include "core/packet_network_model.hh"
#include "sim/net/net_experiment.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace swcc;

/** Simulated network cycles per point; sized so a run holds about
 *  eight passes, enough for per-operation medians. */
constexpr std::uint64_t kCycles = 8'000;
const std::vector<double> kRates = {0.005, 0.02, 0.08};
constexpr unsigned kStages[] = {4, 6, 8};
/** X1's message sizes per stage count. */
constexpr double kSizes[] = {12.0, 16.0, 20.0};
constexpr double kThinks[] = {10.0, 40.0, 160.0};
constexpr unsigned kRequestWords = 1;
constexpr unsigned kResponseWords = 4;

/** The pass's operations in order: six sweeps, then nine points. */
struct Op
{
    bool packet = false;
    unsigned stages = 0;
    double size = 0.0;
    NetMode mode = NetMode::UnitRequest;
    double think = 0.0;
    std::uint64_t seed = 0;
    std::string name;
};

std::vector<Op>
ops(std::uint64_t seed)
{
    std::vector<Op> out;
    for (std::size_t s = 0; s < 3; ++s) {
        for (NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
            Op op;
            op.stages = kStages[s];
            op.size = kSizes[s];
            op.mode = mode;
            op.name = "sweep/s" + std::to_string(op.stages) +
                (mode == NetMode::UnitRequest ? "/unit" : "/circuit");
            out.push_back(op);
        }
    }
    for (unsigned stages : kStages) {
        for (double think : kThinks) {
            Op op;
            op.packet = true;
            op.stages = stages;
            op.think = think;
            op.name = "packet/s" + std::to_string(stages) + "/think" +
                std::to_string(static_cast<int>(think));
            out.push_back(op);
        }
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].seed = seed * 7919 + i;
    }
    return out;
}

void
hashDoubles(std::uint64_t &h, std::initializer_list<double> values)
{
    for (double v : values) {
        h = fnv1a(&v, sizeof v, h);
    }
}

void
hashVector(std::uint64_t &h, const std::vector<double> &values)
{
    h = fnv1a(values.data(), values.size() * sizeof(double), h);
}

/** Every field of a sweep's points, bit for bit. */
std::uint64_t
hashOf(const std::vector<NetworkValidationPoint> &points)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const NetworkValidationPoint &p : points) {
        hashDoubles(h, {p.rate, p.size, p.modelCompute, p.simCompute,
                        p.modelAcceptance, p.simAcceptance});
        hashVector(h, p.simStageLoads);
        hashVector(h, p.modelStageLoads);
    }
    return h;
}

std::uint64_t
hashOf(const PacketValidationPoint &p)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    hashDoubles(h, {p.think, p.modelCompute, p.modelLatency,
                    p.modelLinkLoad, p.simCompute, p.simLatency,
                    p.simLinkLoad});
    return h;
}

struct SpanNames
{
    std::uint32_t op = spanLog().intern("netval.op");
    std::uint32_t point = spanLog().intern("netval.point");
    std::uint32_t omega = spanLog().intern("net.omega");
    std::uint32_t packet = spanLog().intern("net.packet");
    std::uint32_t model = spanLog().intern("net.model");
};

/** validateNetworkPoint() composed as net_experiment.cc composes it. */
NetworkValidationPoint
tracedOmegaPoint(double rate, const Op &op, std::uint64_t opId,
                 std::uint64_t parent, const SpanNames &names)
{
    Span span(names.point, opId, parent);
    constexpr unsigned switch_dim = 2;
    NetworkValidationPoint point;
    point.rate = rate;
    point.size = op.size;
    point.stages = op.stages;
    point.switchDim = switch_dim;
    point.mode = op.mode;

    OmegaConfig config;
    config.stages = op.stages;
    config.switchDim = switch_dim;
    config.meanThink = 1.0 / rate;
    config.messageCycles = op.size;
    config.mode = op.mode;
    config.seed = op.seed;

    OmegaStats stats;
    {
        Span sim(names.omega, opId, span.id());
        OmegaNetwork network(config);
        stats = network.run(kCycles);
    }
    point.simCompute = stats.computeFraction;
    point.simAcceptance = stats.acceptance;
    point.simStageLoads = stats.stageLoads;

    Span model(names.model, opId, span.id());
    const unsigned stages = op.stages;
    point.modelCompute =
        solveComputeFractionK(rate, op.size, stages, switch_dim);
    const double m0 = 1.0 - point.modelCompute;
    auto output = [stages](double m) {
        for (unsigned i = 0; i < stages; ++i) {
            m = patelStageStepK(m, switch_dim);
        }
        return m;
    };
    point.modelAcceptance = m0 > 0.0 ? output(m0) / m0 : 1.0;
    if (!stats.stageLoads.empty()) {
        point.modelStageLoads.clear();
        double m = stats.stageLoads.front();
        point.modelStageLoads.push_back(m);
        for (unsigned i = 0; i < stages; ++i) {
            m = patelStageStepK(m, switch_dim);
            point.modelStageLoads.push_back(m);
        }
    }
    return point;
}

/** validatePacketPoint() composed as net_experiment.cc composes it. */
PacketValidationPoint
tracedPacketPoint(const Op &op, std::uint64_t opId, std::uint64_t parent,
                  const SpanNames &names)
{
    Span span(names.point, opId, parent);
    PacketValidationPoint point;
    point.think = op.think;
    point.requestWords = kRequestWords;
    point.responseWords = kResponseWords;
    point.stages = op.stages;

    PacketNetConfig config;
    config.stages = op.stages;
    config.meanThink = op.think;
    config.requestWords = kRequestWords;
    config.responseWords = kResponseWords;
    config.seed = op.seed;

    PacketNetStats stats;
    {
        Span sim(names.packet, opId, span.id());
        PacketOmegaNetwork network(config);
        stats = network.run(kCycles);
    }
    point.simCompute = stats.computeFraction;
    point.simLatency = stats.meanLatency;
    point.simLinkLoad = stats.linkLoad;

    Span model(names.model, opId, span.id());
    const RawPacketSolution solution = solveRawPacketPoint(
        op.think, kRequestWords, kResponseWords, op.stages,
        config.memoryCycles);
    point.modelCompute = solution.computeFraction;
    point.modelLatency = solution.latency;
    point.modelLinkLoad = solution.linkLoad;
    return point;
}

} // namespace

void
runNetval(const Options &opts, Result &result)
{
    const std::vector<Op> pass = ops(opts.seed);

    // Untimed warm-up at the largest networks, so the allocator has
    // grown to their size before the first timed pass.
    (void)networkValidationSweep(kRates, kSizes[2], kStages[2],
                                 NetMode::Circuit, kCycles, opts.seed);
    (void)validatePacketPoint(kThinks[0], kRequestWords, kResponseWords,
                              kStages[2], kCycles, opts.seed);
    announceReady();
    if (opts.setupOnly) {
        return;
    }

    const SpanNames names;
    std::vector<std::uint64_t> expected(pass.size(), 0);
    std::vector<char> haveExpected(pass.size(), 0);
    OpTimes latency(pass.size());
    std::vector<double> untracedTimes;
    std::vector<double> tracedTimes;
    // Model error and input loads from the first untraced pass.
    double errSum = 0.0;
    std::size_t errPoints = 0;
    std::map<double, std::vector<double>> loadsByRate;
    std::uint64_t nextOp = 1;

    const auto settle = [&](std::size_t i, bool ok, std::uint64_t hash,
                            const char *what) {
        ++result.attempted;
        if (ok && !haveExpected[i]) {
            expected[i] = hash;
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
    bool first = true;
    const auto untracedPass = [&]() {
        for (std::size_t i = 0; i < pass.size(); ++i) {
            const Op &op = pass[i];
            const Clock::time_point t0 = Clock::now();
            std::optional<PacketValidationPoint> packet;
            std::vector<NetworkValidationPoint> points;
            bool ok = true;
            try {
                if (op.packet) {
                    packet = validatePacketPoint(op.think, kRequestWords,
                                                 kResponseWords, op.stages,
                                                 kCycles, op.seed);
                } else {
                    points = networkValidationSweep(kRates, op.size,
                                                    op.stages, op.mode,
                                                    kCycles, op.seed);
                }
            } catch (const std::exception &) {
                ok = false;
            }
            latency.add(i, std::chrono::duration<double, std::micro>(
                               Clock::now() - t0)
                               .count());
            const std::uint64_t hash =
                !ok ? 0 : packet ? hashOf(*packet) : hashOf(points);
            if (ok && first) {
                if (packet) {
                    errSum += std::fabs(packet->computeErrorPercent());
                    ++errPoints;
                }
                for (const NetworkValidationPoint &p : points) {
                    errSum += std::fabs(p.computeErrorPercent());
                    ++errPoints;
                    loadsByRate[p.rate].push_back(p.simStageLoads.at(0));
                }
            }
            settle(i, ok, hash, "threw, or output differs between passes");
        }
        if (first) {
            rssMb = peakRssMb();
            first = false;
        }
    };

    const auto tracedPass = [&]() {
        spanLog().setEnabled(true);
        for (std::size_t i = 0; i < pass.size(); ++i) {
            const Op &op = pass[i];
            const std::uint64_t opId = nextOp++;
            std::uint64_t hash = 0;
            {
                Span root(names.op, opId);
                if (op.packet) {
                    hash = hashOf(tracedPacketPoint(op, opId, root.id(),
                                                    names));
                } else {
                    std::vector<NetworkValidationPoint> points;
                    for (double rate : kRates) {
                        points.push_back(tracedOmegaPoint(
                            rate, op, opId, root.id(), names));
                    }
                    hash = hashOf(points);
                }
            }
            settle(i, true, hash,
                   "traced composition differs from the library call");
        }
        spanLog().setEnabled(false);
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

    for (std::size_t i = 0; i < pass.size(); ++i) {
        result.outputs.emplace_back("netval/" + pass[i].name,
                                    hex64(expected[i]));
    }
    result.info("model_err_pct",
                errPoints ? errSum / static_cast<double>(errPoints) : 0.0);
    result.info("cycles_per_point", static_cast<double>(kCycles));
    result.info("ops_per_pass", static_cast<double>(pass.size()));
    result.info("points_per_pass",
                static_cast<double>(6 * kRates.size() + 9));
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
    layers["net.omega_ms"] = selfMs("net.omega");
    layers["net.packet_ms"] = selfMs("net.packet");
    layers["net.model_ms"] = selfMs("net.model");
    const double cycles =
        static_cast<double>((6 * kRates.size() + 9) * kCycles);
    layers["net.cycles"] = cycles;
    layers["net.mcycles_s"] = cycles /
        ((layers["net.omega_ms"] + layers["net.packet_ms"]) * 1e-3) / 1e6;
    const auto meanLoadPct = [&](double rate) {
        const std::vector<double> &loads = loadsByRate[rate];
        double sum = 0.0;
        for (double m : loads) {
            sum += m;
        }
        return loads.empty() ? 0.0
                             : 100.0 * sum / static_cast<double>(loads.size());
    };
    layers["net.load_pct.low"] = meanLoadPct(kRates[0]);
    layers["net.load_pct.mid"] = meanLoadPct(kRates[1]);
    layers["net.load_pct.high"] = meanLoadPct(kRates[2]);
    layers["trace.overhead_pct"] = overheadPct(untracedTimes, tracedTimes);
    emitLayerMetrics(layers, result);
    emitSpanTotals(passes, result);
    spanLog().writeChromeTrace(opts.runDir + "/trace.json", 100'000);
}

} // namespace perfbench
