#include "sim/net/net_experiment.hh"

#include <cmath>
#include <stdexcept>

#include "core/network_model.hh"
#include "core/packet_network_model.hh"

namespace swcc
{

double
NetworkValidationPoint::computeErrorPercent() const
{
    return simCompute > 0.0
        ? 100.0 * (modelCompute - simCompute) / simCompute
        : 0.0;
}

NetworkValidationPoint
validateNetworkPoint(double rate, double size, unsigned stages,
                     NetMode mode, std::uint64_t cycles,
                     std::uint64_t seed, unsigned switch_dim)
{
    if (!std::isfinite(rate) || rate <= 0.0) {
        throw std::invalid_argument("rate must be finite and positive");
    }

    NetworkValidationPoint point;
    point.rate = rate;
    point.size = size;
    point.stages = stages;
    point.switchDim = switch_dim;
    point.mode = mode;

    OmegaConfig config;
    config.stages = stages;
    config.switchDim = switch_dim;
    config.meanThink = 1.0 / rate;
    config.messageCycles = size;
    config.mode = mode;
    config.seed = seed;

    OmegaNetwork network(config);
    const OmegaStats stats = network.run(cycles);

    point.simCompute = stats.computeFraction;
    point.simAcceptance = stats.acceptance;
    point.simStageLoads = stats.stageLoads;

    point.modelCompute =
        solveComputeFractionK(rate, size, stages, switch_dim);
    const double m0 = 1.0 - point.modelCompute;
    auto output = [stages, switch_dim](double m) {
        for (unsigned i = 0; i < stages; ++i) {
            m = patelStageStepK(m, switch_dim);
        }
        return m;
    };
    point.modelAcceptance = m0 > 0.0 ? output(m0) / m0 : 1.0;

    // Stage-load comparison seeded with the *simulator's* input load,
    // isolating the stage recursion from the source model.
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

std::vector<NetworkValidationPoint>
networkValidationSweep(const std::vector<double> &rates, double size,
                       unsigned stages, NetMode mode,
                       std::uint64_t cycles, std::uint64_t seed)
{
    std::vector<NetworkValidationPoint> points;
    points.reserve(rates.size());
    for (double rate : rates) {
        points.push_back(validateNetworkPoint(rate, size, stages, mode,
                                              cycles, seed));
    }
    return points;
}

double
PacketValidationPoint::computeErrorPercent() const
{
    return simCompute > 0.0
        ? 100.0 * (modelCompute - simCompute) / simCompute
        : 0.0;
}

PacketValidationPoint
validatePacketPoint(double think, unsigned request_words,
                    unsigned response_words, unsigned stages,
                    std::uint64_t cycles, std::uint64_t seed)
{
    PacketValidationPoint point;
    point.think = think;
    point.requestWords = request_words;
    point.responseWords = response_words;
    point.stages = stages;

    PacketNetConfig config;
    config.stages = stages;
    config.meanThink = think;
    config.requestWords = request_words;
    config.responseWords = response_words;
    config.seed = seed;

    PacketOmegaNetwork network(config);
    const PacketNetStats stats = network.run(cycles);
    point.simCompute = stats.computeFraction;
    point.simLatency = stats.meanLatency;
    point.simLinkLoad = stats.linkLoad;

    const RawPacketSolution model = solveRawPacketPoint(
        think, request_words, response_words, stages,
        config.memoryCycles);
    point.modelCompute = model.computeFraction;
    point.modelLatency = model.latency;
    point.modelLinkLoad = model.linkLoad;
    return point;
}

} // namespace swcc
