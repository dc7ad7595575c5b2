#include "core/scheme_evaluator.hh"

#include <cstdint>
#include <stdexcept>

#include "core/obs/trace.hh"
#include "core/per_instruction.hh"

namespace swcc
{

namespace
{

/** Interns a span name once; safe to call on every evaluation. */
std::uint32_t
spanName(const char *name)
{
    return obs::tracer().intern(name);
}

} // namespace

BusSolution
evaluateBus(Scheme scheme, const WorkloadParams &params,
            unsigned processors)
{
    const BusCostModel costs;
    return evaluateBus(scheme, params, processors, costs);
}

BusSolution
evaluateBus(Scheme scheme, const WorkloadParams &params,
            unsigned processors, const BusCostModel &costs)
{
    const FrequencyVector freqs = operationFrequencies(scheme, params);
    return solveBus(perInstructionCost(freqs, costs), processors);
}

NetworkSolution
evaluateNetwork(Scheme scheme, const WorkloadParams &params,
                unsigned stages)
{
    if (!schemeWorksOnNetwork(scheme)) {
        throw std::invalid_argument(
            "snoopy schemes need a broadcast bus; they cannot run on a "
            "multistage network");
    }
    const NetworkCostModel costs(stages);
    const FrequencyVector freqs = operationFrequencies(scheme, params);
    return solveNetwork(perInstructionCost(freqs, costs), stages);
}

std::vector<BusSolution>
evaluateBusCurve(Scheme scheme, const WorkloadParams &params,
                 unsigned max_processors)
{
    static const std::uint32_t span = spanName("evaluateBusCurve");
    obs::ScopedSpan scoped(span);
    const BusCostModel costs;
    const FrequencyVector freqs = operationFrequencies(scheme, params);
    return solveBusCurve(perInstructionCost(freqs, costs), max_processors);
}

std::vector<NetworkSolution>
evaluateNetworkCurve(Scheme scheme, const WorkloadParams &params,
                     unsigned max_stages)
{
    static const std::uint32_t span = spanName("evaluateNetworkCurve");
    obs::ScopedSpan scoped(span);
    if (!schemeWorksOnNetwork(scheme)) {
        throw std::invalid_argument(
            "snoopy schemes need a broadcast bus; they cannot run on a "
            "multistage network");
    }
    if (max_stages == 0) {
        throw std::invalid_argument("need at least one network stage");
    }
    // One fixed-point solve per stage count, each the exact operation
    // sequence evaluateNetwork() runs for that point.
    const FrequencyVector freqs = operationFrequencies(scheme, params);
    std::vector<NetworkSolution> curve;
    curve.reserve(max_stages);
    for (unsigned stages = 1; stages <= max_stages; ++stages) {
        const NetworkCostModel costs(stages);
        curve.push_back(
            solveNetwork(perInstructionCost(freqs, costs), stages));
    }
    return curve;
}

} // namespace swcc
