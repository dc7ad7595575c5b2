#include "core/scheme_evaluator.hh"

#include <cstdint>
#include <stdexcept>

#include "core/obs/trace.hh"
#include "core/per_instruction.hh"
#include "core/solver_cache.hh"

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

SolverMemo<BusSolution> &
busMemo()
{
    static SolverMemo<BusSolution> memo;
    return memo;
}

SolverMemo<std::vector<BusSolution>> &
busCurveMemo()
{
    static SolverMemo<std::vector<BusSolution>> memo;
    return memo;
}

SolverMemo<NetworkSolution> &
networkMemo()
{
    static SolverMemo<NetworkSolution> memo;
    return memo;
}

SolverMemo<std::vector<NetworkSolution>> &
networkCurveMemo()
{
    static SolverMemo<std::vector<NetworkSolution>> memo;
    return memo;
}

[[maybe_unused]] const bool memo_clearers_registered = [] {
    registerSolverCacheClearer(+[] { busMemo().clear(); });
    registerSolverCacheClearer(+[] { busCurveMemo().clear(); });
    registerSolverCacheClearer(+[] { networkMemo().clear(); });
    registerSolverCacheClearer(+[] { networkCurveMemo().clear(); });
    return true;
}();

/**
 * The key of @p prefix followed by a machine size. Every memo key
 * here ends with its size, so the point keys a curve seeds all extend
 * one prefix.
 */
SolverCacheKey
sizedKey(MemoKey prefix, unsigned size)
{
    return prefix.add(std::uint64_t{size}).key();
}

MemoKey
busPointPrefix(Scheme scheme, const WorkloadParams &params,
               const BusCostModel &costs)
{
    return MemoKey(MemoDomain::Bus).add(scheme).add(params).add(costs);
}

/**
 * The cost table is NetworkCostModel(stages), fully determined by the
 * stage count the key ends with.
 */
MemoKey
networkPointPrefix(Scheme scheme, const WorkloadParams &params)
{
    return MemoKey(MemoDomain::Network).add(scheme).add(params);
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
    const bool memo = solverCacheEnabled();
    BusSolution sol;
    SolverCacheKey key;
    if (memo) {
        key = sizedKey(busPointPrefix(scheme, params, costs), processors);
        if (busMemo().lookup(key, sol)) {
            return sol;
        }
    }
    const FrequencyVector freqs = operationFrequencies(scheme, params);
    const PerInstructionCost cost = perInstructionCost(freqs, costs);
    sol = solveBus(cost, processors);
    if (memo) {
        busMemo().insert(key, sol);
    }
    return sol;
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
    const bool memo = solverCacheEnabled();
    NetworkSolution sol;
    SolverCacheKey key;
    if (memo) {
        key = sizedKey(networkPointPrefix(scheme, params), stages);
        if (networkMemo().lookup(key, sol)) {
            return sol;
        }
    }
    const NetworkCostModel costs(stages);
    const FrequencyVector freqs = operationFrequencies(scheme, params);
    const PerInstructionCost cost = perInstructionCost(freqs, costs);
    sol = solveNetwork(cost, stages);
    if (memo) {
        networkMemo().insert(key, sol);
    }
    return sol;
}

std::vector<BusSolution>
evaluateBusCurve(Scheme scheme, const WorkloadParams &params,
                 unsigned max_processors)
{
    const BusCostModel costs;
    return evaluateBusCurve(scheme, params, max_processors, costs);
}

std::vector<BusSolution>
evaluateBusCurve(Scheme scheme, const WorkloadParams &params,
                 unsigned max_processors, const BusCostModel &costs)
{
    const bool memo = solverCacheEnabled();
    std::vector<BusSolution> curve;
    SolverCacheKey key;
    if (memo) {
        key = sizedKey(MemoKey(MemoDomain::BusCurve)
                           .add(scheme)
                           .add(params)
                           .add(costs),
                       max_processors);
        if (busCurveMemo().lookup(key, curve)) {
            return curve;
        }
    }
    const FrequencyVector freqs = operationFrequencies(scheme, params);
    const PerInstructionCost cost = perInstructionCost(freqs, costs);
    curve = solveBusCurve(cost, max_processors);
    if (memo) {
        busCurveMemo().insert(key, curve);
        // Seed the per-point memo too: the curve's element i is the
        // bitwise i+1-processor solution, so later single-point
        // evaluations of the same workload hit without solving.
        const MemoKey prefix = busPointPrefix(scheme, params, costs);
        for (std::size_t i = 0; i < curve.size(); ++i) {
            busMemo().insert(
                sizedKey(prefix, static_cast<unsigned>(i) + 1),
                curve[i]);
        }
    }
    return curve;
}

std::vector<NetworkSolution>
evaluateNetworkCurve(Scheme scheme, const WorkloadParams &params,
                     unsigned max_stages)
{
    if (!schemeWorksOnNetwork(scheme)) {
        throw std::invalid_argument(
            "snoopy schemes need a broadcast bus; they cannot run on a "
            "multistage network");
    }
    const bool memo = solverCacheEnabled();
    std::vector<NetworkSolution> curve;
    SolverCacheKey key;
    if (memo) {
        key = sizedKey(
            MemoKey(MemoDomain::NetworkCurve).add(scheme).add(params),
            max_stages);
        if (networkCurveMemo().lookup(key, curve)) {
            return curve;
        }
    }
    // One fixed-point solve per stage count, each the exact operation
    // sequence evaluateNetwork() runs for that point.
    const FrequencyVector freqs = operationFrequencies(scheme, params);
    curve.reserve(max_stages);
    for (unsigned stages = 1; stages <= max_stages; ++stages) {
        const NetworkCostModel costs(stages);
        curve.push_back(
            solveNetwork(perInstructionCost(freqs, costs), stages));
    }
    if (memo) {
        networkCurveMemo().insert(key, curve);
        const MemoKey prefix = networkPointPrefix(scheme, params);
        for (std::size_t i = 0; i < curve.size(); ++i) {
            networkMemo().insert(
                sizedKey(prefix, static_cast<unsigned>(i) + 1),
                curve[i]);
        }
    }
    return curve;
}

std::vector<BusSolution>
busPowerCurve(Scheme scheme, const WorkloadParams &params,
              unsigned max_processors)
{
    static const std::uint32_t span = spanName("busPowerCurve");
    obs::ScopedSpan scoped(span);
    // One O(N) recursion replaces the old N independent solves; slot i
    // holds the (i+1)-processor solution whatever the thread count.
    return evaluateBusCurve(scheme, params, max_processors);
}

std::vector<NetworkSolution>
networkPowerCurve(Scheme scheme, const WorkloadParams &params,
                  unsigned max_stages)
{
    static const std::uint32_t span = spanName("networkPowerCurve");
    obs::ScopedSpan scoped(span);
    return evaluateNetworkCurve(scheme, params, max_stages);
}

} // namespace swcc
