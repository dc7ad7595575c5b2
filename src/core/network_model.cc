#include "core/network_model.hh"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/obs/metrics.hh"

namespace swcc
{

namespace
{

/**
 * Records one bisection solve and how many iterations it took.
 * Registration is a one-time static; the per-solve cost is two
 * relaxed increments.
 */
void
noteNetworkSolve(int iterations)
{
    static obs::Counter &solves =
        obs::metrics().counter("solver.network.solves");
    static obs::Counter &iters =
        obs::metrics().counter("solver.network.iterations");
    solves.add(1);
    iters.add(static_cast<std::uint64_t>(iterations));
}

} // namespace

double
patelStageStep(double m)
{
    const double half = m / 2.0;
    return 1.0 - (1.0 - half) * (1.0 - half);
}

double
patelStageStepK(double m, unsigned k)
{
    if (k < 2) {
        throw std::invalid_argument("switch dimension must be >= 2");
    }
    const double per_input = m / static_cast<double>(k);
    return 1.0 - std::pow(1.0 - per_input, static_cast<double>(k));
}

double
solveComputeFractionK(double rate, double size, unsigned stages,
                      unsigned k)
{
    if (rate <= 0.0 || size <= 0.0) {
        throw std::invalid_argument(
            "transaction rate and size must be positive");
    }
    if (stages == 0) {
        throw std::invalid_argument("need at least one network stage");
    }
    if (k < 2) {
        throw std::invalid_argument("switch dimension must be >= 2");
    }

    const double demand = rate * size;
    auto output = [stages, k](double m0) {
        double m = m0;
        for (unsigned i = 0; i < stages; ++i) {
            m = patelStageStepK(m, k);
        }
        return m;
    };
    auto residual = [demand, &output](double u) {
        return output(1.0 - u) / demand - u;
    };

    double lo = 0.0;
    double hi = 1.0;
    int iterations = 0;
    for (int iter = 0; iter < 200; ++iter) {
        iterations = iter + 1;
        const double mid = 0.5 * (lo + hi);
        if (residual(mid) > 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-13) {
            break;
        }
    }
    noteNetworkSolve(iterations);
    if (!(hi - lo < 1e-6)) {
        throw std::runtime_error(
            "network fixed point failed to bracket U");
    }
    return 0.5 * (lo + hi);
}

unsigned
stagesForProcessorsK(unsigned processors, unsigned k)
{
    if (k < 2) {
        throw std::invalid_argument("switch dimension must be >= 2");
    }
    if (processors < 2) {
        return 1;
    }
    unsigned stages = 0;
    unsigned long long capacity = 1;
    while (capacity < processors) {
        capacity *= k;
        ++stages;
    }
    return stages;
}

double
patelNetworkOutput(double m0, unsigned stages)
{
    double m = m0;
    for (unsigned i = 0; i < stages; ++i) {
        m = patelStageStep(m);
    }
    return m;
}

std::vector<double>
patelStageLoads(double m0, unsigned stages)
{
    std::vector<double> loads;
    loads.reserve(stages + 1);
    double m = m0;
    loads.push_back(m);
    for (unsigned i = 0; i < stages; ++i) {
        m = patelStageStep(m);
        loads.push_back(m);
    }
    return loads;
}

double
solveComputeFraction(double rate, double size, unsigned stages)
{
    if (rate <= 0.0 || size <= 0.0) {
        throw std::invalid_argument(
            "transaction rate and size must be positive");
    }
    if (stages == 0) {
        throw std::invalid_argument("need at least one network stage");
    }

    const double demand = rate * size; // m*t, offered unit-request rate.

    // g(U) = P(1 - U)/(m t) - U; g(0) > 0, g(1) = -1, g decreasing.
    auto residual = [demand, stages](double u) {
        return patelNetworkOutput(1.0 - u, stages) / demand - u;
    };

    double lo = 0.0;
    double hi = 1.0;
    int iterations = 0;
    for (int iter = 0; iter < 200; ++iter) {
        iterations = iter + 1;
        const double mid = 0.5 * (lo + hi);
        if (residual(mid) > 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-13) {
            break;
        }
    }
    noteNetworkSolve(iterations);
    if (!(hi - lo < 1e-6)) {
        throw std::runtime_error(
            "network fixed point failed to bracket U");
    }
    return 0.5 * (lo + hi);
}

NetworkSolution
solveNetwork(const PerInstructionCost &cost, unsigned stages)
{
    if (stages == 0) {
        throw std::invalid_argument("need at least one network stage");
    }
    if (cost.channel < 0.0 || cost.cpu <= cost.channel) {
        throw std::invalid_argument(
            "per-instruction cost must satisfy 0 <= b < c");
    }

    NetworkSolution sol;
    sol.stages = stages;
    sol.processors = 1u << stages;
    sol.cpu = cost.cpu;
    sol.network = cost.channel;

    const double think = cost.thinkTime();
    sol.transactionRate = 1.0 / think;

    if (cost.channel == 0.0) {
        // The workload never touches the network.
        sol.unitRequestRate = 0.0;
        sol.computeFraction = 1.0;
        sol.inputLoad = 0.0;
        sol.acceptance = 1.0;
        sol.cyclesPerInstruction = cost.cpu;
        sol.waiting = 0.0;
        sol.processorUtilization = 1.0 / cost.cpu;
        sol.processingPower =
            static_cast<double>(sol.processors) * sol.processorUtilization;
        return sol;
    }

    sol.unitRequestRate = sol.transactionRate * cost.channel;
    sol.computeFraction =
        solveComputeFraction(sol.transactionRate, cost.channel, stages);
    sol.inputLoad = 1.0 - sol.computeFraction;
    sol.acceptance = sol.inputLoad > 0.0
        ? patelNetworkOutput(sol.inputLoad, stages) / sol.inputLoad
        : 1.0;
    sol.cyclesPerInstruction = think / sol.computeFraction;
    sol.waiting = sol.cyclesPerInstruction - cost.cpu;
    sol.processorUtilization = 1.0 / sol.cyclesPerInstruction;
    sol.processingPower =
        static_cast<double>(sol.processors) * sol.processorUtilization;
    return sol;
}

unsigned
stagesForProcessors(unsigned processors)
{
    if (processors < 2) {
        return 1;
    }
    unsigned stages = 0;
    unsigned capacity = 1;
    while (capacity < processors) {
        capacity *= 2;
        ++stages;
    }
    return stages;
}

} // namespace swcc
