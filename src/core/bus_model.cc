#include "core/bus_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/obs/metrics.hh"

namespace swcc
{

namespace
{

/** Records one MVA solve (@p iterations = customer-population steps). */
void
noteBusSolve(unsigned iterations)
{
    static obs::Counter &solves =
        obs::metrics().counter("solver.bus.solves");
    static obs::Counter &iters =
        obs::metrics().counter("solver.bus.iterations");
    solves.add(1);
    iters.add(iterations);
}

} // namespace

BusSolution
solveBus(const PerInstructionCost &cost, unsigned processors)
{
    if (processors == 0) {
        throw std::invalid_argument("need at least one processor");
    }
    if (cost.channel < 0.0) {
        throw std::invalid_argument("bus demand b must be non-negative");
    }
    if (cost.cpu < cost.channel) {
        throw std::invalid_argument(
            "CPU time per instruction cannot be less than bus time");
    }

    BusSolution sol;
    sol.processors = processors;
    sol.cpu = cost.cpu;
    sol.bus = cost.channel;

    const double service = cost.channel;       // S = b
    const double think = cost.thinkTime();     // Z = c - b

    if (service == 0.0) {
        // No bus traffic at all: no contention is possible.
        sol.waiting = 0.0;
        sol.busUtilization = 0.0;
        sol.busQueueLength = 0.0;
        sol.processorUtilization = 1.0 / cost.cpu;
        sol.processingPower =
            static_cast<double>(processors) * sol.processorUtilization;
        return sol;
    }

    // Exact MVA for a closed network of one queueing station (the bus)
    // plus a delay station (the processors' think time).
    double queue = 0.0;      // Q_k: customers at the bus.
    double response = 0.0;   // R_k: bus response time.
    double throughput = 0.0; // X_k: transactions per cycle.
    for (unsigned k = 1; k <= processors; ++k) {
        response = service * (1.0 + queue);
        throughput = static_cast<double>(k) / (think + response);
        queue = throughput * response;
    }
    noteBusSolve(processors);
    // A non-finite recursion is an error, never a result.
    if (!std::isfinite(response) || !std::isfinite(queue)) {
        throw std::runtime_error(
            "bus MVA recursion produced a non-finite solution");
    }

    sol.waiting = response - service;
    sol.busUtilization = throughput * service;
    sol.busQueueLength = queue;
    sol.processorUtilization = 1.0 / (cost.cpu + sol.waiting);
    sol.processingPower =
        static_cast<double>(processors) * sol.processorUtilization;
    return sol;
}

std::vector<BusSolution>
solveBusCurve(const PerInstructionCost &cost, unsigned max_processors)
{
    if (max_processors == 0) {
        throw std::invalid_argument("need at least one processor");
    }
    if (cost.channel < 0.0) {
        throw std::invalid_argument("bus demand b must be non-negative");
    }
    if (cost.cpu < cost.channel) {
        throw std::invalid_argument(
            "CPU time per instruction cannot be less than bus time");
    }

    const std::size_t n = max_processors;
    std::vector<BusSolution> curve(n);

    const double service = cost.channel;   // S = b
    const double think = cost.thinkTime(); // Z = c - b

    if (service == 0.0) {
        // No bus traffic at all: no contention at any population.
        const double utilization = 1.0 / cost.cpu;
        for (std::size_t i = 0; i < n; ++i) {
            BusSolution &sol = curve[i];
            sol.processors = static_cast<unsigned>(i) + 1;
            sol.cpu = cost.cpu;
            sol.bus = cost.channel;
            sol.processorUtilization = utilization;
            sol.processingPower =
                static_cast<double>(i + 1) * utilization;
        }
        return curve;
    }

    // One MVA recursion; each population k is a prefix of the same
    // iteration solveBus() runs, so recording the state at every k
    // reproduces the per-point solutions bit for bit.
    std::vector<double> responses(n);
    std::vector<double> throughputs(n);
    std::vector<double> queues(n);
    double queue = 0.0;
    double response = 0.0;
    double throughput = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
        response = service * (1.0 + queue);
        throughput = static_cast<double>(k) / (think + response);
        queue = throughput * response;
        responses[k - 1] = response;
        throughputs[k - 1] = throughput;
        queues[k - 1] = queue;
    }
    noteBusSolve(max_processors);
    // One finiteness check per curve: a failure fails the whole curve,
    // exactly as a failed per-point solve would.
    if (!std::isfinite(response) || !std::isfinite(queue)) {
        throw std::runtime_error(
            "bus MVA recursion produced a non-finite solution");
    }

    // Derive pass: the per-point outputs with solveBus()'s arithmetic.
    for (std::size_t i = 0; i < n; ++i) {
        BusSolution &sol = curve[i];
        sol.processors = static_cast<unsigned>(i) + 1;
        sol.cpu = cost.cpu;
        sol.bus = cost.channel;
        sol.waiting = responses[i] - service;
        sol.busUtilization = throughputs[i] * service;
        sol.busQueueLength = queues[i];
        sol.processorUtilization = 1.0 / (cost.cpu + sol.waiting);
        sol.processingPower =
            static_cast<double>(i + 1) * sol.processorUtilization;
    }
    return curve;
}

BusSolution
solveBusGeneralService(const PerInstructionCost &cost,
                       unsigned processors, double scv)
{
    if (scv < 0.0) {
        throw std::invalid_argument(
            "squared coefficient of variation must be >= 0");
    }
    if (processors == 0) {
        throw std::invalid_argument("need at least one processor");
    }
    if (cost.channel < 0.0 || cost.cpu < cost.channel) {
        throw std::invalid_argument(
            "per-instruction cost must satisfy 0 <= b <= c");
    }

    BusSolution sol;
    sol.processors = processors;
    sol.cpu = cost.cpu;
    sol.bus = cost.channel;

    const double service = cost.channel;
    const double think = cost.thinkTime();

    if (service == 0.0) {
        sol.processorUtilization = 1.0 / cost.cpu;
        sol.processingPower =
            static_cast<double>(processors) * sol.processorUtilization;
        return sol;
    }

    // Reiser's approximate MVA with a residual-service correction for
    // non-exponential FCFS service. With one customer there is no
    // queueing regardless of the distribution.
    double queue = 0.0;
    double utilization = 0.0;
    double response = service;
    double throughput = 1.0 / (think + response);
    queue = throughput * response;
    utilization = throughput * service;
    for (unsigned k = 2; k <= processors; ++k) {
        response = service * (1.0 + queue) -
            (1.0 - scv) / 2.0 * utilization * service;
        response = std::max(response, service);
        throughput = static_cast<double>(k) / (think + response);
        queue = throughput * response;
        utilization = throughput * service;
    }
    noteBusSolve(processors);
    if (!std::isfinite(response) || !std::isfinite(queue)) {
        throw std::runtime_error(
            "bus approximate MVA produced a non-finite solution");
    }

    sol.waiting = response - service;
    sol.busUtilization = utilization;
    sol.busQueueLength = queue;
    sol.processorUtilization = 1.0 / (cost.cpu + sol.waiting);
    sol.processingPower =
        static_cast<double>(processors) * sol.processorUtilization;
    return sol;
}

double
busSaturationPower(const PerInstructionCost &cost)
{
    if (cost.channel == 0.0) {
        return std::numeric_limits<double>::infinity();
    }
    return 1.0 / cost.channel;
}

double
busSaturationProcessors(const PerInstructionCost &cost)
{
    if (cost.channel == 0.0) {
        return std::numeric_limits<double>::infinity();
    }
    return cost.cpu / cost.channel;
}

} // namespace swcc
