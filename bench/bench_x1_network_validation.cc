/**
 * @file
 * Extension X1: validates the Patel analytical network model against
 * the cycle-level omega-network simulator — the validation the paper
 * lists as future work ("we are not aware of any validation of this
 * model against multiprocessor traces").
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/net/net_experiment.hh"

namespace
{

using namespace swcc;

/** One validateNetworkPoint() call of the experiment. */
struct Job
{
    double rate;
    double size;
    unsigned stages;
    NetMode mode;
    unsigned switchDim;
};

/** Largest |error| of one mode at one network size. */
struct WorstError
{
    double unit = 0.0;
    double circuit = 0.0;
};

} // namespace

int
main()
{
    std::cout << "=== X1: Patel model vs omega-network simulation ===\n\n";

    const std::vector<std::pair<unsigned, double>> sizes = {
        {4, 12.0}, {6, 16.0}, {8, 20.0}};
    const std::vector<double> rates = {0.005, 0.01, 0.02, 0.04, 0.08};
    const std::vector<double> wide_rates = {0.01, 0.02, 0.05};

    // Every point seeds its own network, so the points run in
    // parallel and land in the serial order printed below.
    std::vector<Job> jobs;
    for (const auto &[stages, size] : sizes) {
        for (double rate : rates) {
            for (NetMode mode : {NetMode::UnitRequest,
                                 NetMode::Circuit}) {
                jobs.push_back({rate, size, stages, mode, 2});
            }
        }
    }
    jobs.push_back({0.04, 16.0, 6, NetMode::UnitRequest, 2});
    for (double rate : wide_rates) {
        jobs.push_back({rate, 10.0, 3, NetMode::Circuit, 4});
    }
    // A point's cost grows with processors x message cycles, so the
    // heaviest start first and the lanes finish together.
    const auto weight = [&jobs](std::size_t i) {
        double processors = 1.0;
        for (unsigned s = 0; s < jobs[i].stages; ++s) {
            processors *= jobs[i].switchDim;
        }
        return processors * jobs[i].size;
    };
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return weight(a) > weight(b);
                     });
    std::vector<NetworkValidationPoint> points(jobs.size());
    parallelFor(order.size(), [&](std::size_t k) {
        const Job &job = jobs[order[k]];
        points[order[k]] = validateNetworkPoint(
            job.rate, job.size, job.stages, job.mode, 120'000, 42,
            job.switchDim);
    });
    auto next = points.cbegin();

    std::vector<WorstError> worst;
    for (const auto &[stages, size] : sizes) {
        const unsigned processors = 1u << stages;
        std::cout << "--- " << processors << " processors, message "
                  << formatNumber(size, 0) << " cycles ---\n";
        TextTable table({"rate", "mode", "sim U", "model U", "error %",
                         "sim accept", "model accept"});
        WorstError size_worst;
        for (double rate : rates) {
            for (NetMode mode : {NetMode::UnitRequest,
                                 NetMode::Circuit}) {
                const NetworkValidationPoint &point = *next++;
                const bool unit = mode == NetMode::UnitRequest;
                double &mode_worst =
                    unit ? size_worst.unit : size_worst.circuit;
                mode_worst = std::max(
                    mode_worst, std::abs(point.computeErrorPercent()));
                table.addRow(
                    {formatNumber(rate, 3), unit ? "unit" : "circuit",
                     formatNumber(point.simCompute, 3),
                     formatNumber(point.modelCompute, 3),
                     formatNumber(point.computeErrorPercent(), 1),
                     formatNumber(point.simAcceptance, 3),
                     formatNumber(point.modelAcceptance, 3)});
            }
        }
        worst.push_back(size_worst);
        table.print(std::cout);
        exportCsv(table,
                  "x1_network_validation_p" + std::to_string(processors));
        std::cout << '\n';
    }

    // Per-stage load recursion check at one operating point.
    const NetworkValidationPoint &point = *next++;
    std::cout << "Per-stage loads m_i at rate 0.04, 64 processors "
                 "(recursion seeded with the\nsimulator's m_0):\n\n";
    TextTable loads({"stage", "sim m_i", "model m_i"});
    double worst_stage = 0.0;
    for (std::size_t i = 0; i < point.simStageLoads.size(); ++i) {
        worst_stage = std::max(
            worst_stage,
            std::abs(point.modelStageLoads[i] - point.simStageLoads[i]));
        loads.addRow({formatNumber(static_cast<double>(i), 0),
                      formatNumber(point.simStageLoads[i], 4),
                      formatNumber(point.modelStageLoads[i], 4)});
    }
    loads.print(std::cout);
    exportCsv(loads, "x1_stage_loads");

    // Wider crossbars: the paper's "larger dimension" extension,
    // model vs simulation.
    std::cout << "\n64 processors from 4x4 switches (3 stages), "
                 "circuit mode:\n\n";
    TextTable kary({"rate", "sim U", "model U", "error %"});
    double worst_wide = 0.0;
    for (double rate : wide_rates) {
        const NetworkValidationPoint &wide = *next++;
        worst_wide =
            std::max(worst_wide, std::abs(wide.computeErrorPercent()));
        kary.addRow({formatNumber(rate, 3),
                     formatNumber(wide.simCompute, 3),
                     formatNumber(wide.modelCompute, 3),
                     formatNumber(wide.computeErrorPercent(), 1)});
    }
    kary.print(std::cout);
    exportCsv(kary, "x1_wide_switches");

    std::cout << "\nFinding: largest |error| of the model's compute "
                 "fraction against the simulator:\n";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::cout << "  " << (1u << sizes[i].first)
                  << " processors: unit-request "
                  << formatNumber(worst[i].unit, 1) << "%, circuit "
                  << formatNumber(worst[i].circuit, 1) << "%\n";
    }
    std::cout << "  64 processors from 4x4 switches, circuit: "
              << formatNumber(worst_wide, 1) << "%\n"
              << "  per-stage loads from the simulator's m_0: "
              << formatNumber(worst_stage, 4) << " absolute\n";
    const bool circuit_closer =
        std::all_of(worst.begin(), worst.end(), [](const WorstError &w) {
            return w.circuit < w.unit;
        });
    std::cout << "  [" << (circuit_closer ? "holds" : "FAILS")
              << "] the model tracks circuit switching more closely "
                 "than unit requests at every size\n";
    return circuit_closer ? 0 : 1;
}
