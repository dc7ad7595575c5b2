/**
 * @file
 * Extension X3: packet switching. The paper's conclusion conjectures
 * "Use of packet-switching would be more favorable to No-Cache"; this
 * experiment (a) validates the buffered packet-network model against
 * the cycle-level packet simulator and (b) quantifies the conjecture
 * by re-running the scheme comparison under packet switching. The
 * findings are computed from the unrounded rows; the binary exits 1
 * when a claim fails.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/net/net_experiment.hh"

namespace
{

/** The "handful of words per port" X3c checks against unbounded. */
constexpr unsigned kHandfulWords = 4;

/** How close, in percent, its compute U must be to unbounded's. */
constexpr double kBufferTolerancePct = 0.5;

} // namespace

int
main()
{
    using namespace swcc;

    std::cout << "=== X3a: Kruskal-Snir packet model vs packet "
                 "simulator (64 ports) ===\n\n";
    TextTable val({"think", "sim U", "model U", "error %", "sim lat",
                   "model lat", "sim load", "model load"});
    // Each point and each buffer depth seeds its own network, so they
    // run in parallel and print in the serial order.
    const std::vector<double> thinks = {100.0, 50.0, 30.0,
                                        20.0,  15.0, 12.0};
    const std::vector<PacketValidationPoint> points =
        parallelMap(thinks.size(), [&](std::size_t i) {
            return validatePacketPoint(thinks[i], 1, 4, 6, 120'000, 13);
        });
    for (const PacketValidationPoint &p : points) {
        val.addRow({formatNumber(p.think, 0),
                    formatNumber(p.simCompute, 3),
                    formatNumber(p.modelCompute, 3),
                    formatNumber(p.computeErrorPercent(), 1),
                    formatNumber(p.simLatency, 1),
                    formatNumber(p.modelLatency, 1),
                    formatNumber(p.simLinkLoad, 3),
                    formatNumber(p.modelLinkLoad, 3)});
    }
    val.print(std::cout);
    exportCsv(val, "x3_packet_validation");

    std::cout << "\n=== X3b: circuit vs packet switching, 256 "
                 "processors ===\n\n";
    // No-Cache's packet/circuit ratio at each range, and the largest
    // of the other schemes'.
    bool no_cache_gains_most = true;
    std::string no_cache_ratios;
    std::string other_ratios;
    for (Level level : kAllLevels) {
        const WorkloadParams params = paramsAtLevel(level);
        std::cout << "--- " << levelName(level)
                  << " parameter range ---\n";
        TextTable table({"scheme", "circuit power", "packet power",
                         "packet/circuit"});
        double no_cache = 0.0;
        double best_other = 0.0;
        for (Scheme scheme : {Scheme::Base, Scheme::SoftwareFlush,
                              Scheme::NoCache}) {
            const double circuit =
                evaluateNetwork(scheme, params, 8).processingPower;
            const double packet =
                solvePacketNetwork(scheme, params, 8).processingPower;
            const double ratio = packet / circuit;
            if (scheme == Scheme::NoCache) {
                no_cache = ratio;
            } else {
                best_other = std::max(best_other, ratio);
            }
            table.addRow({std::string(schemeName(scheme)),
                          formatNumber(circuit, 1),
                          formatNumber(packet, 1),
                          formatNumber(ratio, 2) + "x"});
        }
        no_cache_gains_most = no_cache_gains_most && no_cache > best_other;
        const std::string sep = no_cache_ratios.empty() ? "" : ", ";
        no_cache_ratios += sep + formatNumber(no_cache, 2) + "x";
        other_ratios += sep + formatNumber(best_other, 2) + "x";
        table.print(std::cout);
        exportCsv(table, "x3_circuit_vs_packet_" +
                             std::string(levelName(level)));
        std::cout << '\n';
    }

    std::cout << "=== X3c: how much buffering do the switches need? "
                 "(64 ports, think 15) ===\n\n";
    TextTable buffers({"buffer words/port", "transactions",
                       "compute U", "max queue", "backpressure "
                       "stalls"});
    const std::vector<unsigned> depths = {1, 2, 4, 8, 0};
    const std::vector<PacketNetStats> depth_stats =
        parallelMap(depths.size(), [&](std::size_t i) {
            PacketNetConfig config;
            config.stages = 6;
            config.meanThink = 15.0;
            config.requestWords = 1;
            config.responseWords = 4;
            config.bufferWords = depths[i];
            config.seed = 77;
            PacketOmegaNetwork network(config);
            return network.run(60'000);
        });
    double handful_u = std::nan("");
    double unbounded_u = std::nan("");
    for (std::size_t i = 0; i < depths.size(); ++i) {
        const unsigned depth = depths[i];
        const PacketNetStats &stats = depth_stats[i];
        if (depth == kHandfulWords) {
            handful_u = stats.computeFraction;
        } else if (depth == 0) {
            unbounded_u = stats.computeFraction;
        }
        buffers.addRow(
            {depth == 0 ? "unbounded" : formatNumber(depth, 0),
             formatNumber(static_cast<double>(stats.transactions), 0),
             formatNumber(stats.computeFraction, 3),
             formatNumber(static_cast<double>(stats.maxQueueDepth), 0),
             formatNumber(static_cast<double>(stats.backpressureStalls),
                          0)});
    }
    buffers.print(std::cout);
    exportCsv(buffers, "x3_buffering");

    bool holds = true;
    const auto claim = [&holds](bool ok, const std::string &text) {
        std::cout << "  [" << (ok ? "holds" : "FAILS") << "] " << text
                  << '\n';
        holds = holds && ok;
    };
    // Packet switching removes the per-message 2n circuit-setup cost,
    // which is what punishes No-Cache's many small messages: the
    // paper's conjecture.
    std::cout << "\nFindings:\n";
    claim(no_cache_gains_most,
          "packet switching helps No-Cache most at every range: "
          "packet/circuit " + no_cache_ratios + " against at most " +
              other_ratios + " for Base and Software-Flush");
    const double buffer_gap_pct =
        100.0 * std::abs(handful_u - unbounded_u) / unbounded_u;
    claim(buffer_gap_pct <= kBufferTolerancePct,
          std::to_string(kHandfulWords) +
              " words per port match the unbounded buffer the analysis "
              "assumes: compute U " +
              formatNumber(handful_u, 3) + " against " +
              formatNumber(unbounded_u, 3) + ", " +
              formatNumber(buffer_gap_pct, 2) + "% apart (bound " +
              formatNumber(kBufferTolerancePct, 1) + "%)");
    return holds ? 0 : 1;
}
