/**
 * @file
 * Extension X6: the adaptive update/invalidate hybrid's crossover.
 *
 * The update-vs-invalidate trade-off pivots on the write-run length:
 * short runs with prompt remote re-reads favour Dragon's in-place
 * updates, long private runs favour invalidation (one miss instead of
 * a broadcast per store). The hybrid tracks wasted broadcasts per
 * block and switches policy at a threshold, so it should follow
 * whichever pure protocol wins at each run length — analytically
 * (sweeping apl) and in a protocol replay (a writer/reader
 * microbenchmark with a controlled run length). The findings are
 * computed from the rows; the binary exits 1 when a claim fails.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/swcc.hh"
#include "sim/cache/dragon_protocol.hh"
#include "sim/cache/hybrid_protocol.hh"
#include "sim/cache/mesi_family_protocol.hh"
#include "sim/trace/trace_buffer.hh"

namespace
{

using namespace swcc;

/** Shared block hammered by the microbenchmark. */
constexpr Addr kSharedBlock = 0x8000'0000;

/**
 * A writer/reader ping-pong with @p run stores per hand-off: CPU 0
 * writes the shared block @p run times, then CPU 1 reads it once,
 * repeated for @p cycles rounds.
 */
TraceBuffer
pingPongTrace(unsigned run, unsigned cycles)
{
    TraceBuffer trace;
    trace.append(0, RefType::Load, kSharedBlock);
    trace.append(1, RefType::Load, kSharedBlock);
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        for (unsigned i = 0; i < run; ++i) {
            trace.append(0, RefType::Store, kSharedBlock + 4);
        }
        trace.append(1, RefType::Load, kSharedBlock + 4);
    }
    return trace;
}

/**
 * Replays @p trace through @p protocol in interleaved trace order (the
 * hand-off pattern is the experiment, so the timing simulator's
 * per-processor scheduling must not reorder it) and counts bus work.
 */
struct ReplayTally
{
    std::uint64_t broadcasts = 0;
    std::uint64_t misses = 0;

    bool operator==(const ReplayTally &) const = default;
};

ReplayTally
replay(CoherenceProtocol &protocol, const TraceBuffer &trace)
{
    ReplayTally tally;
    for (const TraceEvent &event : trace) {
        AccessResult result;
        protocol.access(event.cpu, event.type, event.addr, result);
        for (std::size_t i = 0; i < result.numOps; ++i) {
            if (result.ops[i] == Operation::WriteBroadcast) {
                ++tally.broadcasts;
            } else if (isMiss(result.ops[i])) {
                ++tally.misses;
            }
        }
    }
    return tally;
}

/** One apl of the analytical table. */
struct ModelRow
{
    double apl;
    double dragon;
    double mesi;
    double hybrid;
    bool update;

    /** The hybrid's power short of the better pure scheme's. */
    double
    shortfall() const
    {
        const double best = std::max(dragon, mesi);
        return (best - hybrid) / best;
    }
};

/** One run length of the protocol replay. */
struct ReplayRow
{
    unsigned run;
    ReplayTally dragon;
    ReplayTally mesi;
    ReplayTally hybrid;
};

} // namespace

int
main()
{
    std::cout << "=== X6: adaptive hybrid crossover between update and "
                 "invalidate ===\n\n";

    std::cout << "Analytical model, 16 CPUs, middle parameters, "
                 "sweeping the write-run length:\n\n";
    TextTable model_table({"apl", "Dragon", "MESI", "Hybrid",
                           "hybrid policy"});
    std::vector<ModelRow> model_rows;
    for (double apl : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
        WorkloadParams params = middleParams();
        params.apl = apl;
        const double dragon =
            evaluateBus(Scheme::Dragon, params, 16).processingPower;
        const double mesi =
            evaluateBus(Scheme::Mesi, params, 16).processingPower;
        const double hybrid =
            evaluateBus(Scheme::Hybrid, params, 16).processingPower;
        const bool update =
            std::abs(hybrid - dragon) <= std::abs(hybrid - mesi);
        const char *policy =
            update ? "update (Dragon)" : "invalidate (MESI)";
        model_rows.push_back({apl, dragon, mesi, hybrid, update});
        model_table.addRow({formatNumber(apl, 0),
                            formatNumber(dragon, 2),
                            formatNumber(mesi, 2),
                            formatNumber(hybrid, 2), policy});
    }
    model_table.print(std::cout);
    exportCsv(model_table, "x6_hybrid_crossover_model");

    std::cout << "\nProtocol replay, 2 CPUs, writer/reader ping-pong, "
                 "200 hand-offs per run length:\n\n";
    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;

    TextTable sim_table({"stores/hand-off", "Dragon broadcasts",
                         "Dragon misses", "MESI broadcasts",
                         "MESI misses", "Hybrid broadcasts",
                         "Hybrid misses"});
    std::vector<ReplayRow> replay_rows;
    for (unsigned run : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const TraceBuffer trace = pingPongTrace(run, 200);

        DragonProtocol dragon_protocol(cache, 2);
        const ReplayTally dragon = replay(dragon_protocol, trace);
        MesiFamilyProtocol mesi_protocol(MesiVariant::Mesi, cache, 2);
        const ReplayTally mesi = replay(mesi_protocol, trace);
        HybridProtocol hybrid_protocol(cache, 2);
        const ReplayTally hybrid = replay(hybrid_protocol, trace);
        replay_rows.push_back({run, dragon, mesi, hybrid});

        sim_table.addRow(
            {formatNumber(run, 0),
             formatNumber(static_cast<double>(dragon.broadcasts), 0),
             formatNumber(static_cast<double>(dragon.misses), 0),
             formatNumber(static_cast<double>(mesi.broadcasts), 0),
             formatNumber(static_cast<double>(mesi.misses), 0),
             formatNumber(static_cast<double>(hybrid.broadcasts), 0),
             formatNumber(static_cast<double>(hybrid.misses), 0)});
    }
    sim_table.print(std::cout);
    exportCsv(sim_table, "x6_hybrid_crossover_sim");

    // Replay: short runs are Dragon's; from 8 stores per hand-off the
    // misses are MESI's and the broadcasts stay at one level, below
    // Dragon's.
    const ReplayRow &first_long =
        *std::find_if(replay_rows.begin(), replay_rows.end(),
                      [](const ReplayRow &row) { return row.run >= 8; });
    bool short_is_dragon = true;
    bool long_misses_are_mesi = true;
    bool long_broadcasts_level = true;
    for (const ReplayRow &row : replay_rows) {
        if (row.run <= 2) {
            short_is_dragon = short_is_dragon && row.hybrid == row.dragon;
        } else if (row.run >= 8) {
            long_misses_are_mesi =
                long_misses_are_mesi && row.hybrid.misses == row.mesi.misses;
            long_broadcasts_level = long_broadcasts_level &&
                row.hybrid.broadcasts == first_long.hybrid.broadcasts &&
                row.hybrid.broadcasts < row.dragon.broadcasts;
        }
    }

    // Model: the hybrid is one pure table at every apl, and the policy
    // flips once, from update to invalidate.
    bool one_table = true;
    unsigned switches = 0;
    double switch_apl = std::nan("");
    for (std::size_t i = 0; i < model_rows.size(); ++i) {
        const ModelRow &row = model_rows[i];
        one_table = one_table &&
            (row.hybrid == row.dragon || row.hybrid == row.mesi);
        if (i > 0 && row.update != model_rows[i - 1].update) {
            ++switches;
            switch_apl = row.apl;
        }
    }
    const bool update_first =
        model_rows.front().update && !model_rows.back().update;
    const ModelRow &shortest = *std::max_element(
        model_rows.begin(), model_rows.end(),
        [](const ModelRow &a, const ModelRow &b) {
            return a.shortfall() < b.shortfall();
        });

    bool holds = true;
    const auto claim = [&holds](bool ok, const std::string &text) {
        std::cout << "  [" << (ok ? "holds" : "FAILS") << "] " << text
                  << '\n';
        holds = holds && ok;
    };
    std::cout << "\nFindings:\n";
    claim(short_is_dragon,
          "replay: at 1 and 2 stores per hand-off the hybrid's "
          "broadcasts and misses equal Dragon's");
    claim(long_misses_are_mesi,
          "replay: from 8 stores per hand-off on, the hybrid's misses "
          "equal MESI's");
    claim(long_broadcasts_level,
          "replay: from 8 stores per hand-off on, the hybrid's "
          "broadcasts stay at " +
              std::to_string(first_long.hybrid.broadcasts) + " (MESI's: " +
              std::to_string(first_long.mesi.broadcasts) +
              "), below Dragon's");
    claim(one_table && update_first && switches == 1,
          "model: the hybrid equals one pure table at every apl and "
          "switches once, from update to invalidate, at apl " +
              formatNumber(switch_apl, 0));
    std::cout << "  largest shortfall against the better pure scheme: "
              << formatNumber(100.0 * shortest.shortfall(), 2)
              << "% at apl " << formatNumber(shortest.apl, 0)
              << " (the table picks by uncontended CPI, not by power "
                 "at 16 CPUs)\n";
    return holds ? 0 : 1;
}
