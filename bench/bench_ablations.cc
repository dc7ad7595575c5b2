/**
 * @file
 * Ablation studies for the modelling choices called out in DESIGN.md:
 *
 *  A1. Dragon's minor effects: the paper notes cache-supplied misses
 *      and cycle stealing "are small and could have been omitted".
 *      We quantify both by zeroing them.
 *  A2. The Software-Flush refetch-miss term: drop the "one clean miss
 *      per flush" effect and show the model becomes wildly optimistic.
 *  A3. Exponential-service bias: compare the MVA waiting time with a
 *      deterministic-service (M/D/1-style) correction to explain the
 *      model's systematic contention overestimate.
 *
 * A4-A6 vary block size, crossbar width and process migration. Each
 * table is also written to bench_results/ablation_a<N>_*.csv.
 */

#include <iostream>

#include "core/swcc.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace
{

using namespace swcc;

void
ablationDragonEffects()
{
    std::cout << "--- A1: Dragon minor effects (16 CPUs, medium "
                 "parameters) ---\n\n";
    const WorkloadParams params = middleParams();
    const double full =
        evaluateBus(Scheme::Dragon, params, 16).processingPower;

    // Zero cache-supplied misses: pretend every miss hits memory.
    WorkloadParams no_cache_supply = params;
    no_cache_supply.oclean = 1.0;
    const double without_supply =
        evaluateBus(Scheme::Dragon, no_cache_supply, 16)
            .processingPower;

    // Zero cycle stealing.
    WorkloadParams no_steal = params;
    no_steal.nshd = 0.0;
    const double without_steal =
        evaluateBus(Scheme::Dragon, no_steal, 16).processingPower;

    TextTable table({"variant", "power", "delta %"});
    auto delta = [full](double v) {
        return formatNumber(100.0 * (v - full) / full, 2);
    };
    table.addRow({"full model", formatNumber(full, 3), "0"});
    table.addRow({"no cache-supplied misses",
                  formatNumber(without_supply, 3),
                  delta(without_supply)});
    table.addRow({"no cycle stealing", formatNumber(without_steal, 3),
                  delta(without_steal)});
    table.print(std::cout);
    exportCsv(table, "ablation_a1_dragon_effects");
    std::cout << "\nBoth effects move processing power well under 1%, "
                 "confirming the paper's\nremark that they could have "
                 "been omitted.\n\n";
}

void
ablationRefetchMiss()
{
    std::cout << "--- A2: Software-Flush refetch-miss term (16 CPUs) "
                 "---\n\n";
    const WorkloadParams params = middleParams();
    const FrequencyVector full_freqs =
        operationFrequencies(Scheme::SoftwareFlush, params);

    // Rebuild the frequency vector without the refetch misses.
    FrequencyVector no_refetch = full_freqs;
    const double flush = flushFrequency(params);
    no_refetch.set(Operation::CleanMissMem,
                   full_freqs.of(Operation::CleanMissMem) - flush);

    const BusCostModel costs;
    const BusSolution with_term =
        solveBus(perInstructionCost(full_freqs, costs), 16);
    const BusSolution without_term =
        solveBus(perInstructionCost(no_refetch, costs), 16);

    TextTable table({"variant", "c", "b", "power"});
    table.addRow({"with refetch misses (paper)",
                  formatNumber(with_term.cpu, 3),
                  formatNumber(with_term.bus, 3),
                  formatNumber(with_term.processingPower, 2)});
    table.addRow({"without refetch misses",
                  formatNumber(without_term.cpu, 3),
                  formatNumber(without_term.bus, 3),
                  formatNumber(without_term.processingPower, 2)});
    table.print(std::cout);
    exportCsv(table, "ablation_a2_refetch_miss");
    std::cout << "\nDropping the refetch term hides most of the "
                 "flushing cost: each flushed block\nmust be fetched "
                 "again, and that miss dominates the 1-cycle flush "
                 "itself.\n\n";
}

void
ablationServiceDistribution()
{
    std::cout << "--- A3: exponential vs deterministic bus service "
                 "(general-service MVA) ---\n\n";
    // The paper's model assumes exponential bus service while the
    // simulator (and real buses) use fixed times; Reiser's
    // residual-service correction quantifies the gap.
    const WorkloadParams params = middleParams();
    TextTable table({"scheme", "wait (scv=1)", "wait (scv=0)",
                     "power (exp)", "power (det)", "gap %"});
    for (Scheme scheme : kAllSchemes) {
        const PerInstructionCost cost = perInstructionCost(
            operationFrequencies(scheme, params), BusCostModel());
        const BusSolution exp_sol =
            solveBusGeneralService(cost, 16, 1.0);
        const BusSolution det_sol =
            solveBusGeneralService(cost, 16, 0.0);
        table.addRow(
            {std::string(schemeName(scheme)),
             formatNumber(exp_sol.waiting, 3),
             formatNumber(det_sol.waiting, 3),
             formatNumber(exp_sol.processingPower, 2),
             formatNumber(det_sol.processingPower, 2),
             formatNumber(100.0 *
                              (det_sol.processingPower -
                               exp_sol.processingPower) /
                              exp_sol.processingPower,
                          1)});
    }
    table.print(std::cout);
    exportCsv(table, "ablation_a3_service_distribution");
    std::cout << "\nDeterministic service waits less than exponential "
                 "at equal load — the reason\nthe analytical model "
                 "consistently overestimates contention versus the\n"
                 "fixed-service simulator (paper Section 3).\n\n";
}

void
ablationBlockSize()
{
    std::cout << "--- A4: block size (the paper fixes 4-word blocks) "
                 "---\n\n";
    // Bigger blocks move more bus cycles per miss. The *miss rate*
    // would also change in reality; holding it fixed isolates the
    // transfer-cost effect of the Table 1 derivation.
    const WorkloadParams params = middleParams();
    TextTable table({"block words", "Base power", "Dragon power",
                     "SW-Flush power", "No-Cache power"});
    for (unsigned words : {1u, 2u, 4u, 8u, 16u}) {
        MachineParams machine;
        machine.blockWords = words;
        const BusCostModel costs = makeBusCostModel(machine);
        std::vector<std::string> row{formatNumber(words, 0)};
        for (Scheme scheme : {Scheme::Base, Scheme::Dragon,
                              Scheme::SoftwareFlush,
                              Scheme::NoCache}) {
            row.push_back(formatNumber(
                evaluateBus(scheme, params, 16, costs).processingPower,
                2));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    exportCsv(table, "ablation_a4_block_size");
    std::cout << "\nNo-Cache is immune to block size (it moves single "
                 "words), so large blocks\nnarrow its gap — at fixed "
                 "miss rate.\n\n";
}

void
ablationSwitchWidth()
{
    std::cout << "--- A5: crossbar dimension for a 256-processor "
                 "network ---\n\n";
    // The paper: "The analysis can be extended easily to ... crossbar
    // switches with a larger dimension."
    TextTable table({"switch", "stages", "U at m=0.01", "U at m=0.03",
                     "U at m=0.08"});
    for (unsigned k : {2u, 4u, 16u}) {
        const unsigned stages = stagesForProcessorsK(256, k);
        std::vector<std::string> row{
            std::to_string(k) + "x" + std::to_string(k),
            formatNumber(stages, 0)};
        for (double rate : {0.01, 0.03, 0.08}) {
            const double size = 4.0 + 2.0 * stages;
            row.push_back(formatNumber(
                solveComputeFractionK(rate, size, stages, k), 3));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    exportCsv(table, "ablation_a5_switch_width");
    std::cout << "\nWider switches shorten the path (and each "
                 "message), raising utilization at\nevery load — the "
                 "\"faster network\" lever the paper mentions for "
                 "software\nschemes.\n";
}

void
ablationMigration()
{
    std::cout << "\n--- A6: process migration (the paper's traces had "
                 "none) ---\n\n";
    TextTable table({"migration interval", "dynamic shd",
                     "unprotected shd", "Base miss rate",
                     "Dragon power (4 cpus)"});
    for (std::size_t interval : {std::size_t{0}, std::size_t{20'000},
                                 std::size_t{5'000}}) {
        SyntheticWorkloadConfig workload =
            profileConfig(AppProfile::PopsLike, 4, 60'000, 31, false);
        workload.migrationIntervalInstrs = interval;
        const TraceBuffer trace = generateTrace(workload);

        const TraceStatistics dynamic = analyzeTrace(trace, 16);

        // Sharing invisible to the compiler: dynamic sharing within
        // the *private* segments only.
        TraceBuffer private_only;
        for (const TraceEvent &event : trace) {
            if (event.addr < SyntheticWorkloadConfig::kSharedBase) {
                private_only.append(event);
            }
        }
        const TraceStatistics unprotected =
            analyzeTrace(private_only, 16);

        CacheConfig cache;
        cache.sizeBytes = 64 * 1024;
        cache.blockBytes = 16;
        const SimStats base = simulateTrace(Scheme::Base, trace, cache);
        MultiprocessorSystem dragon_system(Scheme::Dragon, cache, 4);
        const SimStats dragon = dragon_system.run(trace);

        table.addRow(
            {interval == 0 ? "off" : formatNumber(
                 static_cast<double>(interval), 0),
             formatNumber(dynamic.shd, 3),
             formatNumber(unprotected.shd, 3),
             formatNumber(base.dataMissRate(), 4),
             formatNumber(dragon.processingPower(), 3)});
    }
    table.print(std::cout);
    exportCsv(table, "ablation_a6_migration");
    std::cout << "\n\"Unprotected shd\" is sharing that exists "
                 "dynamically but is invisible to the\ncompiler's "
                 "marked region: under migration the software schemes "
                 "would simply be\n*incorrect* unless the OS flushes "
                 "the whole cache on every switch — a cost no\n"
                 "workload parameter in the paper's model captures. "
                 "Hardware coherence just\npays some extra misses.\n";
}

} // namespace

int
main()
{
    std::cout << "=== Ablation studies ===\n\n";
    ablationDragonEffects();
    ablationRefetchMiss();
    ablationServiceDistribution();
    ablationBlockSize();
    ablationSwitchWidth();
    ablationMigration();
    return 0;
}
