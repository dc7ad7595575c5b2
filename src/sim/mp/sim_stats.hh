/**
 * @file
 * Statistics produced by a multiprocessor simulation run.
 */

#ifndef SWCC_SIM_MP_SIM_STATS_HH
#define SWCC_SIM_MP_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/operation.hh"
#include "core/types.hh"
#include "sim/trace/trace_event.hh"

namespace swcc
{

/** Per-processor simulation counters. */
struct CpuStats
{
    /** Instructions fetched (including flush instructions). */
    std::uint64_t instructions = 0;
    /** Flush instructions executed (coherence overhead, not work). */
    std::uint64_t flushes = 0;
    /** Loads + stores issued. */
    std::uint64_t dataRefs = 0;
    /** Cycle at which this processor finished its trace. */
    Cycles finishTime = 0.0;
    /** Cycles spent waiting for the bus. */
    Cycles busWaiting = 0.0;
    /** Cycles stolen by other processors' broadcasts. */
    Cycles stolen = 0.0;

    /** Useful (non-flush) instructions. */
    std::uint64_t
    usefulInstructions() const
    {
        return instructions - flushes;
    }

    /** Fraction of time spent on useful instruction execution. */
    double
    utilization() const
    {
        return finishTime > 0.0
            ? static_cast<double>(usefulInstructions()) / finishTime
            : 0.0;
    }
};

/** Whole-system simulation results. */
struct SimStats
{
    /** The simulated protocol's scheme. */
    Scheme scheme = Scheme::Base;
    /** The simulated protocol's name(), i.e. schemeName(scheme). */
    std::string protocolName;
    CpuId cpus = 0;

    std::vector<CpuStats> perCpu;

    /** Occurrences of each system-model operation. */
    std::array<std::uint64_t, kNumOperations> opCounts{};

    /** Misses broken out by reference kind. */
    std::uint64_t instrMisses = 0;
    std::uint64_t dataMisses = 0;
    std::uint64_t dirtyMisses = 0;

    /** Bus aggregates. */
    Cycles busBusyCycles = 0.0;
    std::uint64_t busTransactions = 0;

    /** Largest per-processor finish time. */
    Cycles makespan = 0.0;

    /** Totals over processors. */
    std::uint64_t totalInstructions() const;
    std::uint64_t totalUsefulInstructions() const;
    std::uint64_t totalDataRefs() const;

    /** Sum of per-processor utilizations (the paper's n * U metric). */
    double processingPower() const;

    /** Mean per-processor utilization. */
    double avgUtilization() const;

    /** Fraction of the makespan the bus was held. */
    double busUtilization() const;

    /** Data misses per data reference (msdat). */
    double dataMissRate() const;

    /** Instruction misses per instruction (mains). */
    double instrMissRate() const;

    /** Fraction of misses that replaced a dirty block (md). */
    double dirtyMissFraction() const;

    /** Occurrences of @p op. */
    std::uint64_t
    opCount(Operation op) const
    {
        return opCounts[operationIndex(op)];
    }

    /**
     * Canonical, lossless text form of every counter and clock (cycle
     * values rendered as hexfloats). Two runs produced the same
     * statistics if and only if their serializations compare equal,
     * which is how the golden-stats tests and the simulator perf
     * harness assert bit-identical behaviour across snoop paths and
     * thread counts.
     */
    std::string serialize() const;
};

} // namespace swcc

#endif // SWCC_SIM_MP_SIM_STATS_HH
