/**
 * @file
 * Synthetic multiprocessor trace generator.
 */

#ifndef SWCC_SIM_SYNTH_TRACE_GENERATOR_HH
#define SWCC_SIM_SYNTH_TRACE_GENERATOR_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/synth/rng.hh"
#include "sim/synth/workload_config.hh"
#include "sim/trace/trace_buffer.hh"

namespace swcc
{

/**
 * Generates interleaved multiprocessor traces from a synthetic
 * application model.
 *
 * Locality: both instruction and private-data streams follow an LRU
 * stack-distance model with a Pareto(alpha) distance distribution —
 * the reference at distance d reuses the d-th most recently used
 * block, so an L-line cache misses at roughly L^-alpha. Instruction
 * fetch additionally walks each code block sequentially (4
 * instructions per 16-byte block). New blocks are allocated in a
 * shuffled order within their segment so that hot blocks spread across
 * cache sets.
 *
 * Sharing: each processor alternates non-critical phases (private data
 * only) with critical sections over a small region of shared blocks,
 * optionally guarded by a lock block and optionally flushed on exit
 * (Software-Flush style traces). The non-critical phase length is
 * derived from the configured shd so the shared fraction of data
 * references matches it in expectation.
 *
 * The interleave picks the next processor uniformly at random,
 * modelling symmetric progress; per-processor program order is
 * preserved.
 */
class TraceGenerator
{
  public:
    /**
     * @param config Validated on construction.
     * @throws std::invalid_argument via config.validate().
     */
    explicit TraceGenerator(const SyntheticWorkloadConfig &config);

    /**
     * Generates the full trace: every processor retires
     * `instructionsPerCpu` non-flush instructions.
     */
    TraceBuffer generate();

    /**
     * Generates into @p trace, reusing its allocated capacity. The
     * buffer is cleared first; the result is identical to generate().
     * Lets batched campaign cells keep one arena per pool lane instead
     * of allocating a fresh multi-megabyte buffer per cell.
     */
    void generateInto(TraceBuffer &trace);

  private:
    /** What a processor is currently doing. */
    enum class Phase : std::uint8_t
    {
        NonCritical,
        Critical,
    };

    /**
     * An LRU stack over a segment's blocks with shuffled allocation.
     */
    struct SegmentStack
    {
        /** Move-to-front list of allocated block indices (front=MRU). */
        std::vector<std::uint32_t> stack;
        /** Shuffled allocation order of all block indices. */
        std::vector<std::uint32_t> order;
        /** Next unallocated position in @c order. */
        std::size_t allocated = 0;
    };

    /** Generator state of one processor. */
    struct CpuState
    {
        CpuId id = 0;
        /** Process currently running here (selects the segments). */
        CpuId processId = 0;
        Phase phase = Phase::NonCritical;
        /** Instructions left in the current non-critical phase. */
        std::size_t phaseInstrsLeft = 0;
        /** Shared references left in the current critical section. */
        unsigned csRefsLeft = 0;
        /** First block of the current critical-section region. */
        Addr regionBase = 0;
        /** Lock block guarding the current section (0 = none). */
        Addr lockBlock = 0;
        /** Whether the current section only reads shared data. */
        bool csReadOnly = false;
        /**
         * Blocks touched in the current section, flushed on exit;
         * filled on flush traces only.
         */
        std::unordered_set<Addr> touched;
        /** Non-flush instructions retired so far. */
        std::size_t retired = 0;
        /** Pending events not yet drained into the trace. */
        std::vector<TraceEvent> pending;
        std::size_t pendingNext = 0;

        SegmentStack code;
        SegmentStack data;
        /** Current code block and next word within it. */
        Addr curCodeBlock = 0;
        unsigned codeWord = 0;
    };

    /** Refills a processor's pending queue with one instruction. */
    void refill(CpuState &cpu);

    /**
     * Emits one instruction fetch and advances the code-stack walk.
     * @param counts_as_work False for flush-instruction fetches.
     */
    void emitInstruction(CpuState &cpu, bool counts_as_work = true);

    /** Emits a private data reference via the data stack model. */
    void emitPrivateRef(CpuState &cpu);

    /** Emits a shared data reference within the active region. */
    void emitSharedRef(CpuState &cpu);

    /** Starts a non-critical phase with a freshly drawn length. */
    void startNonCritical(CpuState &cpu);

    /** Starts a critical section: region choice, lock acquire. */
    void startCritical(CpuState &cpu);

    /** Ends a critical section: lock release, optional flushes. */
    void endCritical(CpuState &cpu);

    /** Mean non-critical instructions implied by ls and shd. */
    double nonCriticalMeanInstructions() const;

    /**
     * Picks the next block index from a segment stack: Pareto reuse
     * when the distance lands in the stack, shuffled allocation while
     * unallocated blocks remain, coldest-block reuse afterwards.
     * @param exponent The segment's -1 / alpha.
     */
    std::uint32_t nextBlock(SegmentStack &seg, double exponent);

    /** Initialises a segment stack over @p num_blocks blocks. */
    void initSegment(SegmentStack &seg, std::size_t num_blocks);

    /** Swaps two processors' processes (migration event). */
    void migrate();

    SyntheticWorkloadConfig config_;
    /** -1 / alpha of the code and private-data stack distances. */
    double codeExponent_ = 0.0;
    double privateExponent_ = 0.0;
    Rng rng_;
    std::vector<CpuState> cpus_;
    /** Total retired instructions across processors. */
    std::size_t totalRetired_ = 0;
    /** Retirement count at which the next migration fires. */
    std::size_t nextMigrationAt_ = 0;
};

/**
 * Convenience: construct, generate, and return the trace.
 */
TraceBuffer generateTrace(const SyntheticWorkloadConfig &config);

/**
 * Convenience: construct and generate into @p out, reusing its
 * capacity (see TraceGenerator::generateInto()).
 */
void generateTrace(const SyntheticWorkloadConfig &config,
                   TraceBuffer &out);

} // namespace swcc

#endif // SWCC_SIM_SYNTH_TRACE_GENERATOR_HH
