/**
 * @file
 * Configuration of the synthetic multiprocessor workload generator.
 *
 * The generator stands in for the paper's ATUM-2 traces (POPS, THOR,
 * PERO): it produces interleaved per-processor reference streams with
 * controllable data-reference density, sharing level, write fraction,
 * critical-section structure (which induces the apl run lengths the
 * Software-Flush scheme depends on), and enough locality for cache size
 * to matter.
 */

#ifndef SWCC_SIM_SYNTH_WORKLOAD_CONFIG_HH
#define SWCC_SIM_SYNTH_WORKLOAD_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/trace/trace_stats.hh"

namespace swcc
{

/**
 * Parameters of a synthetic parallel application.
 *
 * Address space layout: each processor has a code segment and a private
 * data segment at fixed, widely separated bases; a single shared
 * segment is common to all processors. The shared segment's address
 * range doubles as the software schemes' "marked shared" region.
 */
struct SyntheticWorkloadConfig
{
    /** Address of the first code segment. */
    static constexpr Addr kCodeBase = 0x0100'0000;
    /** Separation between consecutive processors' code segments. */
    static constexpr Addr kCodeStride = 0x0010'0000;
    /** Address of the first private data segment. */
    static constexpr Addr kPrivateBase = 0x4000'0000;
    /** Separation between consecutive private data segments. */
    static constexpr Addr kPrivateStride = 0x0100'0000;
    /** Base of the shared data segment. */
    static constexpr Addr kSharedBase = 0x8000'0000;
    /**
     * Most processors whose private segments fit below the shared
     * segment (64); CPU 64's would start at kSharedBase.
     */
    static constexpr unsigned kMaxCpus = static_cast<unsigned>(
        (kSharedBase - kPrivateBase) / kPrivateStride);

    /** Label for reports ("pops-like", ...). */
    std::string name = "synthetic";

    unsigned numCpus = 4;
    /** Non-flush instructions generated per processor. */
    std::size_t instructionsPerCpu = 200'000;
    std::uint64_t seed = 1;

    /** Probability an instruction carries a data reference (ls). */
    double ls = 0.3;
    /** Target fraction of data references to the shared segment (shd). */
    double shd = 0.25;
    /** Store fraction among shared references (wr). */
    double wrShared = 0.25;
    /** Store fraction among private references. */
    double wrPrivate = 0.30;

    /**
     * Per-processor code segment size in bytes (the static code
     * footprint).
     */
    std::size_t codeBytes = 48 * 1024;
    /**
     * Pareto shape of the code-block LRU stack-distance distribution.
     * Instruction fetch walks a block (4 instructions), then jumps to
     * the block at stack distance d with P(d > x) = x^-alpha; larger
     * alpha means tighter loops and a lower instruction miss rate.
     */
    double codeParetoAlpha = 0.65;

    /** Per-processor private data segment size in bytes. */
    std::size_t privateBytes = 256 * 1024;
    /**
     * Pareto shape of the private-data stack-distance distribution;
     * the miss rate of an L-line cache is roughly L^-alpha.
     */
    double privateParetoAlpha = 0.52;

    /** Shared segment size in bytes. */
    std::size_t sharedBytes = 64 * 1024;
    /** Blocks touched per critical section. */
    unsigned regionBlocks = 4;
    /** Shared data references per critical section. */
    unsigned csDataRefs = 32;
    /** Zipf skew of critical-section region popularity. */
    double regionZipf = 0.5;
    /**
     * Fraction of critical sections that only read shared data (their
     * flushes are clean); controls the measured mdshd.
     */
    double readOnlyCsFraction = 0.5;
    /** Fraction of critical sections that also pound a lock block. */
    double lockFraction = 0.3;
    /** Number of lock blocks at the bottom of the shared segment. */
    unsigned numLocks = 4;

    /**
     * Emit flush instructions at critical-section exit (one per touched
     * shared block), producing a Software-Flush-style trace.
     */
    bool emitFlushes = false;

    /**
     * Process migration interval: one migration event per this many
     * retired instructions across the machine (0 = no migration, the
     * paper's trace regime). At each event two processors exchange
     * processes (code and private-data segments) and restart their
     * locality stacks cold, so "private" blocks become dynamically
     * multi-processor — the effect the paper's traces could not show.
     */
    std::size_t migrationIntervalInstrs = 0;

    /** Cache-block granularity used by the generator. */
    std::size_t blockBytes = 16;

    /** Code segment base for @p cpu. */
    Addr codeBase(CpuId cpu) const;
    /** Private segment base for @p cpu. */
    Addr privateBase(CpuId cpu) const;

    /**
     * Classifier marking the shared segment, the software schemes'
     * "compiler-identified shared data".
     */
    SharedClassifier sharedClassifier() const;

    /**
     * Checks structural validity (non-zero sizes, at most kMaxCpus
     * processors, blocks of at least one word, probabilities in
     * range, segments that cannot overlap).
     *
     * @throws std::invalid_argument naming the offending field.
     */
    void validate() const;
};

} // namespace swcc

#endif // SWCC_SIM_SYNTH_WORKLOAD_CONFIG_HH
