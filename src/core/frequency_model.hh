/**
 * @file
 * Workload model: per-instruction operation frequencies for each
 * coherence scheme (paper Tables 3-6).
 */

#ifndef SWCC_CORE_FREQUENCY_MODEL_HH
#define SWCC_CORE_FREQUENCY_MODEL_HH

#include <array>

#include "core/operation.hh"
#include "core/types.hh"
#include "core/workload.hh"

namespace swcc
{

/**
 * Expected number of occurrences of each operation per (non-flush)
 * instruction.
 *
 * Frequencies are expectations, not probabilities: they may exceed one
 * (e.g. Dragon's cycle stealing with nshd > 1) and several may occur
 * for the same instruction.
 */
class FrequencyVector
{
  public:
    /** Frequency of one operation. */
    double
    of(Operation op) const
    {
        return freqs_[operationIndex(op)];
    }

    /** Sets the frequency of one operation. */
    void
    set(Operation op, double freq)
    {
        freqs_[operationIndex(op)] = freq;
    }

    /** Adds to the frequency of one operation. */
    void
    add(Operation op, double freq)
    {
        freqs_[operationIndex(op)] += freq;
    }

    /** Sum of all miss frequencies (memory- and cache-supplied). */
    double totalMisses() const;

    /** Sum of all frequencies that occupy the shared channel. */
    double totalChannelOperations() const;

  private:
    std::array<double, kNumOperations> freqs_{};
};

/**
 * Operation frequencies for @p scheme under workload @p params.
 *
 * Implements the paper's Tables 3-6 exactly, including the three
 * Software-Flush effects described in Section 2.2.3: the flush
 * instruction itself (dirty with probability mdshd), the refetch miss
 * that re-loads each flushed block (treated as a clean miss because the
 * flush just freed the block's frame), and the inflation of instruction
 * fetches (and hence instruction misses) by the inserted flush
 * instructions. Frequencies are reported per *non-flush* instruction so
 * that flush overhead is amortised over useful instructions.
 *
 * @throws std::invalid_argument if @p params fails validation.
 */
FrequencyVector operationFrequencies(Scheme scheme,
                                     const WorkloadParams &params);

/**
 * Frequency of flush instructions per non-flush instruction in the
 * Software-Flush scheme: ls * shd / apl.
 */
double flushFrequency(const WorkloadParams &params);

/**
 * Fraction of shared writes that invalidate: only the first of a run's
 * wr*apl writes finds remote copies, so min(1, 1/(wr*apl)).
 */
double firstWriteFraction(const WorkloadParams &params);

/**
 * MESI's table with @p reref, the fraction of destroyed copies read
 * again, as an argument; operationFrequencies(Scheme::Mesi, p) is
 * invalidateFrequencies(p, p.opres).
 * @throws std::invalid_argument on invalid @p params or @p reref
 *         outside [0, 1].
 */
FrequencyVector invalidateFrequencies(const WorkloadParams &params,
                                      double reref);

} // namespace swcc

#endif // SWCC_CORE_FREQUENCY_MODEL_HH
