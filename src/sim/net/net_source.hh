/**
 * @file
 * Request source (processor) model for the network simulator.
 */

#ifndef SWCC_SIM_NET_NET_SOURCE_HH
#define SWCC_SIM_NET_NET_SOURCE_HH

#include <cstdint>

#include "sim/synth/rng.hh"

namespace swcc
{

/**
 * One processor-side network port.
 *
 * The source alternates between *thinking* (computing, geometric
 * duration with a configurable mean) and issuing one memory
 * transaction. Transactions are either a train of unit requests (the
 * analytical model's unit-request approximation) or a single circuit
 * held for the full message duration; the network decides which.
 * Blocked attempts are retried every cycle, as in the paper's
 * unbuffered drop-and-retry switches.
 */
class NetSource
{
  public:
    /** What the source is doing this cycle. */
    enum class State : std::uint8_t
    {
        /** Computing; no request at the port. */
        Thinking,
        /** Presenting a request at the port (possibly retrying). */
        Requesting,
        /** Holding an established circuit (circuit mode only). */
        Holding,
    };

    /**
     * @param mean_think Mean computing cycles between transactions
     *        (1/m in the model's terms); zero saturates the source.
     * @param units_mean Mean unit requests per transaction (t); each
     *        transaction draws floor/ceil randomly to hit the mean.
     * @param num_dests Number of memory modules (uniform destinations).
     */
    NetSource(double mean_think, double units_mean,
              std::uint32_t num_dests);

    State state() const { return state_; }

    /** Destination of the current request. @pre Requesting */
    std::uint32_t dest() const { return dest_; }

    /**
     * Advances one idle cycle (Thinking or Holding); may transition to
     * Requesting (drawing a destination) or back to Thinking.
     */
    void tick(Rng &rng);

    /**
     * tick() calls until the current Thinking or Holding state ends:
     * 1 when no time is left, else ceil(time left).
     */
    std::uint64_t ticksLeft() const;

    /**
     * Runs the ticksLeft() ticks that end the current Thinking or
     * Holding state: the silent ones at once, then the last through
     * tick(). Ends in the same state, with the same draws, as that
     * many tick() calls (x - 1.0 is exact for 1 <= x < 2^53).
     */
    void expire(Rng &rng);

    /**
     * Reports an accepted unit request; after the transaction's drawn
     * unit count the transaction completes and thinking resumes.
     */
    void unitAccepted(Rng &rng);

    /** Enters the Holding state for @p cycles (circuit established). */
    void startHolding(double cycles);

    /** Completed transactions. */
    std::uint64_t transactions() const { return transactions_; }

  private:
    void beginThink(Rng &rng);
    void beginRequest(Rng &rng);

    double meanThink_;
    double unitsMean_;
    std::uint32_t numDests_;
    State state_ = State::Thinking;
    double stateLeft_ = 0.0;
    std::uint32_t dest_ = 0;
    double unitsDone_ = 0.0;
    double unitsTarget_ = 1.0;

    std::uint64_t transactions_ = 0;
};

} // namespace swcc

#endif // SWCC_SIM_NET_NET_SOURCE_HH
