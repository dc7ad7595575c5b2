/**
 * @file
 * Cycle-level simulator of an unbuffered circuit-switched omega
 * network of 2x2 crossbars with drop-and-retry flow control — the
 * network architecture of the paper's Section 6.1, built to validate
 * the Patel analytical model (the paper's stated future work).
 */

#ifndef SWCC_SIM_NET_OMEGA_NETWORK_HH
#define SWCC_SIM_NET_OMEGA_NETWORK_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/net/net_source.hh"
#include "sim/synth/rng.hh"

namespace swcc
{

/** How a memory transaction occupies the network. */
enum class NetMode : std::uint8_t
{
    /**
     * The unit-request approximation: a transaction of t cycles is t
     * independent single-cycle requests, each routed and arbitrated
     * separately. This is exactly what Patel's model analyses.
     */
    UnitRequest,
    /**
     * True circuit switching: one successful setup claims every switch
     * output port on the path and holds them for the whole message
     * duration.
     */
    Circuit,
};

/** Configuration of one network simulation. */
struct OmegaConfig
{
    /** Switch stages n; the network has switchDim^n ports. */
    unsigned stages = 4;
    /** Crossbar dimension k (the paper's "larger dimension" case). */
    unsigned switchDim = 2;
    /** Mean computing cycles between transactions (1/m). */
    double meanThink = 20.0;
    /** Total network cycles per transaction (t, including 2n transit). */
    double messageCycles = 12.0;
    NetMode mode = NetMode::UnitRequest;
    std::uint64_t seed = 1;

    void validate() const;
};

/**
 * Aggregate results of a network simulation: the whole simulation so
 * far, over every run() call.
 */
struct OmegaStats
{
    /** Cycles simulated, over every run() call. */
    std::uint64_t cycles = 0;
    /** Unit-request (or setup) attempts presented to stage 0. */
    std::uint64_t attempts = 0;
    /** Attempts that traversed all stages. */
    std::uint64_t accepted = 0;
    /** Completed transactions across all sources. */
    std::uint64_t transactions = 0;
    /** Mean request probability observed at each stage's inputs,
     *  stageLoads[0] being the network input (Patel's m_i). */
    std::vector<double> stageLoads;
    /** Fraction of source cycles spent computing (the model's U). */
    double computeFraction = 0.0;
    /** accepted / attempts. */
    double acceptance = 0.0;
    /** Accepted unit requests per port per cycle. */
    double throughputPerPort = 0.0;
};

/**
 * The omega network plus its request sources.
 *
 * Per cycle, every requesting source presents its request at its input
 * port; requests route by destination tag (bit n-1-i selects the
 * output port at stage i) across perfect-shuffle interconnections;
 * when two requests want the same switch output (or, in circuit mode,
 * the port is held), a random one survives and the rest are dropped,
 * to be retried by their sources next cycle.
 *
 * A cycle costs the requests in flight and the sources whose state
 * ends, not the port count: Thinking and Holding sources wait on a
 * timer calendar and are touched only in the cycle their timer fires.
 * The cycle order, which fixes the RNG draw order, is (1) arbitration,
 * stage-major and by ascending source id within a stage; (2) accepted
 * sources, ascending; (3) timers that fire this cycle, ascending.
 * Arbitration is one pass per stage over the sources that claimed an
 * output at the stage before, in that order.
 */
class OmegaNetwork
{
  public:
    explicit OmegaNetwork(const OmegaConfig &config);

    /**
     * Runs @p cycles more network cycles and returns the statistics of
     * the whole simulation so far: run(a) then run(b) returns what a
     * fresh network's run(a + b) returns.
     */
    OmegaStats run(std::uint64_t cycles);

    /** Number of ports (switchDim^stages). */
    std::uint32_t ports() const { return ports_; }

  private:
    /** One synchronous network cycle. */
    void stepCycle();

    /**
     * Arbitrates this cycle's requests stage by stage and returns the
     * sources that claimed an output at the last stage, ascending, with
     * kLost in place of each one displaced there; the rest won this
     * cycle.
     */
    std::span<const std::uint32_t> route();

    /** Computes the output port at every stage of @p source's request. */
    void computePath(std::uint32_t source);

    /** Puts @p source's timer on the calendar; it ticks first in
     *  cycle @p first_tick. */
    void schedule(std::uint32_t source, std::uint64_t first_tick);

    /**
     * Arbitration slot of one switch output port. A slot whose epoch
     * is not the current one is empty, so no per-stage clearing.
     */
    struct Slot
    {
        std::uint64_t epoch = 0;
        /** Position of the current winner in its stage's claimants. */
        std::uint32_t winner = 0;
        std::uint32_t contenders = 0;
    };

    OmegaConfig config_;
    std::uint32_t ports_;
    Rng rng_;
    std::vector<NetSource> sources_;

    /** Output port of each source's request at each stage,
     *  [source * stages + stage]. */
    std::vector<std::uint32_t> paths_;
    /** A request's port at each stage is the part its source fixes
     *  plus the part its destination fixes, [id * stages + stage]. */
    std::vector<std::uint32_t> sourcePart_;
    std::vector<std::uint32_t> destPart_;
    /** Requesting sources, ascending. */
    std::vector<std::uint32_t> requesters_;
    /** Min-heap of (expiry cycle << 16) | source over every Thinking
     *  and Holding source. */
    std::vector<std::uint64_t> calendar_;
    /** Circuit mode: cycle at which each stage output port frees,
     *  [stage * ports + port]. */
    std::vector<double> portFreeAt_;

    /** Arbitration scratch, reused every cycle. */
    std::vector<Slot> slots_;
    std::uint64_t epoch_ = 0;
    /**
     * The sources that claimed an output at even and at odd stages,
     * ascending, ports_ entries each: a stage reads the other stage's
     * buffer and appends to its own. A claimant displaced later in its
     * stage is overwritten with kLost, which the next stage skips, so
     * no pass compacts the buffer.
     */
    std::vector<std::uint32_t> claimants_[2];
    static constexpr std::uint32_t kLost = ~std::uint32_t{0};
    std::vector<std::uint32_t> fired_;
    std::vector<std::uint32_t> merged_;

    /** Current cycle; cycles simulated so far. */
    std::uint64_t now_ = 0;
    /** Sources in the Thinking state at the start of this cycle. */
    std::uint64_t thinking_ = 0;
    std::uint64_t thinkCycles_ = 0;

    /** Per-stage sums of offered requests, for stage loads. */
    std::vector<std::uint64_t> stageOffered_;
    std::uint64_t attempts_ = 0;
    std::uint64_t accepted_ = 0;
};

} // namespace swcc

#endif // SWCC_SIM_NET_OMEGA_NETWORK_HH
