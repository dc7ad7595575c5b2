/**
 * @file
 * Adaptive update/invalidate hybrid snoopy protocol.
 *
 * Every block starts in *update* (Dragon) mode: stores to shared lines
 * broadcast the written word and remote copies update in place. A
 * per-block saturating counter tracks how useful those broadcasts are:
 * a broadcast is *wasted* when no other processor touched the block
 * since the same writer's previous broadcast (the classic adaptive-
 * hybrid heuristic of the gem5 MESI/Dragon hybrid). When the counter
 * saturates past the switch threshold the block flips to *invalidate*
 * (MESI) mode — the next shared store kills the remote copies instead
 * of updating them, and subsequent writes in the run are free. A
 * coherence miss (a processor re-referencing a copy it lost to an
 * invalidation) is evidence the block is actively shared again and
 * decays the counter, flipping the block back to update mode once it
 * drops below the threshold.
 *
 * The class holds only that policy. Each mode's bus actions are the
 * ones Dragon and MESI run: every miss is CoherenceProtocol::snoopFill()
 * with the owner keeping ownership, as in Dragon; updateCopies() is the
 * update-mode store, invalidateCopies() and refetchesLostCopy() the
 * invalidate mode's.
 */

#ifndef SWCC_SIM_CACHE_HYBRID_PROTOCOL_HH
#define SWCC_SIM_CACHE_HYBRID_PROTOCOL_HH

#include <cstdint>
#include <unordered_map>

#include "sim/cache/coherence.hh"

namespace swcc
{

/**
 * Counters describing a hybrid run's policy activity; the inherited
 * invalidation counters cover invalidate-mode stores.
 */
struct HybridMeasurements : InvalidationMeasurements
{
    /** Word broadcasts issued while in update mode. */
    std::uint64_t updateBroadcasts = 0;
    /** ... of which no remote processor read since the writer's
     *  previous broadcast (the "wasted" signal). */
    std::uint64_t wastedBroadcasts = 0;
    /** Block-policy flips update → invalidate. */
    std::uint64_t switchesToInvalidate = 0;
    /** Block-policy flips invalidate → update. */
    std::uint64_t switchesToUpdate = 0;
};

/**
 * Per-block adaptive update/invalidate protocol.
 *
 * Uses the Dragon state machine (Exclusive, Dirty, SharedClean,
 * SharedDirty ownership) for update-mode traffic and the MESI
 * invalidation for invalidate-mode stores; every miss is the shared
 * snoopy fill, supplied by a dirty owner when one exists.
 */
class HybridProtocol : public CoherenceProtocol
{
  public:
    /** Saturation ceiling of the per-block wasted-broadcast counter. */
    static constexpr std::uint8_t kCounterMax = 7;
    /** Counter value at which a block flips to invalidate mode. */
    static constexpr std::uint8_t kSwitchThreshold = 4;

    HybridProtocol(const CacheConfig &cache_config, CpuId num_cpus);

    void access(CpuId cpu, RefType type, Addr addr,
                AccessResult &out) override;

    Scheme scheme() const override { return Scheme::Hybrid; }

    const HybridMeasurements &measurements() const { return measured_; }

    /** True if @p block is currently in invalidate mode (for tests). */
    bool inInvalidateMode(Addr block) const;

  private:
    /** Per-block adaptive policy state, created on first broadcast. */
    struct BlockPolicy
    {
        /** Saturating wasted-broadcast counter in [0, kCounterMax]. */
        std::uint8_t wasted = 0;
        /** Processor that issued the block's last broadcast. */
        CpuId lastWriter = 0;
        /** A processor other than lastWriter touched the block since
         *  the last broadcast (makes the next broadcast "useful"). */
        bool remoteAccessSinceWrite = true;
        /** Current policy: false = update (Dragon), true = MESI. */
        bool invalidateMode = false;
    };

    /** Scores an update-mode broadcast by @p cpu as wasted or useful,
     *  flipping the block to invalidate mode at the threshold. */
    void scoreBroadcast(CpuId cpu, BlockPolicy &policy);

    HybridMeasurements measured_;
    /** Block → adaptive policy; entries appear on first broadcast. */
    std::unordered_map<Addr, BlockPolicy> policy_;
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_HYBRID_PROTOCOL_HH
