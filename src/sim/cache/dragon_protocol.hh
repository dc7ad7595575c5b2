/**
 * @file
 * Dragon write-broadcast snoopy protocol.
 */

#ifndef SWCC_SIM_CACHE_DRAGON_PROTOCOL_HH
#define SWCC_SIM_CACHE_DRAGON_PROTOCOL_HH

#include <cstdint>

#include "sim/cache/coherence.hh"
#include "sim/trace/trace_stats.hh"

namespace swcc
{

/**
 * Counters for the Dragon-specific workload parameters, gathered while
 * a trace runs (used by the parameter extractor to feed the analytical
 * model, mirroring the paper's trace measurements).
 */
struct DragonMeasurements
{
    /** Data misses to measured-shared blocks. */
    std::uint64_t sharedMisses = 0;
    /** ... of which no dirty owner supplied the fill. */
    std::uint64_t sharedMissesClean = 0;
    /** Stores to measured-shared blocks. */
    std::uint64_t sharedWrites = 0;
    /** ... of which the block was present in another cache: the
     *  broadcast updated at least one copy. */
    std::uint64_t sharedWritesPresent = 0;
    /** Write broadcasts issued. */
    std::uint64_t broadcasts = 0;
    /** Total other-cache copies updated across all broadcasts. */
    std::uint64_t broadcastCopies = 0;

    /** oclean estimate; @p fallback when no shared misses occurred. */
    double oclean(double fallback = 1.0) const;
    /** opres estimate; @p fallback when no shared writes occurred. */
    double opres(double fallback = 0.0) const;
    /** nshd estimate; @p fallback when no broadcasts occurred. */
    double nshd(double fallback = 1.0) const;
};

/**
 * The Dragon protocol (Xerox PARC), the snoopy comparison point of the
 * paper: on a store to a block that other caches hold, the written word
 * is broadcast and every holder updates in place (no invalidations).
 * Misses are supplied by the owning cache when the block is dirty
 * elsewhere, otherwise by memory.
 *
 * States: Exclusive (clean, sole copy), Dirty (modified, sole copy),
 * SharedClean, SharedDirty (modified and owned; memory stale).
 * The simulator resolves each access atomically with exact knowledge
 * of other caches, standing in for the bus "shared" line. The fill is
 * CoherenceProtocol::snoopFill(), shared with the MESI family and the
 * hybrid, and the broadcast is updateCopies(), shared with the hybrid.
 * The measurements are read off those two actions: a shared miss is
 * clean when no owner supplied the fill, and a shared write finds a
 * copy present when its broadcast updated at least one. A Shared line
 * whose sharers were all evicted still broadcasts, to no one, so its
 * state alone cannot say.
 */
class DragonProtocol : public CoherenceProtocol
{
  public:
    /**
     * @param cache_config Geometry of each cache.
     * @param num_cpus Number of processors.
     * @param measure_shared Optional classifier for the measurement
     *        counters; when absent, no measurements are collected.
     */
    DragonProtocol(const CacheConfig &cache_config, CpuId num_cpus,
                   SharedClassifier measure_shared = nullptr);

    void access(CpuId cpu, RefType type, Addr addr,
                AccessResult &out) override;

    Scheme scheme() const override { return Scheme::Dragon; }

    const DragonMeasurements &measurements() const { return measured_; }

  private:
    SharedClassifier measureShared_;
    DragonMeasurements measured_;
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_DRAGON_PROTOCOL_HH
