/**
 * @file
 * The invalidate-based snoopy protocol family: MESI, MESIF, MOESI.
 *
 * One driver implements all three variants, because they share the
 * Illinois skeleton — a store to a shared line broadcasts an
 * invalidation killing every remote copy; misses to a block dirty
 * elsewhere are supplied by the owning cache — and differ only in two
 * policy points:
 *
 *  - MESIF adds a clean-forwarder slot: one clean sharer per block is
 *    designated to supply shared misses cache-to-cache, so clean-shared
 *    misses no longer go to memory.
 *  - MOESI adds the Owned state (mapped onto LineState::SharedDirty):
 *    a dirty owner supplying a miss keeps ownership and memory stays
 *    stale, deferring the write-back to the owner's eviction.
 *
 * The store-side invalidation and the coherence-miss count are
 * CoherenceProtocol::invalidateCopies() and refetchesLostCopy(), which
 * the hybrid shares. MESI is also the write-invalidate side of the
 * update-versus-invalidate comparison (X5): its measurements() give
 * the copies each invalidation destroys and the fraction of them read
 * again.
 */

#ifndef SWCC_SIM_CACHE_MESI_FAMILY_PROTOCOL_HH
#define SWCC_SIM_CACHE_MESI_FAMILY_PROTOCOL_HH

#include <cstdint>
#include <unordered_map>

#include "sim/cache/coherence.hh"

namespace swcc
{

/** Which member of the invalidate family a driver instance runs. */
enum class MesiVariant : std::uint8_t
{
    Mesi,
    Mesif,
    Moesi,
};

/** The Scheme a variant corresponds to. */
constexpr Scheme
mesiVariantScheme(MesiVariant variant)
{
    switch (variant) {
      case MesiVariant::Mesi:  return Scheme::Mesi;
      case MesiVariant::Mesif: return Scheme::Mesif;
      case MesiVariant::Moesi: return Scheme::Moesi;
    }
    return Scheme::Mesi;
}

/** Counters describing a MESI-family run's coherence activity. */
struct MesiFamilyMeasurements : InvalidationMeasurements
{
    /** Misses supplied by a dirty (or Owned) remote cache. */
    std::uint64_t ownerSupplies = 0;
    /** Misses supplied by the MESIF clean forwarder. */
    std::uint64_t forwardSupplies = 0;
};

/**
 * MESI / MESIF / MOESI snooping driver.
 *
 * States: Exclusive (clean, sole copy), Dirty (modified, sole copy),
 * SharedClean, and — MOESI only — SharedDirty as the Owned state
 * (modified, shared, memory stale). A store to a shared line is costed
 * as the 1-bus-cycle word broadcast of Table 1 and destroys every
 * remote copy, each victim cache losing one snoop cycle.
 */
class MesiFamilyProtocol : public CoherenceProtocol
{
  public:
    MesiFamilyProtocol(MesiVariant variant,
                       const CacheConfig &cache_config, CpuId num_cpus);

    void access(CpuId cpu, RefType type, Addr addr,
                AccessResult &out) override;

    Scheme scheme() const override { return mesiVariantScheme(variant_); }

    const MesiFamilyMeasurements &measurements() const
    {
        return measured_;
    }

    /**
     * The CPU currently holding @p block's clean-forwarder slot, or
     * -1 when no forwarder exists (MESIF only; for tests).
     */
    int forwarderOf(Addr block) const;

  private:
    /**
     * Handles a miss: the owner or forwarder supplies the block,
     * which installs SharedClean when another cache holds it, else
     * Exclusive. @return The installed line.
     */
    CacheLine &handleMiss(CpuId cpu, Addr addr, AccessResult &out);

    MesiVariant variant_;
    MesiFamilyMeasurements measured_;
    /** MESIF: block → CPU holding the clean-forwarder (F) slot. */
    std::unordered_map<Addr, CpuId> forwarder_;
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_MESI_FAMILY_PROTOCOL_HH
