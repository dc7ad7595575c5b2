#include "sim/cache/mesi_family_protocol.hh"

namespace swcc
{

MesiFamilyProtocol::MesiFamilyProtocol(MesiVariant variant,
                                       const CacheConfig &cache_config,
                                       CpuId num_cpus)
    : CoherenceProtocol(cache_config, num_cpus), variant_(variant)
{
}

int
MesiFamilyProtocol::forwarderOf(Addr block) const
{
    const auto it = forwarder_.find(block);
    if (it == forwarder_.end() ||
        caches_[it->second].find(block) == nullptr) {
        return -1;
    }
    return static_cast<int>(it->second);
}

void
MesiFamilyProtocol::access(CpuId cpu, RefType type, Addr addr,
                           AccessResult &out)
{
    out.reset();
    if (type == RefType::Flush) {
        // Hardware coherence: flushes are unnecessary no-ops.
        return;
    }

    Cache &cache = caches_[cpu];
    CacheLine *line = cache.find(addr);
    if (line != nullptr) {
        cache.touch(*line);
    } else {
        // A store miss is a read-for-ownership: the fill, then the
        // shared-store path below when it filled shared.
        const Addr block = cache.blockAddr(addr);
        refetchesLostCopy(cpu, block, measured_);
        const bool mesif = variant_ == MesiVariant::Mesif;
        // Read before the fill; its eviction touches only this cache,
        // so the slot still answers for the snoop.
        const bool forwarded = mesif && forwarderOf(block) >= 0;
        // MOESI's owner keeps ownership (Owned) and defers the
        // write-back to its eviction; Illinois updates memory in the
        // same transaction and leaves the owner a clean copy.
        const Fill fill = snoopFill(
            cpu, addr, out,
            variant_ == MesiVariant::Moesi ? LineState::SharedDirty
                                           : LineState::SharedClean,
            forwarded);
        if (fill.ownerSupplied) {
            ++measured_.ownerSupplies;
        } else if (forwarded) {
            ++measured_.forwardSupplies;
        }
        line = &fill.line;
        if (mesif) {
            // The newest sharer takes the forwarder slot (real MESIF
            // hands F to the most recent requester, keeping the slot
            // on the copy least likely to be evicted soon).
            if (line->state == LineState::SharedClean) {
                forwarder_[block] = cpu;
            } else {
                forwarder_.erase(block);
            }
        }
    }

    if (type != RefType::Store) {
        return;
    }

    switch (line->state) {
      case LineState::Exclusive:
      case LineState::Dirty:
        break;
      case LineState::SharedDirty:
        if (variant_ != MesiVariant::Moesi) {
            throw std::logic_error(
                "MESI-family store reached an impossible line state");
        }
        // The owner upgrades: invalidate the other sharers and return
        // to the sole-dirty state.
        [[fallthrough]];
      case LineState::SharedClean:
        invalidateCopies(cpu, line->blockAddr, out, measured_);
        // The writer now holds the sole (dirty) copy, so no clean
        // forwarder for the block can exist.
        if (variant_ == MesiVariant::Mesif) {
            forwarder_.erase(line->blockAddr);
        }
        break;
      case LineState::Invalid:
        throw std::logic_error("store resolved to an invalid line");
    }
    line->state = LineState::Dirty;
}

} // namespace swcc
