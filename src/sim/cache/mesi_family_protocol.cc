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
    return it == forwarder_.end() ? -1 : static_cast<int>(it->second);
}

CacheLine &
MesiFamilyProtocol::handleMiss(CpuId cpu, Addr addr, AccessResult &out)
{
    Cache &cache = caches_[cpu];
    const Addr block = cache.blockAddr(addr);
    refetchesLostCopy(cpu, block, measured_);

    CacheLine &victim = cache.victimFor(addr);
    const bool victim_valid = victim.state != LineState::Invalid;
    const Addr victim_block = victim.blockAddr;
    const bool dirty_victim = evict(cpu, victim);
    if (variant_ == MesiVariant::Mesif && victim_valid) {
        // An evicted forwarder copy silently drops the slot; the next
        // shared miss to the block re-seats it (or goes to memory).
        const auto it = forwarder_.find(victim_block);
        if (it != forwarder_.end() && it->second == cpu) {
            forwarder_.erase(it);
        }
    }

    bool supplied_by_owner = false;
    unsigned holders = 0;
    forEachOtherHolder(cpu, block, [&](CpuId other, CacheLine &line) {
        ++holders;
        if (isDirtyState(line.state)) {
            supplied_by_owner = true;
            if (variant_ == MesiVariant::Moesi) {
                // MOESI: the owner supplies the block and *keeps*
                // ownership (Owned); memory stays stale and the
                // write-back is deferred to the owner's eviction.
                setLineState(other, line, LineState::SharedDirty);
            } else {
                // Illinois: the owner supplies the block and memory is
                // updated in the same transaction; the owner keeps a
                // shared clean copy.
                setLineState(other, line, LineState::SharedClean);
            }
        } else if (line.state == LineState::Exclusive) {
            setLineState(other, line, LineState::SharedClean);
        }
    });

    bool supplied_by_cache = supplied_by_owner;
    if (supplied_by_owner) {
        ++measured_.ownerSupplies;
    } else if (variant_ == MesiVariant::Mesif && holders > 0 &&
               forwarder_.contains(block)) {
        // The clean forwarder supplies the block cache-to-cache.
        supplied_by_cache = true;
        ++measured_.forwardSupplies;
    }

    out.addOp(missOp(supplied_by_cache, dirty_victim));

    fillLine(cpu, victim, addr,
             holders > 0 ? LineState::SharedClean
                         : LineState::Exclusive);
    if (variant_ == MesiVariant::Mesif) {
        if (holders > 0) {
            // The newest sharer takes the forwarder slot (real MESIF
            // hands F to the most recent requester, keeping the slot
            // on the copy least likely to be evicted soon).
            forwarder_[block] = cpu;
        } else {
            forwarder_.erase(block);
        }
    }
    return victim;
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
        line = &handleMiss(cpu, addr, out);
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
    setLineState(cpu, *line, LineState::Dirty);
}

} // namespace swcc
