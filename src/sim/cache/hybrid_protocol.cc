#include "sim/cache/hybrid_protocol.hh"

#include <algorithm>

namespace swcc
{

HybridProtocol::HybridProtocol(const CacheConfig &cache_config,
                               CpuId num_cpus)
    : CoherenceProtocol(cache_config, num_cpus)
{
}

bool
HybridProtocol::inInvalidateMode(Addr block) const
{
    const auto it = policy_.find(block);
    return it != policy_.end() && it->second.invalidateMode;
}

void
HybridProtocol::scoreBroadcast(CpuId cpu, BlockPolicy &policy)
{
    ++measured_.updateBroadcasts;
    // Usefulness accounting: a broadcast by the same writer with no
    // intervening remote touch delivered words nobody read.
    if (!policy.remoteAccessSinceWrite && policy.lastWriter == cpu) {
        ++measured_.wastedBroadcasts;
        policy.wasted = std::min<std::uint8_t>(
            static_cast<std::uint8_t>(policy.wasted + 1), kCounterMax);
        if (!policy.invalidateMode &&
            policy.wasted >= kSwitchThreshold) {
            policy.invalidateMode = true;
            ++measured_.switchesToInvalidate;
        }
    } else if (policy.wasted > 0) {
        --policy.wasted;
    }
    policy.lastWriter = cpu;
    policy.remoteAccessSinceWrite = false;
}

void
HybridProtocol::access(CpuId cpu, RefType type, Addr addr,
                       AccessResult &out)
{
    out.reset();
    if (type == RefType::Flush) {
        // Hardware coherence: software flushes are unnecessary no-ops.
        return;
    }

    Cache &cache = caches_[cpu];
    const Addr block = cache.blockAddr(addr);

    // Policy bookkeeping: any touch by a processor other than the last
    // broadcaster marks the last broadcast useful. Entries only exist
    // for blocks that have broadcast at least once, so the common
    // private-block path pays one failed hash probe.
    const auto it = policy_.find(block);
    if (it != policy_.end() && it->second.lastWriter != cpu) {
        it->second.remoteAccessSinceWrite = true;
    }

    CacheLine *line = cache.find(addr);
    if (line != nullptr) {
        cache.touch(*line);
    } else {
        if (refetchesLostCopy(cpu, block, measured_) &&
            it != policy_.end()) {
            // Someone wants the block back: invalidations are costing
            // coherence misses, so decay the wasted-update evidence
            // and flip back to update mode below the threshold.
            BlockPolicy &policy = it->second;
            policy.wasted = policy.wasted > 0
                ? static_cast<std::uint8_t>(policy.wasted - 1)
                : std::uint8_t{0};
            if (policy.invalidateMode &&
                policy.wasted < kSwitchThreshold) {
                policy.invalidateMode = false;
                ++measured_.switchesToUpdate;
            }
        }
        // A store miss that filled shared continues into the shared-
        // store path below, exactly like a store hit on a shared line.
        line = &snoopFill(cpu, addr, out, LineState::SharedDirty).line;
    }

    if (type != RefType::Store) {
        return;
    }

    switch (line->state) {
      case LineState::Exclusive:
      case LineState::Dirty:
        // Sole copy: write locally, no bus action.
        line->state = LineState::Dirty;
        return;
      case LineState::SharedClean:
      case LineState::SharedDirty: {
        BlockPolicy &policy = policy_[block];
        if (policy.invalidateMode) {
            invalidateCopies(cpu, block, out, measured_);
            line->state = LineState::Dirty;
        } else {
            scoreBroadcast(cpu, policy);
            updateCopies(cpu, *line, out);
        }
        return;
      }
      case LineState::Invalid:
        throw std::logic_error("store resolved to an invalid line");
    }
}

} // namespace swcc
