#include "sim/cache/coherence.hh"

#include <string>
#include <unordered_map>

#include "core/obs/metrics.hh"

namespace swcc
{

bool
AccessResult::hasMiss() const
{
    for (std::uint8_t i = 0; i < numOps; ++i) {
        if (isMiss(ops[i])) {
            return true;
        }
    }
    return false;
}

bool
AccessResult::hasDirtyMiss() const
{
    for (std::uint8_t i = 0; i < numOps; ++i) {
        if (isDirtyMiss(ops[i])) {
            return true;
        }
    }
    return false;
}

CoherenceProtocol::CoherenceProtocol(const CacheConfig &cache_config,
                                     CpuId num_cpus)
    : lostBlocks_(num_cpus)
{
    if (num_cpus == 0) {
        throw std::invalid_argument("need at least one processor");
    }
    caches_.reserve(num_cpus);
    for (CpuId i = 0; i < num_cpus; ++i) {
        caches_.emplace_back(cache_config);
    }
}

bool
CoherenceProtocol::evict(CpuId cpu, CacheLine &victim)
{
    if (!isValidState(victim.state)) {
        return false;
    }
    const bool dirty = isDirtyState(victim.state);
    caches_[cpu].invalidate(victim);
    return dirty;
}

CoherenceProtocol::Fill
CoherenceProtocol::snoopFill(CpuId cpu, Addr addr, AccessResult &out,
                             LineState owner_after, bool forwarded)
{
    Cache &cache = caches_[cpu];
    CacheLine &victim = cache.victimFor(addr);
    const bool dirty_victim = evict(cpu, victim);

    bool owner_supplied = false;
    unsigned holders = 0;
    // Safe: victim was invalidated above, so the holder walk can't
    // alias it.
    forEachOtherHolder(
        cpu, cache.blockAddr(addr), [&](CpuId, CacheLine &line) {
            ++holders;
            // Everyone sees the fill on the bus and knows the block is
            // now shared. A dirty owner (at most one) supplies the
            // data.
            if (isDirtyState(line.state)) {
                owner_supplied = true;
                line.state = owner_after;
            } else {
                line.state = LineState::SharedClean;
            }
        });

    out.addOp(missOp(owner_supplied || forwarded, dirty_victim));
    cache.fill(victim, addr,
               holders > 0 ? LineState::SharedClean : LineState::Exclusive);
    return {victim, owner_supplied};
}

unsigned
CoherenceProtocol::updateCopies(CpuId cpu, CacheLine &line,
                                AccessResult &out)
{
    out.addOp(Operation::WriteBroadcast);
    unsigned copies = 0;
    forEachOtherHolder(cpu, line.blockAddr,
                       [&](CpuId other, CacheLine &copy) {
        ++copies;
        // The holder's controller updates the word in place, stealing
        // a cycle from its processor; a previous owner loses ownership.
        out.steals.push_back(other);
        copy.state = LineState::SharedClean;
    });
    line.state = copies > 0 ? LineState::SharedDirty : LineState::Dirty;
    return copies;
}

void
CoherenceProtocol::invalidateCopies(CpuId cpu, Addr block,
                                    AccessResult &out,
                                    InvalidationMeasurements &measured)
{
    out.addOp(Operation::WriteBroadcast);
    ++measured.invalidations;
    forEachOtherHolder(cpu, block, [&](CpuId other, CacheLine &line) {
        ++measured.copiesInvalidated;
        caches_[other].invalidate(line);
        lostBlocks_[other].insert(block);
        // The victim's controller spends a snoop cycle killing the
        // line, exactly like an update.
        out.steals.push_back(other);
    });
}

void
checkCoherenceInvariants(const CoherenceProtocol &protocol)
{
    static obs::Counter &checks =
        obs::metrics().counter("sim.invariant_checks");
    checks.add(1);
    struct BlockView
    {
        unsigned holders = 0;
        unsigned owners = 0;
        unsigned exclusives = 0;
    };
    std::unordered_map<Addr, BlockView> blocks;

    for (CpuId cpu = 0; cpu < protocol.numCpus(); ++cpu) {
        for (const CacheLine &line : protocol.cache(cpu).lines()) {
            if (!isValidState(line.state)) {
                continue;
            }
            BlockView &view = blocks[line.blockAddr];
            ++view.holders;
            if (isDirtyState(line.state)) {
                ++view.owners;
            }
            if (line.state == LineState::Exclusive ||
                line.state == LineState::Dirty) {
                ++view.exclusives;
            }
        }
    }

    for (const auto &[addr, view] : blocks) {
        if (view.exclusives > 0 && view.holders > 1) {
            throw std::logic_error(
                "block " + std::to_string(addr) +
                " is exclusive in one cache but held by " +
                std::to_string(view.holders));
        }
        if (view.owners > 1) {
            throw std::logic_error(
                "block " + std::to_string(addr) + " has " +
                std::to_string(view.owners) + " dirty owners");
        }
    }
}

} // namespace swcc
