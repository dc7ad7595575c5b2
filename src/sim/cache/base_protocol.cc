#include "sim/cache/base_protocol.hh"

namespace swcc
{

void
BaseProtocol::access(CpuId cpu, RefType type, Addr addr, AccessResult &out)
{
    out.reset();
    if (type == RefType::Flush) {
        // Hardware-agnostic trace may carry flushes; Base ignores them.
        return;
    }

    Cache &cache = caches_[cpu];
    if (CacheLine *line = cache.find(addr)) {
        cache.touch(*line);
        if (type == RefType::Store) {
            line->state = LineState::Dirty;
        }
        return;
    }

    CacheLine &victim = cache.victimFor(addr);
    const bool dirty_victim = evict(cpu, victim);
    out.addOp(missOp(false, dirty_victim));
    fillLine(cpu, victim, addr,
             type == RefType::Store ? LineState::Dirty
                                    : LineState::Exclusive);
}

} // namespace swcc
