#include "sim/cache/swflush_protocol.hh"

namespace swcc
{

void
SwFlushProtocol::access(CpuId cpu, RefType type, Addr addr,
                        AccessResult &out)
{
    if (type != RefType::Flush) {
        BaseProtocol::access(cpu, type, addr, out);
        return;
    }

    out.reset();
    ++measured_.flushes;
    CacheLine *line = caches_[cpu].find(addr);
    if (line == nullptr) {
        // Already replaced; the flush instruction still executes.
        ++measured_.missedFlushes;
        out.addOp(Operation::CleanFlush);
        return;
    }
    const bool dirty = isDirtyState(line->state);
    if (dirty) {
        ++measured_.dirtyFlushes;
    }
    caches_[cpu].invalidate(*line);
    out.addOp(dirty ? Operation::DirtyFlush : Operation::CleanFlush);
}

} // namespace swcc
