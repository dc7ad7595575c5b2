#include "sim/cache/nocache_protocol.hh"

namespace swcc
{

NoCacheProtocol::NoCacheProtocol(const CacheConfig &cache_config,
                                 CpuId num_cpus, SharedClassifier shared)
    : BaseProtocol(cache_config, num_cpus), shared_(std::move(shared))
{
    if (!shared_) {
        throw std::invalid_argument(
            "No-Cache needs a shared-region classifier");
    }
}

void
NoCacheProtocol::access(CpuId cpu, RefType type, Addr addr,
                        AccessResult &out)
{
    if (isData(type) && shared_(caches_[cpu].blockAddr(addr))) {
        out.reset();
        out.addOp(type == RefType::Store ? Operation::WriteThrough
                                         : Operation::ReadThrough);
        return;
    }
    // Nothing shared is ever cached, so a flush has nothing to do:
    // Base ignores it too.
    BaseProtocol::access(cpu, type, addr, out);
}

} // namespace swcc
