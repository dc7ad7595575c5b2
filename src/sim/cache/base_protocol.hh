/**
 * @file
 * Base "protocol": caching with no coherence actions at all.
 */

#ifndef SWCC_SIM_CACHE_BASE_PROTOCOL_HH
#define SWCC_SIM_CACHE_BASE_PROTOCOL_HH

#include "sim/cache/coherence.hh"

namespace swcc
{

/**
 * The paper's Base scheme: every reference is cached normally and no
 * coherence traffic is ever generated. Shared blocks may therefore be
 * stale across caches — Base is a performance upper bound, not a
 * correct machine. Flush events are ignored.
 *
 * access() is the one private-caching path: No-Cache and
 * Software-Flush derive from Base and pass it every reference they do
 * not handle themselves.
 */
class BaseProtocol : public CoherenceProtocol
{
  public:
    using CoherenceProtocol::CoherenceProtocol;

    void access(CpuId cpu, RefType type, Addr addr,
                AccessResult &out) override;

    Scheme scheme() const override { return Scheme::Base; }
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_BASE_PROTOCOL_HH
