/**
 * @file
 * No-Cache software scheme: shared data is uncacheable; everything
 * else takes Base's private-caching path.
 */

#ifndef SWCC_SIM_CACHE_NOCACHE_PROTOCOL_HH
#define SWCC_SIM_CACHE_NOCACHE_PROTOCOL_HH

#include "sim/cache/base_protocol.hh"
#include "sim/trace/trace_stats.hh"

namespace swcc
{

/**
 * The paper's No-Cache scheme: the compiler or programmer marks shared
 * variables, and references to them bypass the cache entirely — a load
 * becomes a read-through and a store a write-through, one word each,
 * straight to memory. Unshared data and instructions are cached as in
 * Base. C.mmp and the Elxsi 6400 used this approach.
 */
class NoCacheProtocol final : public BaseProtocol
{
  public:
    /**
     * @param cache_config Geometry of each cache.
     * @param num_cpus Number of processors.
     * @param shared Marks the uncacheable shared region; must be
     *        non-null (without it the scheme degenerates to Base).
     * @throws std::invalid_argument when @p shared is null.
     */
    NoCacheProtocol(const CacheConfig &cache_config, CpuId num_cpus,
                    SharedClassifier shared);

    void access(CpuId cpu, RefType type, Addr addr,
                AccessResult &out) override;

    Scheme scheme() const override { return Scheme::NoCache; }

  private:
    SharedClassifier shared_;
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_NOCACHE_PROTOCOL_HH
