/**
 * @file
 * Software-Flush scheme: cached shared data with explicit flushes;
 * every other reference takes Base's private-caching path.
 */

#ifndef SWCC_SIM_CACHE_SWFLUSH_PROTOCOL_HH
#define SWCC_SIM_CACHE_SWFLUSH_PROTOCOL_HH

#include <cstdint>

#include "sim/cache/base_protocol.hh"

namespace swcc
{

/** Flush-behaviour counters for analysis and tests. */
struct FlushMeasurements
{
    std::uint64_t flushes = 0;
    std::uint64_t dirtyFlushes = 0;
    /** Flushes that found the block absent (already replaced). */
    std::uint64_t missedFlushes = 0;
};

/**
 * The paper's Software-Flush scheme: shared blocks are cached normally,
 * and compiler- or programmer-inserted flush instructions remove them
 * (writing back if dirty) at consistency boundaries such as
 * critical-section exits. The trace carries the flush instructions; the
 * protocol executes them. A flush of an absent block (replaced since
 * its last use) costs the clean-flush time and does nothing.
 */
class SwFlushProtocol final : public BaseProtocol
{
  public:
    using BaseProtocol::BaseProtocol;

    void access(CpuId cpu, RefType type, Addr addr,
                AccessResult &out) override;

    Scheme scheme() const override { return Scheme::SoftwareFlush; }

    const FlushMeasurements &measurements() const { return measured_; }

  private:
    FlushMeasurements measured_;
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_SWFLUSH_PROTOCOL_HH
