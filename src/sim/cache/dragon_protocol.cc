#include "sim/cache/dragon_protocol.hh"

namespace swcc
{

double
DragonMeasurements::oclean(double fallback) const
{
    if (sharedMisses == 0) {
        return fallback;
    }
    return static_cast<double>(sharedMissesClean) /
        static_cast<double>(sharedMisses);
}

double
DragonMeasurements::opres(double fallback) const
{
    if (sharedWrites == 0) {
        return fallback;
    }
    return static_cast<double>(sharedWritesPresent) /
        static_cast<double>(sharedWrites);
}

double
DragonMeasurements::nshd(double fallback) const
{
    if (broadcasts == 0) {
        return fallback;
    }
    return static_cast<double>(broadcastCopies) /
        static_cast<double>(broadcasts);
}

DragonProtocol::DragonProtocol(const CacheConfig &cache_config,
                               CpuId num_cpus,
                               SharedClassifier measure_shared)
    : CoherenceProtocol(cache_config, num_cpus),
      measureShared_(std::move(measure_shared))
{
}

void
DragonProtocol::access(CpuId cpu, RefType type, Addr addr,
                       AccessResult &out)
{
    out.reset();
    if (type == RefType::Flush) {
        // Hardware coherence: software flushes are unnecessary no-ops.
        return;
    }

    Cache &cache = caches_[cpu];
    const Addr block = cache.blockAddr(addr);
    const bool measured = measureShared_ && isData(type) &&
        measureShared_(block);

    CacheLine *line = cache.find(addr);
    if (line != nullptr) {
        cache.touch(*line);
    } else {
        const Fill fill =
            snoopFill(cpu, addr, out, LineState::SharedDirty);
        if (measured) {
            ++measured_.sharedMisses;
            if (!fill.ownerSupplied) {
                ++measured_.sharedMissesClean;
            }
        }
        line = &fill.line;
    }

    if (type != RefType::Store) {
        return;
    }

    if (measured) {
        ++measured_.sharedWrites;
    }

    switch (line->state) {
      case LineState::Exclusive:
      case LineState::Dirty:
        // Sole copy: write locally, no bus action.
        line->state = LineState::Dirty;
        return;
      case LineState::SharedClean:
      case LineState::SharedDirty: {
        // A shared line's sharers may all have been evicted since, so
        // only the broadcast's copy count tells whether one is present.
        const unsigned copies = updateCopies(cpu, *line, out);
        ++measured_.broadcasts;
        measured_.broadcastCopies += copies;
        if (measured && copies > 0) {
            ++measured_.sharedWritesPresent;
        }
        return;
      }
      case LineState::Invalid:
        throw std::logic_error("store resolved to an invalid line");
    }
}

} // namespace swcc
