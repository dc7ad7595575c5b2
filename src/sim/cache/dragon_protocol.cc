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
        if (measured) {
            ++measured_.sharedMisses;
            if (!dirtyElsewhere(cpu, block)) {
                ++measured_.sharedMissesClean;
            }
        }
        line = &updateFill(cpu, addr, out);
    }

    if (type != RefType::Store) {
        return;
    }

    if (measured) {
        ++measured_.sharedWrites;
        if (countOtherHolders(cpu, block) > 0) {
            ++measured_.sharedWritesPresent;
        }
    }

    switch (line->state) {
      case LineState::Exclusive:
      case LineState::Dirty:
        // Sole copy: write locally, no bus action.
        setLineState(cpu, *line, LineState::Dirty);
        return;
      case LineState::SharedClean:
      case LineState::SharedDirty:
        ++measured_.broadcasts;
        measured_.broadcastCopies += updateCopies(cpu, *line, out);
        return;
      case LineState::Invalid:
        throw std::logic_error("store resolved to an invalid line");
    }
}

} // namespace swcc
