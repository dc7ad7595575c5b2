#include "sim/cache/coherence.hh"

#include <atomic>
#include <string>
#include <unordered_map>

#include "core/obs/log.hh"
#include "core/obs/metrics.hh"

namespace swcc
{

namespace
{

/** Publishes the active snoop path (1 = Directory, 0 = scan). */
void
noteSnoopPath(bool directory)
{
    static obs::Gauge &path =
        obs::metrics().gauge("sim.snoop_path.directory");
    path.set(directory ? 1.0 : 0.0);
}

} // namespace

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
    useDirectory_ = num_cpus <= kMaxDirectoryCpus;
    if (useDirectory_) {
        // Worst case: every line of every cache holds a distinct
        // block. Sizing for it up front means the map never rehashes.
        directory_ = HolderMap(static_cast<std::size_t>(num_cpus) *
                               caches_.front().lines().size());
    }
    noteSnoopPath(useDirectory_);
}

void
CoherenceProtocol::setSnoopPath(SnoopPath path)
{
    for (const Cache &cache : caches_) {
        if (cache.validLines() != 0) {
            throw std::logic_error(
                "setSnoopPath() requires a cold system");
        }
    }
    if (path == SnoopPath::Directory &&
        numCpus() > kMaxDirectoryCpus) {
        // The silent fallback here once made a 128-CPU "directory"
        // benchmark measure the scan path; say what actually runs —
        // but only once, or a >64-CPU sweep drowns the log in the
        // same warning for every constructed system.
        static std::atomic<unsigned> fallback_warnings{0};
        const std::string message =
            "snoop path Directory requested for " +
            std::to_string(numCpus()) +
            " CPUs but the sharer index holds at most " +
            std::to_string(CoherenceProtocol::kMaxDirectoryCpus) +
            "; falling back to ReferenceScan";
        if (fallback_warnings.fetch_add(
                1, std::memory_order_relaxed) == 0) {
            SWCC_LOG_WARN(message +
                          " (further fallback warnings suppressed)");
        } else {
            SWCC_LOG_DEBUG(message);
        }
    }
    useDirectory_ = path == SnoopPath::Directory &&
        numCpus() <= kMaxDirectoryCpus;
    SWCC_LOG_DEBUG(std::string("snoop path set to ") +
                   (useDirectory_ ? "Directory" : "ReferenceScan"));
    noteSnoopPath(useDirectory_);
}

CoherenceProtocol::HolderMask
CoherenceProtocol::holderMask(Addr block) const
{
    return directory_.mask(block);
}

bool
CoherenceProtocol::evict(CpuId cpu, CacheLine &victim)
{
    if (!isValidState(victim.state)) {
        return false;
    }
    const bool dirty = isDirtyState(victim.state);
    invalidateLine(cpu, victim);
    return dirty;
}

void
CoherenceProtocol::fillLine(CpuId cpu, CacheLine &victim, Addr addr,
                            LineState state)
{
    caches_[cpu].fill(victim, addr, state);
    if (useDirectory_) {
        directory_.setBit(victim.blockAddr, cpu);
    }
}

void
CoherenceProtocol::invalidateLine(CpuId cpu, CacheLine &line)
{
    if (useDirectory_ && isValidState(line.state)) {
        directory_.clearBit(line.blockAddr, cpu);
    }
    caches_[cpu].invalidate(line);
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
    fillLine(cpu, victim, addr,
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
        invalidateLine(other, line);
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
        CoherenceProtocol::HolderMask mask = 0;
    };
    std::unordered_map<Addr, BlockView> blocks;

    for (CpuId cpu = 0; cpu < protocol.numCpus(); ++cpu) {
        for (const CacheLine &line : protocol.cache(cpu).lines()) {
            if (!isValidState(line.state)) {
                continue;
            }
            BlockView &view = blocks[line.blockAddr];
            ++view.holders;
            view.mask |= CoherenceProtocol::HolderMask{1} << cpu;
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

    if (protocol.snoopPath() == SnoopPath::Directory) {
        if (protocol.directoryBlocks() != blocks.size()) {
            throw std::logic_error(
                "sharer index tracks " +
                std::to_string(protocol.directoryBlocks()) +
                " blocks but the caches hold " +
                std::to_string(blocks.size()));
        }
        for (const auto &[addr, view] : blocks) {
            if (protocol.holderMask(addr) != view.mask) {
                throw std::logic_error(
                    "sharer index disagrees with the caches on block " +
                    std::to_string(addr));
            }
        }
    }
}

} // namespace swcc
