/**
 * @file
 * Coherence protocol interface for the multiprocessor simulator, and
 * the snoopy actions the protocols compose: one fill, one update and
 * one invalidation.
 */

#ifndef SWCC_SIM_CACHE_COHERENCE_HH
#define SWCC_SIM_CACHE_COHERENCE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/operation.hh"
#include "core/types.hh"
#include "sim/cache/cache.hh"
#include "sim/cache/holder_map.hh"
#include "sim/trace/trace_event.hh"

namespace swcc
{

/**
 * What one trace reference did, expressed as system-model operations.
 *
 * The timing layer prices each operation with the bus cost table; the
 * protocol layer only decides *which* operations happened. A single
 * reference produces at most three operations (e.g. a Dragon write
 * miss: a cache-supplied fetch followed by a write broadcast).
 * Instruction execution itself (the always-present 1-cycle operation)
 * is accounted by the timing layer, not reported here.
 */
struct AccessResult
{
    static constexpr std::size_t kMaxOps = 3;

    std::array<Operation, kMaxOps> ops{};
    std::uint8_t numOps = 0;

    /** Processors that lose a cycle snooping this access (Dragon). */
    std::vector<CpuId> steals;

    /** Clears the result for reuse. */
    void
    reset()
    {
        numOps = 0;
        steals.clear();
    }

    /** Appends an operation. */
    void
    addOp(Operation op)
    {
        if (numOps >= kMaxOps) {
            throw std::logic_error("too many operations for one access");
        }
        ops[numOps++] = op;
    }

    /** True if any recorded operation was a miss. */
    bool hasMiss() const;

    /** True if any recorded miss replaced a dirty block. */
    bool hasDirtyMiss() const;
};

/**
 * Counters of a write-invalidate run (the MESI family, and the hybrid
 * in invalidate mode), kept by CoherenceProtocol::invalidateCopies()
 * and CoherenceProtocol::refetchesLostCopy().
 */
struct InvalidationMeasurements
{
    /** Invalidation bus operations issued. */
    std::uint64_t invalidations = 0;
    /** Remote copies destroyed across all invalidations. */
    std::uint64_t copiesInvalidated = 0;
    /** Misses to blocks this cache once held but lost to a remote
     *  write (coherence misses). */
    std::uint64_t coherenceMisses = 0;

    /** Mean copies destroyed per invalidation. */
    double
    copiesPerInvalidation(double fallback = 0.0) const
    {
        return invalidations == 0 ? fallback
            : static_cast<double>(copiesInvalidated) /
                static_cast<double>(invalidations);
    }

    /** Coherence misses per destroyed copy (the model's reref). */
    double
    rerefFraction(double fallback = 0.0) const
    {
        return copiesInvalidated == 0 ? fallback
            : static_cast<double>(coherenceMisses) /
                static_cast<double>(copiesInvalidated);
    }
};

/**
 * How a protocol locates the other caches holding a block.
 *
 * Directory is the optimized default: a block→holder-bitset
 * sharer index maintained on every fill/evict/invalidate lets snoops
 * visit only actual holders. ReferenceScan is the retained
 * pre-directory path — an O(P) probe of every other cache — kept so
 * that tests and the perf harness can assert the two produce
 * byte-identical statistics and measure the speedup.
 */
enum class SnoopPath : std::uint8_t
{
    Directory,
    ReferenceScan,
};

/**
 * A cache-coherence protocol driving all per-processor caches.
 *
 * The protocol owns the caches so that it can snoop across them, which
 * models the atomic bus of the paper's simulator: one reference
 * completes (including all state transitions in every cache) before the
 * next begins.
 *
 * Alongside the caches the base class maintains a sharer index: for
 * every resident block, a bitset of the caches holding it. Concrete
 * protocols keep it consistent by routing every line installation and
 * invalidation through fillLine()/invalidateLine()/evict(), and in
 * exchange get O(sharers) holder iteration instead of O(P) snooping.
 * The index records residency only; a state change on a valid line is
 * a plain assignment.
 *
 * Each snoopy action has one implementation here, and the protocols
 * compose them. snoopFill() is every snooping protocol's miss (Dragon,
 * the MESI family and the hybrid), told only where a supplying owner
 * ends and whether a MESIF forwarder supplies. updateCopies() is the
 * write-update store (Dragon, and the hybrid in update mode);
 * invalidateCopies() and refetchesLostCopy() are write-invalidate (the
 * MESI family, and the hybrid in invalidate mode), with the one
 * per-CPU record of copies lost to an invalidation. What the fill and
 * the update report is all Dragon's measurements need. Private caching
 * is BaseProtocol::access(), which No-Cache and Software-Flush reuse.
 */
class CoherenceProtocol
{
  public:
    /** Holder bitset: bit c set means cache c holds the block. */
    using HolderMask = std::uint64_t;

    /** Largest processor count the sharer index can represent. */
    static constexpr CpuId kMaxDirectoryCpus = 64;

    /**
     * @param cache_config Geometry of every per-processor cache.
     * @param num_cpus Number of processors.
     */
    CoherenceProtocol(const CacheConfig &cache_config, CpuId num_cpus);

    virtual ~CoherenceProtocol() = default;

    CoherenceProtocol(const CoherenceProtocol &) = delete;
    CoherenceProtocol &operator=(const CoherenceProtocol &) = delete;

    /**
     * Applies one trace reference: updates cache state everywhere and
     * reports the system-model operations it triggered.
     *
     * @param cpu Issuing processor.
     * @param type Reference kind.
     * @param addr Referenced byte address.
     * @param out Result, reset() by this call.
     */
    virtual void access(CpuId cpu, RefType type, Addr addr,
                        AccessResult &out) = 0;

    /** The scheme this protocol implements. */
    virtual Scheme scheme() const = 0;

    /** Human-readable protocol name ("Dragon", "MESI", ...). */
    std::string_view name() const { return schemeName(scheme()); }

    /** Number of processors. */
    CpuId numCpus() const { return static_cast<CpuId>(caches_.size()); }

    /** A processor's cache, for tests and invariant checks. */
    const Cache &cache(CpuId cpu) const { return caches_[cpu]; }

    /**
     * Selects the snoop path. Directory requests fall back to
     * ReferenceScan beyond kMaxDirectoryCpus processors. Must be
     * called on a cold system (before the first access).
     *
     * @throws std::logic_error if any cache already holds lines.
     */
    void setSnoopPath(SnoopPath path);

    /** The effective snoop path (after any fallback). */
    SnoopPath
    snoopPath() const
    {
        return useDirectory_ ? SnoopPath::Directory
                             : SnoopPath::ReferenceScan;
    }

    /**
     * The sharer index's holder bitset for @p block (0 when absent or
     * when the directory is inactive); for tests and invariants.
     */
    HolderMask holderMask(Addr block) const;

    /** Number of blocks the sharer index currently tracks. */
    std::size_t directoryBlocks() const { return directory_.size(); }

  protected:
    /**
     * Evicts @p victim if valid and reports whether a write-back was
     * needed (i.e. the victim was dirty).
     */
    bool evict(CpuId cpu, CacheLine &victim);

    /**
     * Installs @p addr's block into @p victim of @p cpu's cache and
     * records the holder in the sharer index.
     */
    void fillLine(CpuId cpu, CacheLine &victim, Addr addr,
                  LineState state);

    /**
     * Invalidates @p line of @p cpu's cache and removes the holder
     * from the sharer index.
     */
    void invalidateLine(CpuId cpu, CacheLine &line);

    /** What snoopFill() installed and who supplied it. */
    struct Fill
    {
        CacheLine &line;
        /** A dirty owner supplied the block. */
        bool ownerSupplied;
    };

    /**
     * Snooping miss: evicts the victim, snoops the other holders (a
     * clean copy becomes SharedClean; a dirty owner supplies the block
     * and ends in @p owner_after), costs the miss, and installs the
     * block SharedClean when another cache holds it, else Exclusive.
     *
     * @param owner_after SharedDirty when the owner keeps ownership
     *        (Dragon, the hybrid, MOESI's Owned), SharedClean when
     *        memory is updated in the same transaction (MESI, MESIF).
     * @param forwarded A clean forwarder supplies the block when no
     *        owner does (MESIF), so the miss is cache-supplied.
     */
    Fill snoopFill(CpuId cpu, Addr addr, AccessResult &out,
                   LineState owner_after, bool forwarded = false);

    /**
     * Write-update store to the shared @p line: issues a word
     * broadcast; every other holder updates in place, loses a snoop
     * cycle and becomes SharedClean (a previous owner loses
     * ownership); the writer becomes SharedDirty, or Dirty when no
     * other copy remains.
     *
     * @return The number of copies updated.
     */
    unsigned updateCopies(CpuId cpu, CacheLine &line, AccessResult &out);

    /**
     * Write-invalidate store to @p block: issues the invalidation
     * broadcast and destroys every other copy, each victim losing a
     * snoop cycle and remembering the loss for refetchesLostCopy().
     * The writer's own line is left to the caller.
     */
    void invalidateCopies(CpuId cpu, Addr block, AccessResult &out,
                          InvalidationMeasurements &measured);

    /**
     * True, counting a coherence miss, when @p cpu's miss on @p block
     * refetches a copy it lost to invalidateCopies().
     */
    bool
    refetchesLostCopy(CpuId cpu, Addr block,
                      InvalidationMeasurements &measured)
    {
        if (lostBlocks_[cpu].erase(block) == 0) {
            return false;
        }
        ++measured.coherenceMisses;
        return true;
    }

    /**
     * Invokes fn(other, line) for every other cache holding @p block,
     * in ascending processor order (the same order as the reference
     * scan, so the two paths yield identical statistics). @p fn may
     * invalidate the line it is handed via invalidateLine().
     */
    template <typename Fn>
    void
    forEachOtherHolder(CpuId cpu, Addr block, Fn &&fn)
    {
        if (useDirectory_) {
            HolderMask mask = directory_.mask(block) & ~cpuBit(cpu);
            while (mask != 0) {
                const auto other =
                    static_cast<CpuId>(std::countr_zero(mask));
                mask &= mask - 1;
                fn(other, *caches_[other].find(block));
            }
            return;
        }
        for (CpuId other = 0; other < numCpus(); ++other) {
            if (other == cpu) {
                continue;
            }
            if (CacheLine *line = caches_[other].find(block)) {
                fn(other, *line);
            }
        }
    }

    std::vector<Cache> caches_;

  private:
    static HolderMask
    cpuBit(CpuId cpu)
    {
        return HolderMask{1} << cpu;
    }

    /** Block → bitset of holding caches; empty entries are erased. */
    HolderMap directory_;
    bool useDirectory_ = true;
    /** Blocks each cache lost to invalidateCopies(). */
    std::vector<std::unordered_set<Addr>> lostBlocks_;
};

/**
 * Checks the cross-cache single-owner/exclusivity invariants:
 *
 *  - a block Exclusive or Dirty in one cache appears in no other cache;
 *  - at most one cache holds a block in an owner (dirty) state;
 *  - SharedClean/SharedDirty states never coexist with Exclusive/Dirty
 *    for the same block;
 *  - when the sharer index is active, it lists exactly the holders the
 *    caches contain, block for block.
 *
 * @throws std::logic_error describing the first violation found.
 */
void checkCoherenceInvariants(const CoherenceProtocol &protocol);

} // namespace swcc

#endif // SWCC_SIM_CACHE_COHERENCE_HH
