#include "core/frequency_model.hh"

#include <stdexcept>

#include "core/per_instruction.hh"

namespace swcc
{

double
FrequencyVector::totalMisses() const
{
    return of(Operation::CleanMissMem) + of(Operation::DirtyMissMem) +
        of(Operation::CleanMissCache) + of(Operation::DirtyMissCache);
}

double
FrequencyVector::totalChannelOperations() const
{
    double total = 0.0;
    for (Operation op : kAllOperations) {
        if (op != Operation::InstrExec && op != Operation::CycleSteal) {
            total += of(op);
        }
    }
    return total;
}

double
flushFrequency(const WorkloadParams &params)
{
    return params.ls * params.shd / params.apl;
}

double
firstWriteFraction(const WorkloadParams &params)
{
    const double writes_per_run = params.wr * params.apl;
    return writes_per_run <= 1.0 ? 1.0 : 1.0 / writes_per_run;
}

namespace
{

/** Paper Table 3: the coherence-free Base scheme. */
FrequencyVector
baseFrequencies(const WorkloadParams &p)
{
    FrequencyVector freqs;
    const double miss = p.ls * p.msdat + p.mains;
    freqs.set(Operation::InstrExec, 1.0);
    freqs.set(Operation::CleanMissMem, miss * (1.0 - p.md));
    freqs.set(Operation::DirtyMissMem, miss * p.md);
    return freqs;
}

/** Paper Table 4: shared data is uncacheable. */
FrequencyVector
noCacheFrequencies(const WorkloadParams &p)
{
    FrequencyVector freqs;
    const double miss = p.ls * p.msdat * (1.0 - p.shd) + p.mains;
    freqs.set(Operation::InstrExec, 1.0);
    freqs.set(Operation::CleanMissMem, miss * (1.0 - p.md));
    freqs.set(Operation::DirtyMissMem, miss * p.md);
    freqs.set(Operation::ReadThrough, p.ls * p.shd * (1.0 - p.wr));
    freqs.set(Operation::WriteThrough, p.ls * p.shd * p.wr);
    return freqs;
}

/**
 * Paper Table 5: software-controlled flushing.
 *
 * Flush instructions appear once per apl shared references, i.e. with
 * frequency f = ls*shd/apl per non-flush instruction. Three effects:
 * the flush operation itself (dirty with probability mdshd), one clean
 * refetch miss per flush (the flush frees the block's frame, so the
 * refetch does not evict a dirty victim), and an instruction-miss
 * inflation factor of (1 + f) because flush instructions are fetched
 * too.
 */
FrequencyVector
softwareFlushFrequencies(const WorkloadParams &p)
{
    FrequencyVector freqs;
    const double f = flushFrequency(p);
    const double miss =
        p.ls * p.msdat * (1.0 - p.shd) + p.mains * (1.0 + f);
    freqs.set(Operation::InstrExec, 1.0);
    freqs.set(Operation::CleanMissMem, miss * (1.0 - p.md) + f);
    freqs.set(Operation::DirtyMissMem, miss * p.md);
    freqs.set(Operation::CleanFlush, f * (1.0 - p.mdshd));
    freqs.set(Operation::DirtyFlush, f * p.mdshd);
    return freqs;
}

/** Paper Table 6: the Dragon write-broadcast snoopy protocol. */
FrequencyVector
dragonFrequencies(const WorkloadParams &p)
{
    FrequencyVector freqs;
    const double from_cache = p.shd * (1.0 - p.oclean);
    const double mem_miss = p.ls * p.msdat * (1.0 - from_cache) + p.mains;
    const double cache_miss = p.ls * p.msdat * from_cache;
    const double broadcast = p.ls * p.shd * p.wr * p.opres;
    freqs.set(Operation::InstrExec, 1.0);
    freqs.set(Operation::CleanMissMem, mem_miss * (1.0 - p.md));
    freqs.set(Operation::DirtyMissMem, mem_miss * p.md);
    freqs.set(Operation::WriteBroadcast, broadcast);
    freqs.set(Operation::CleanMissCache, cache_miss * (1.0 - p.md));
    freqs.set(Operation::DirtyMissCache, cache_miss * p.md);
    freqs.set(Operation::CycleSteal, broadcast * p.nshd);
    return freqs;
}

/**
 * Invalidate-family frequency table (MESI and variants).
 *
 * Derivation, in the formalism of Table 6:
 *
 *  - Invalidations: the first write of each run that finds remote
 *    copies present broadcasts an invalidation (priced as the
 *    1-bus-cycle word broadcast), frequency
 *    ls*shd*wr*opres*firstWrite. Each destroys nshd remote copies,
 *    stealing one snoop cycle per copy, exactly like a Dragon update.
 *
 *  - Coherence misses: a fraction reref of the destroyed copies is read
 *    again and misses. The writer holds the block dirty, so coherence
 *    misses are cache-supplied: coherence = invalidations*nshd*reref.
 *    The eleven Table 2 parameters carry no re-reference fraction, so
 *    the scheme tables pass opres: a destroyed copy whose owner would
 *    have been present at the writer's next write (the same
 *    steady-state presence that made the invalidation fire) is read
 *    again.
 *
 *  - Ordinary misses split exactly as Dragon's Table 6: a fraction
 *    from_cache of shared-data misses finds the block dirty in another
 *    cache and is cache-supplied (the owner supplies and memory is
 *    updated, Illinois-style).
 *
 * @param from_cache Fraction of shared-data misses that are
 *        cache-supplied (the MESIF forwarder raises this over MESI).
 * @param owned MOESI: an owner supplying a miss defers its write-back
 *        to its eviction, raising the dirty-victim fraction.
 */
FrequencyVector
invalidateFamilyFrequencies(const WorkloadParams &p, double reref,
                            double from_cache, bool owned)
{
    FrequencyVector freqs;
    const double inval =
        p.ls * p.shd * p.wr * p.opres * firstWriteFraction(p);
    const double coherence = inval * p.nshd * reref;
    const double mem_miss = p.ls * p.msdat * (1.0 - from_cache) + p.mains;
    const double cache_miss = p.ls * p.msdat * from_cache + coherence;
    const double total_miss = mem_miss + cache_miss;
    const double md = owned && total_miss > 0.0
        ? p.md + (1.0 - p.md) * cache_miss / total_miss
        : p.md;
    freqs.set(Operation::InstrExec, 1.0);
    freqs.set(Operation::CleanMissMem, mem_miss * (1.0 - md));
    freqs.set(Operation::DirtyMissMem, mem_miss * md);
    freqs.set(Operation::CleanMissCache, cache_miss * (1.0 - md));
    freqs.set(Operation::DirtyMissCache, cache_miss * md);
    freqs.set(Operation::WriteBroadcast, inval);
    freqs.set(Operation::CycleSteal, inval * p.nshd);
    return freqs;
}

/**
 * MESI: the plain invalidate table, where only a dirty owner supplies
 * a miss. Unchecked: its callers validate @p p (and @p reref).
 */
FrequencyVector
mesiFrequencies(const WorkloadParams &p, double reref)
{
    return invalidateFamilyFrequencies(p, reref, p.shd * (1.0 - p.oclean),
                                       false);
}

/**
 * MESIF: one clean holder is the designated forwarder, so clean-shared
 * misses whose block is still present in some cache (probability
 * opres, the steady-state presence) are cache-supplied too:
 * from_cache = shd * ((1 - oclean) + oclean*opres).
 */
FrequencyVector
mesifFrequencies(const WorkloadParams &p)
{
    const double from_cache =
        p.shd * ((1.0 - p.oclean) + p.oclean * p.opres);
    return invalidateFamilyFrequencies(p, p.opres, from_cache, false);
}

/**
 * MOESI: a dirty owner supplying a miss keeps ownership (Owned) and
 * memory stays stale, so the write-back the Illinois supply performed
 * eagerly is deferred to the owner's eviction instead. Every
 * cache-supplied miss (all of which an owner serves in MOESI) leaves
 * one extra dirty line to evict later, raising the dirty-victim
 * fraction from md to md + (1 - md) * cache_miss / total_miss. With
 * ls = 0 no misses are cache-supplied and the table collapses to
 * Base, preserving the paper's "schemes coincide" property.
 */
FrequencyVector
moesiFrequencies(const WorkloadParams &p)
{
    return invalidateFamilyFrequencies(p, p.opres,
                                       p.shd * (1.0 - p.oclean), true);
}

/**
 * Adaptive hybrid: the per-block saturating counter of the simulator
 * protocol converges, in the aggregate, on whichever pure policy moves
 * the workload cheaper — so the table is the cheaper of Dragon
 * (update) and MESI (invalidate) by uncontended cycles per instruction
 * under the Table 1 costs, with the update table winning ties (the
 * protocol starts every block in update mode).
 */
FrequencyVector
hybridFrequencies(const WorkloadParams &p)
{
    const FrequencyVector update = dragonFrequencies(p);
    const FrequencyVector invalidate = mesiFrequencies(p, p.opres);
    const BusCostModel costs;
    const double update_cycles = perInstructionCost(update, costs).cpu;
    const double invalidate_cycles =
        perInstructionCost(invalidate, costs).cpu;
    return invalidate_cycles < update_cycles ? invalidate : update;
}

} // namespace

FrequencyVector
operationFrequencies(Scheme scheme, const WorkloadParams &params)
{
    params.validate();
    switch (scheme) {
      case Scheme::Base:          return baseFrequencies(params);
      case Scheme::NoCache:       return noCacheFrequencies(params);
      case Scheme::SoftwareFlush: return softwareFlushFrequencies(params);
      case Scheme::Dragon:        return dragonFrequencies(params);
      case Scheme::Mesi:          return mesiFrequencies(params, params.opres);
      case Scheme::Mesif:         return mesifFrequencies(params);
      case Scheme::Moesi:         return moesiFrequencies(params);
      case Scheme::Hybrid:        return hybridFrequencies(params);
    }
    throw std::invalid_argument("unknown Scheme");
}

FrequencyVector
invalidateFrequencies(const WorkloadParams &params, double reref)
{
    params.validate();
    if (!(reref >= 0.0 && reref <= 1.0)) {
        throw std::invalid_argument("reref must lie in [0, 1]");
    }
    return mesiFrequencies(params, reref);
}

} // namespace swcc
