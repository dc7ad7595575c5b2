/**
 * @file
 * Hardware operations of the system model (paper Tables 1 and 9).
 */

#ifndef SWCC_CORE_OPERATION_HH
#define SWCC_CORE_OPERATION_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace swcc
{

/**
 * A hardware operation whose cost the system model assigns.
 *
 * The set is the union of the operations in the paper's Table 1 (bus
 * system model) and Table 9 (network system model). The network model
 * names "clean fetch"/"dirty fetch" what the bus model names "clean
 * miss (mem)"/"dirty miss (mem)"; we use one enumerator for both and let
 * the cost model supply the medium-specific timing.
 */
enum class Operation : std::uint8_t
{
    /** Ordinary instruction execution (every instruction except flush). */
    InstrExec,
    /** Cache miss satisfied from memory, replaced block clean. */
    CleanMissMem,
    /** Cache miss satisfied from memory, replaced block dirty. */
    DirtyMissMem,
    /** No-Cache: load of a shared word directly from memory. */
    ReadThrough,
    /** No-Cache: store of a shared word directly to memory. */
    WriteThrough,
    /** Software-Flush: flush of a clean block (invalidate only). */
    CleanFlush,
    /** Software-Flush: flush of a dirty block (invalidate + write-back). */
    DirtyFlush,
    /** Dragon: broadcast of a written word to other caches. */
    WriteBroadcast,
    /** Dragon: miss supplied by another cache, replaced block clean. */
    CleanMissCache,
    /** Dragon: miss supplied by another cache, replaced block dirty. */
    DirtyMissCache,
    /** Dragon: a cycle stolen from a processor by a snooped broadcast. */
    CycleSteal,
};

/** Number of operations in @ref Operation. */
inline constexpr std::size_t kNumOperations = 11;

/** All operations, in Table 1 order, for iteration. */
inline constexpr std::array<Operation, kNumOperations> kAllOperations = {
    Operation::InstrExec,
    Operation::CleanMissMem,
    Operation::DirtyMissMem,
    Operation::ReadThrough,
    Operation::WriteThrough,
    Operation::CleanFlush,
    Operation::DirtyFlush,
    Operation::WriteBroadcast,
    Operation::CleanMissCache,
    Operation::DirtyMissCache,
    Operation::CycleSteal,
};

/**
 * Human-readable name of an operation, matching the paper's Table 1.
 */
std::string_view operationName(Operation op);

/** Index of an operation for use with dense per-operation arrays. */
constexpr std::size_t
operationIndex(Operation op)
{
    return static_cast<std::size_t>(op);
}

/**
 * The miss that fetched a block from another cache (@p from_cache) or
 * from memory, replacing a dirty block (@p dirty_victim) or a clean
 * one.
 */
constexpr Operation
missOp(bool from_cache, bool dirty_victim)
{
    if (from_cache) {
        return dirty_victim ? Operation::DirtyMissCache
                            : Operation::CleanMissCache;
    }
    return dirty_victim ? Operation::DirtyMissMem : Operation::CleanMissMem;
}

/** True for the four misses missOp() names. */
constexpr bool
isMiss(Operation op)
{
    return op == Operation::CleanMissMem || op == Operation::DirtyMissMem ||
        op == Operation::CleanMissCache || op == Operation::DirtyMissCache;
}

/** True for the two misses that replaced a dirty block. */
constexpr bool
isDirtyMiss(Operation op)
{
    return op == Operation::DirtyMissMem || op == Operation::DirtyMissCache;
}

} // namespace swcc

#endif // SWCC_CORE_OPERATION_HH
