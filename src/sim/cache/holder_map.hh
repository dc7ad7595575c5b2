/**
 * @file
 * Flat hash map from block address to holder bitset.
 *
 * The sharer index is consulted or updated on nearly every cache
 * event, which made std::unordered_map's per-lookup pointer chase the
 * next bottleneck once snoops stopped scanning all caches. This map
 * stores its slots in one flat array with linear probing and
 * backward-shift deletion (no tombstones), sized at construction for
 * the worst case — every cache line across all processors holding a
 * distinct block — so it never rehashes and stays at most half full.
 *
 * A slot is a block address and its holder bitset, 16 bytes. Line
 * states stay in the caches, so only fills and invalidations touch the
 * map.
 *
 * A slot with an empty holder bitset IS an empty slot: the directory
 * erases a block exactly when its last holder drops it, so mask == 0
 * doubles as the vacancy marker and no separate key sentinel is
 * needed (block address 0 is a valid key).
 */

#ifndef SWCC_SIM_CACHE_HOLDER_MAP_HH
#define SWCC_SIM_CACHE_HOLDER_MAP_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/trace/trace_event.hh"

namespace swcc
{

/**
 * Block address → bitset of the caches holding the block. A snoop
 * walks the set bits and reads each holder's line state in its own
 * cache.
 */
class HolderMap
{
  public:
    using Mask = std::uint64_t;

    /** An empty map that can only answer mask() with 0. */
    HolderMap() = default;

    /**
     * @param max_blocks Most blocks ever resident at once (total cache
     *        lines across processors). Capacity is twice that, rounded
     *        to a power of two, so probes stay short and the map never
     *        rehashes.
     */
    explicit HolderMap(std::size_t max_blocks)
        : slots_(std::bit_ceil(std::max<std::size_t>(
              2 * max_blocks, 16)))
    {
        shift_ = static_cast<unsigned>(
            64 - std::countr_zero(slots_.size()));
    }

    /** Number of blocks currently holding at least one bit. */
    std::size_t size() const { return size_; }

    /** The holder bitset of @p block (0 when absent). */
    Mask
    mask(Addr block) const
    {
        if (slots_.empty()) {
            return 0;
        }
        for (std::size_t i = home(block);; i = next(i)) {
            const Slot &slot = slots_[i];
            if (slot.mask == 0 || slot.key == block) {
                return slot.mask;
            }
        }
    }

    /** Sets holder bit @p cpu of @p block, inserting it if absent. */
    void
    setBit(Addr block, CpuId cpu)
    {
        for (std::size_t i = home(block);; i = next(i)) {
            Slot &slot = slots_[i];
            if (slot.mask == 0) {
                if (2 * ++size_ > slots_.size()) {
                    throw std::logic_error(
                        "HolderMap overfull: more blocks than lines");
                }
                slot.key = block;
                slot.mask = cpuBit(cpu);
                return;
            }
            if (slot.key == block) {
                slot.mask |= cpuBit(cpu);
                return;
            }
        }
    }

    /**
     * Clears holder bit @p cpu of @p block, erasing the entry when the
     * last holder goes (backward-shift deletion keeps probe chains
     * intact without tombstones). Clearing an absent block is a no-op.
     */
    void
    clearBit(Addr block, CpuId cpu)
    {
        if (slots_.empty()) {
            return;
        }
        for (std::size_t i = home(block);; i = next(i)) {
            Slot &slot = slots_[i];
            if (slot.mask == 0) {
                return;
            }
            if (slot.key == block) {
                slot.mask &= ~cpuBit(cpu);
                if (slot.mask == 0) {
                    --size_;
                    eraseAt(i);
                }
                return;
            }
        }
    }

  private:
    struct Slot
    {
        Addr key = 0;
        Mask mask = 0;
    };

    static Mask
    cpuBit(CpuId cpu)
    {
        return Mask{1} << cpu;
    }

    /** Fibonacci-multiplicative hash into the slot array. */
    std::size_t
    home(Addr block) const
    {
        return static_cast<std::size_t>(
            (block * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    /**
     * Empties slot @p i, shifting later entries of the probe chain
     * backward: an entry at j may keep its place only if its home lies
     * in (i, j] cyclically; otherwise slot i was on its probe path and
     * it moves there.
     */
    void
    eraseAt(std::size_t i)
    {
        for (std::size_t j = i;;) {
            j = next(j);
            if (slots_[j].mask == 0) {
                break;
            }
            const std::size_t k = home(slots_[j].key);
            const bool stays =
                (i <= j) ? (k > i && k <= j) : (k > i || k <= j);
            if (!stays) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i].mask = 0;
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 0;
};

} // namespace swcc

#endif // SWCC_SIM_CACHE_HOLDER_MAP_HH
