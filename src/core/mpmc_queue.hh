/**
 * @file
 * Bounded lock-free MPMC ring (Vyukov-style sequence counters).
 *
 * The tree's one multi-producer/multi-consumer queue. The campaign
 * journal's completing pool lanes push formatted records to its
 * committer thread; the daemon's connection threads push decoded
 * queries to its batching workers. Each slot carries a sequence
 * counter that tells producers and consumers whose turn the slot is,
 * so an enqueue or dequeue is one CAS on the head/tail plus two
 * relaxed/acquire-release accesses on the slot, with no mutex on the
 * hot path. Both operations are non-blocking; callers that find the
 * ring full or empty choose their own backpressure or wait policy.
 * Capacity must be a power of two.
 */

#ifndef SWCC_CORE_MPMC_QUEUE_HH
#define SWCC_CORE_MPMC_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace swcc
{

template <typename T>
class MpmcQueue
{
  public:
    explicit MpmcQueue(std::size_t capacity)
        : slots_(capacity), mask_(capacity - 1)
    {
        static_assert(std::is_nothrow_move_assignable_v<T> ||
                          std::is_copy_assignable_v<T>,
                      "slot assignment must not throw mid-transfer");
        for (std::size_t i = 0; i < capacity; ++i) {
            slots_[i].sequence.store(i, std::memory_order_relaxed);
        }
    }

    /**
     * Non-blocking enqueue; false when the ring is full. @p value is
     * copied or moved into the ring only on success, so a caller may
     * retry with the same rvalue after a false return.
     */
    template <typename U>
    bool
    tryPush(U &&value)
    {
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Slot &slot = slots_[pos & mask_];
            const std::size_t seq =
                slot.sequence.load(std::memory_order_acquire);
            const std::ptrdiff_t diff =
                static_cast<std::ptrdiff_t>(seq) -
                static_cast<std::ptrdiff_t>(pos);
            if (diff == 0) {
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    slot.value = std::forward<U>(value);
                    slot.sequence.store(pos + 1,
                                        std::memory_order_release);
                    return true;
                }
            } else if (diff < 0) {
                return false; // Full: slot not yet consumed.
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /** Non-blocking dequeue; false when the ring is empty. */
    bool
    tryPop(T &out)
    {
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Slot &slot = slots_[pos & mask_];
            const std::size_t seq =
                slot.sequence.load(std::memory_order_acquire);
            const std::ptrdiff_t diff =
                static_cast<std::ptrdiff_t>(seq) -
                static_cast<std::ptrdiff_t>(pos + 1);
            if (diff == 0) {
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    out = std::move(slot.value);
                    slot.sequence.store(pos + mask_ + 1,
                                        std::memory_order_release);
                    return true;
                }
            } else if (diff < 0) {
                return false; // Empty: slot not yet produced.
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
    }

  private:
    struct Slot
    {
        std::atomic<std::size_t> sequence{0};
        T value{};
    };

    std::vector<Slot> slots_;
    std::size_t mask_;
    alignas(64) std::atomic<std::size_t> tail_{0};
    alignas(64) std::atomic<std::size_t> head_{0};
};

} // namespace swcc

#endif // SWCC_CORE_MPMC_QUEUE_HH
