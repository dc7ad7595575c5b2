/**
 * @file
 * Unit tests for the bounded MPMC ring shared by the campaign journal
 * and the swccd submission path: full/empty edges, FIFO order across
 * many laps of the ring, and exactly-once delivery under 4 producers
 * and 4 consumers (the suite name starts with "Parallel" so the tsan
 * preset picks it up).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/mpmc_queue.hh"

namespace swcc
{
namespace
{

TEST(ParallelMpmcQueueTest, PushFailsWhenFullAndPopFailsWhenEmpty)
{
    MpmcQueue<int> queue(4);
    int out = -1;
    EXPECT_FALSE(queue.tryPop(out));
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(queue.tryPush(i));
    }
    EXPECT_FALSE(queue.tryPush(4));
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(queue.tryPop(out));
}

TEST(ParallelMpmcQueueTest, FailedPushLeavesTheValueForRetry)
{
    // The journal retries the same rvalue record until the ring has
    // room, so a refused push must not move from it.
    MpmcQueue<std::string> queue(2);
    ASSERT_TRUE(queue.tryPush(std::string("a")));
    ASSERT_TRUE(queue.tryPush(std::string("b")));
    std::string record = "a record long enough to own a heap buffer";
    EXPECT_FALSE(queue.tryPush(std::move(record)));
    EXPECT_EQ(record, "a record long enough to own a heap buffer");

    std::string out;
    ASSERT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, "a");
    EXPECT_TRUE(queue.tryPush(std::move(record)));
    ASSERT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, "b");
    ASSERT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, "a record long enough to own a heap buffer");
}

TEST(ParallelMpmcQueueTest, WraparoundKeepsFifoOrder)
{
    // Pushes and pops in uneven bursts so the head and tail cross the
    // slot array's end at different offsets on every lap.
    constexpr std::size_t kCapacity = 8;
    constexpr int kTotal = 10 * static_cast<int>(kCapacity) + 3;
    MpmcQueue<int> queue(kCapacity);
    int pushed = 0;
    int popped = 0;
    std::size_t burst = 1;
    while (popped < kTotal) {
        for (std::size_t i = 0; i < burst && pushed < kTotal; ++i) {
            if (!queue.tryPush(pushed)) {
                break;
            }
            ++pushed;
        }
        for (std::size_t i = 0; i < burst / 2 + 1; ++i) {
            int out = -1;
            if (!queue.tryPop(out)) {
                break;
            }
            ASSERT_EQ(out, popped);
            ++popped;
        }
        burst = burst % kCapacity + 1;
    }
    EXPECT_EQ(pushed, kTotal);
    int out = -1;
    EXPECT_FALSE(queue.tryPop(out));
}

TEST(ParallelMpmcQueueTest, EveryValuePopsExactlyOnce)
{
    constexpr unsigned kProducers = 4;
    constexpr unsigned kConsumers = 4;
    constexpr std::uint32_t kPerProducer = 20000;
    constexpr std::uint32_t kTotal = kProducers * kPerProducer;
    // A small ring keeps producers and consumers contending on full
    // and empty slots throughout the run.
    MpmcQueue<std::uint32_t> queue(64);

    std::vector<std::atomic<unsigned>> seen(kTotal);
    std::atomic<std::uint32_t> consumed{0};
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < kProducers; ++p) {
        threads.emplace_back([&queue, p] {
            for (std::uint32_t i = 0; i < kPerProducer; ++i) {
                const std::uint32_t value = p * kPerProducer + i;
                while (!queue.tryPush(value)) {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (unsigned c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            std::uint32_t value = 0;
            while (consumed.load(std::memory_order_relaxed) < kTotal) {
                if (queue.tryPop(value)) {
                    seen[value].fetch_add(1, std::memory_order_relaxed);
                    consumed.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }

    EXPECT_EQ(consumed.load(), kTotal);
    std::uint32_t wrong = 0;
    for (std::uint32_t v = 0; v < kTotal; ++v) {
        if (seen[v].load() != 1) {
            ++wrong;
        }
    }
    EXPECT_EQ(wrong, 0u) << "values popped zero or several times";
    std::uint32_t out = 0;
    EXPECT_FALSE(queue.tryPop(out));
}

} // namespace
} // namespace swcc
