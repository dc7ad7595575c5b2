/**
 * @file
 * Unit tests for the adaptive update/invalidate hybrid protocol: the
 * per-block wasted-broadcast counter, the policy switch in both
 * directions, and the system-level payoff against pure Dragon.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cache/hybrid_protocol.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/rng.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

constexpr Addr kBlockA = 0x8000'0000;

CacheConfig
config()
{
    CacheConfig c;
    c.sizeBytes = 1024;
    c.blockBytes = 16;
    c.associativity = 2;
    return c;
}

LineState
stateOf(const HybridProtocol &protocol, CpuId cpu, Addr addr)
{
    const CacheLine *line = protocol.cache(cpu).find(addr);
    return line != nullptr ? line->state : LineState::Invalid;
}

std::vector<Operation>
opsOf(const AccessResult &result)
{
    return {result.ops.begin(), result.ops.begin() + result.numOps};
}

/** Two CPUs sharing kBlockA, ready for CPU 0 to store. */
void
shareBlock(HybridProtocol &protocol)
{
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
}

TEST(HybridProtocolTest, BlocksStartInUpdateMode)
{
    HybridProtocol protocol(config(), 2);
    EXPECT_FALSE(protocol.inInvalidateMode(kBlockA));

    shareBlock(protocol);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    // Dragon semantics: the broadcast updates CPU 1's copy in place.
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteBroadcast});
    EXPECT_EQ(result.steals, std::vector<CpuId>{1});
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedDirty);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedClean);
    EXPECT_EQ(protocol.measurements().updateBroadcasts, 1u);
    EXPECT_FALSE(protocol.inInvalidateMode(kBlockA));
}

TEST(HybridProtocolTest, UnreadBroadcastsFlipTheBlockToInvalidate)
{
    HybridProtocol protocol(config(), 2);
    shareBlock(protocol);
    AccessResult result;

    // First store after a remote read is useful; each further store by
    // the same writer with no intervening remote touch is wasted. The
    // block flips once the counter reaches kSwitchThreshold.
    const unsigned stores = 1u + HybridProtocol::kSwitchThreshold;
    for (unsigned i = 0; i < stores; ++i) {
        ASSERT_FALSE(protocol.inInvalidateMode(kBlockA)) << i;
        protocol.access(0, RefType::Store, kBlockA, result);
    }
    EXPECT_TRUE(protocol.inInvalidateMode(kBlockA));
    EXPECT_EQ(protocol.measurements().updateBroadcasts, stores);
    EXPECT_EQ(protocol.measurements().wastedBroadcasts,
              HybridProtocol::kSwitchThreshold);
    EXPECT_EQ(protocol.measurements().switchesToInvalidate, 1u);

    // The next store invalidates instead of updating; after that the
    // line is exclusive and further stores are free.
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteBroadcast});
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::Invalid);
    EXPECT_EQ(protocol.measurements().invalidations, 1u);
    EXPECT_EQ(protocol.measurements().copiesInvalidated, 1u);
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(result.numOps, 0u);
}

TEST(HybridProtocolTest, RemoteReadsKeepTheBlockInUpdateMode)
{
    HybridProtocol protocol(config(), 2);
    shareBlock(protocol);
    AccessResult result;

    // Producer/consumer ping-pong: every broadcast is read before the
    // next one, so no broadcast is ever wasted.
    for (unsigned i = 0; i < 4 * HybridProtocol::kSwitchThreshold;
         ++i) {
        protocol.access(0, RefType::Store, kBlockA, result);
        protocol.access(1, RefType::Load, kBlockA, result);
    }
    EXPECT_FALSE(protocol.inInvalidateMode(kBlockA));
    EXPECT_EQ(protocol.measurements().wastedBroadcasts, 0u);
    EXPECT_EQ(protocol.measurements().switchesToInvalidate, 0u);
}

TEST(HybridProtocolTest, CoherenceMissesFlipTheBlockBackToUpdate)
{
    HybridProtocol protocol(config(), 2);
    shareBlock(protocol);
    AccessResult result;

    for (unsigned i = 0; i < 1u + HybridProtocol::kSwitchThreshold;
         ++i) {
        protocol.access(0, RefType::Store, kBlockA, result);
    }
    ASSERT_TRUE(protocol.inInvalidateMode(kBlockA));
    protocol.access(0, RefType::Store, kBlockA, result); // Invalidates.

    // The victim re-references its lost copy: a coherence miss, which
    // decays the wasted counter below the threshold and flips the
    // block back to update mode.
    protocol.access(1, RefType::Load, kBlockA, result);
    EXPECT_EQ(protocol.measurements().coherenceMisses, 1u);
    EXPECT_FALSE(protocol.inInvalidateMode(kBlockA));
    EXPECT_EQ(protocol.measurements().switchesToUpdate, 1u);
}

TEST(HybridProtocolTest, InvalidateModeReportsTheInvalidationRatios)
{
    HybridProtocol protocol(config(), 3);
    AccessResult result;
    for (CpuId cpu = 0; cpu < 3; ++cpu) {
        protocol.access(cpu, RefType::Load, kBlockA, result);
    }
    for (unsigned i = 0; i < 1u + HybridProtocol::kSwitchThreshold;
         ++i) {
        protocol.access(0, RefType::Store, kBlockA, result);
    }
    ASSERT_TRUE(protocol.inInvalidateMode(kBlockA));

    // One invalidation destroys two copies; only CPU 1 reads again.
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(result.steals, (std::vector<CpuId>{1, 2}));
    protocol.access(1, RefType::Load, kBlockA, result);

    const HybridMeasurements &measured = protocol.measurements();
    EXPECT_EQ(measured.invalidations, 1u);
    EXPECT_EQ(measured.copiesInvalidated, 2u);
    EXPECT_EQ(measured.coherenceMisses, 1u);
    EXPECT_DOUBLE_EQ(measured.copiesPerInvalidation(), 2.0);
    EXPECT_DOUBLE_EQ(measured.rerefFraction(), 0.5);
}

TEST(HybridProtocolTest, DirtyOwnerSuppliesMissesCacheToCache)
{
    HybridProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    ASSERT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);

    protocol.access(1, RefType::Load, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissCache});
    // Dragon-style supply: the owner keeps ownership.
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedDirty);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedClean);
}

TEST(HybridProtocolTest, StoreMissToASharedBlockBroadcasts)
{
    HybridProtocol protocol(config(), 3);
    AccessResult result;
    protocol.access(1, RefType::Load, kBlockA, result);
    protocol.access(2, RefType::Load, kBlockA, result);

    // CPU 0's store miss fills shared and continues into the shared-
    // store path: a miss op plus the update broadcast.
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              (std::vector<Operation>{Operation::CleanMissMem,
                                      Operation::WriteBroadcast}));
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedDirty);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedClean);
    EXPECT_EQ(stateOf(protocol, 2, kBlockA), LineState::SharedClean);
}

TEST(HybridProtocolTest, FlushesAreNoOps)
{
    HybridProtocol protocol(config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    protocol.access(0, RefType::Flush, kBlockA, result);
    EXPECT_EQ(result.numOps, 0u);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
}

TEST(HybridProtocolTest, InvariantsHoldUnderRandomTraffic)
{
    HybridProtocol protocol(config(), 4);
    Rng rng(1234);
    AccessResult result;
    for (int i = 0; i < 20'000; ++i) {
        const CpuId cpu = static_cast<CpuId>(rng.below(4));
        const Addr addr = kBlockA + 16 * rng.below(24);
        protocol.access(cpu,
                        rng.chance(0.4) ? RefType::Store : RefType::Load,
                        addr, result);
        if (i % 1000 == 0) {
            ASSERT_NO_THROW(checkCoherenceInvariants(protocol));
        }
    }
    EXPECT_NO_THROW(checkCoherenceInvariants(protocol));
}

TEST(HybridSystemTest, RunsUnderTheTimingSimulator)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 4, 20'000, 17, false);
    const TraceBuffer trace = generateTrace(workload);

    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;
    MultiprocessorSystem system(Scheme::Hybrid, cache, 4,
                                workload.sharedClassifier());
    const SimStats stats = system.run(trace);
    EXPECT_EQ(stats.scheme, Scheme::Hybrid);
    EXPECT_EQ(stats.protocolName, "Adaptive-Hybrid");
    EXPECT_GT(stats.processingPower(), 1.0);
}

TEST(HybridSystemTest, FewerBroadcastsThanDragonOnLongWriteRuns)
{
    // A single writer hammering a shared block: Dragon pays one
    // broadcast per store forever; the hybrid flips the block to
    // invalidate mode and the run becomes free.
    TraceBuffer trace;
    trace.append(0, RefType::Load, kBlockA);
    trace.append(1, RefType::Load, kBlockA);
    for (int i = 0; i < 20; ++i) {
        trace.append(0, RefType::Store, kBlockA + 4);
    }

    MultiprocessorSystem hybrid_system(Scheme::Hybrid, config(), 2);
    const SimStats hybrid = hybrid_system.run(trace);

    MultiprocessorSystem dragon_system(Scheme::Dragon, config(), 2);
    const SimStats dragon = dragon_system.run(trace);

    EXPECT_EQ(dragon.opCount(Operation::WriteBroadcast), 20u);
    EXPECT_LT(hybrid.opCount(Operation::WriteBroadcast), 20u);
    EXPECT_LE(hybrid.makespan, dragon.makespan);
}

} // namespace
} // namespace swcc
