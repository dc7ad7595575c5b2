/**
 * @file
 * Unit tests for the MESI / MESIF / MOESI protocol family driver.
 *
 * The family shares one Illinois skeleton, so the common transitions
 * run on every variant; MESIF's forwarder slot and MOESI's Owned state
 * are pinned with targeted transition tests. MESI's whole-run
 * statistics are pinned by SimGoldenTest.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/cache/mesi_family_protocol.hh"
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
stateOf(const MesiFamilyProtocol &protocol, CpuId cpu, Addr addr)
{
    const CacheLine *line = protocol.cache(cpu).find(addr);
    return line != nullptr ? line->state : LineState::Invalid;
}

std::vector<Operation>
opsOf(const AccessResult &result)
{
    return {result.ops.begin(), result.ops.begin() + result.numOps};
}

class MesiFamilyTest : public ::testing::TestWithParam<MesiVariant>
{
};

TEST_P(MesiFamilyTest, ReadSharingDemotesExclusiveToShared)
{
    MesiFamilyProtocol protocol(GetParam(), config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Exclusive);
    protocol.access(1, RefType::Load, kBlockA, result);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedClean);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedClean);
}

TEST_P(MesiFamilyTest, WriteToSharedInvalidatesEveryRemoteCopy)
{
    MesiFamilyProtocol protocol(GetParam(), config(), 3);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
    protocol.access(2, RefType::Load, kBlockA, result);

    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteBroadcast});
    EXPECT_EQ(result.steals.size(), 2u);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::Invalid);
    EXPECT_EQ(stateOf(protocol, 2, kBlockA), LineState::Invalid);
    EXPECT_EQ(protocol.measurements().invalidations, 1u);
    EXPECT_EQ(protocol.measurements().copiesInvalidated, 2u);
}

TEST_P(MesiFamilyTest, RepeatWritesAfterTheInvalidationAreFree)
{
    MesiFamilyProtocol protocol(GetParam(), config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
    protocol.access(0, RefType::Store, kBlockA, result);
    ASSERT_EQ(result.numOps, 1u);
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(result.numOps, 0u);
    EXPECT_EQ(protocol.measurements().invalidations, 1u);
}

TEST_P(MesiFamilyTest, ReReferenceAfterInvalidationIsACoherenceMiss)
{
    MesiFamilyProtocol protocol(GetParam(), config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
    protocol.access(0, RefType::Store, kBlockA, result); // Kills 1's.

    protocol.access(1, RefType::Load, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissCache});
    EXPECT_EQ(protocol.measurements().coherenceMisses, 1u);
    EXPECT_EQ(protocol.measurements().ownerSupplies, 1u);
    EXPECT_DOUBLE_EQ(protocol.measurements().copiesPerInvalidation(),
                     1.0);
    EXPECT_DOUBLE_EQ(protocol.measurements().rerefFraction(), 1.0);
}

TEST_P(MesiFamilyTest, WriteMissIsReadForOwnership)
{
    MesiFamilyProtocol protocol(GetParam(), config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              (std::vector<Operation>{Operation::CleanMissMem,
                                      Operation::WriteBroadcast}));
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::Dirty);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Invalid);
    EXPECT_EQ(protocol.measurements().invalidations, 1u);
}

TEST_P(MesiFamilyTest, ColdWriteMissNeedsNoInvalidation)
{
    MesiFamilyProtocol protocol(GetParam(), config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
    EXPECT_EQ(protocol.measurements().invalidations, 0u);
    // Nothing destroyed yet: the ratios report their fallbacks.
    EXPECT_DOUBLE_EQ(protocol.measurements().copiesPerInvalidation(2.0),
                     2.0);
    EXPECT_DOUBLE_EQ(protocol.measurements().rerefFraction(0.5), 0.5);
}

TEST_P(MesiFamilyTest, WriteRunCostsOneInvalidationAgainstDragonsTen)
{
    // A run of ten stores to a shared block: invalidation pays once
    // per run, Dragon once per write.
    TraceBuffer trace;
    trace.append(0, RefType::Load, kBlockA);
    trace.append(1, RefType::Load, kBlockA);
    for (int i = 0; i < 10; ++i) {
        trace.append(0, RefType::Store, kBlockA + 4);
    }

    MultiprocessorSystem inval_system(mesiVariantScheme(GetParam()),
                                      config(), 2);
    MultiprocessorSystem dragon_system(Scheme::Dragon, config(), 2);
    EXPECT_EQ(inval_system.run(trace).opCount(Operation::WriteBroadcast),
              1u);
    EXPECT_EQ(
        dragon_system.run(trace).opCount(Operation::WriteBroadcast),
        10u);
}

TEST_P(MesiFamilyTest, FlushesAreNoOps)
{
    MesiFamilyProtocol protocol(GetParam(), config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    protocol.access(0, RefType::Flush, kBlockA, result);
    EXPECT_EQ(result.numOps, 0u);
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
}

TEST_P(MesiFamilyTest, InvariantsHoldUnderRandomTraffic)
{
    MesiFamilyProtocol protocol(GetParam(), config(), 4);
    Rng rng(99);
    AccessResult result;
    for (int i = 0; i < 20'000; ++i) {
        const CpuId cpu = static_cast<CpuId>(rng.below(4));
        const Addr addr = kBlockA + 16 * rng.below(24);
        protocol.access(cpu,
                        rng.chance(0.3) ? RefType::Store : RefType::Load,
                        addr, result);
        if (i % 1000 == 0) {
            ASSERT_NO_THROW(checkCoherenceInvariants(protocol));
        }
    }
    EXPECT_NO_THROW(checkCoherenceInvariants(protocol));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, MesiFamilyTest,
    ::testing::Values(MesiVariant::Mesi, MesiVariant::Mesif,
                      MesiVariant::Moesi),
    [](const auto &param_info) {
        return std::string(
            schemeName(mesiVariantScheme(param_info.param)));
    });

TEST(MesiTest, VariantNamesMatchTheirSchemes)
{
    EXPECT_EQ(MesiFamilyProtocol(MesiVariant::Mesi, config(), 2).name(),
              "MESI");
    EXPECT_EQ(
        MesiFamilyProtocol(MesiVariant::Mesif, config(), 2).name(),
        "MESIF");
    EXPECT_EQ(
        MesiFamilyProtocol(MesiVariant::Moesi, config(), 2).name(),
        "MOESI");
}

TEST(MesifTest, NewestSharerTakesTheForwarderSlot)
{
    MesiFamilyProtocol protocol(MesiVariant::Mesif, config(), 3);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    // Sole (Exclusive) copy: no forwarder needed.
    EXPECT_EQ(protocol.forwarderOf(kBlockA), -1);

    protocol.access(1, RefType::Load, kBlockA, result);
    EXPECT_EQ(protocol.forwarderOf(kBlockA), 1);
    protocol.access(2, RefType::Load, kBlockA, result);
    EXPECT_EQ(protocol.forwarderOf(kBlockA), 2);
}

TEST(MesifTest, ForwarderSuppliesCleanSharedMisses)
{
    MesiFamilyProtocol protocol(MesiVariant::Mesif, config(), 3);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);

    // CPU 1 holds the forwarder slot, so CPU 2's miss is supplied
    // cache-to-cache — under plain MESI this would go to memory.
    protocol.access(2, RefType::Load, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissCache});
    EXPECT_EQ(protocol.measurements().forwardSupplies, 1u);

    MesiFamilyProtocol mesi(MesiVariant::Mesi, config(), 3);
    mesi.access(0, RefType::Load, kBlockA, result);
    mesi.access(1, RefType::Load, kBlockA, result);
    mesi.access(2, RefType::Load, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissMem});
    EXPECT_EQ(mesi.measurements().forwardSupplies, 0u);
}

TEST(MesifTest, InvalidationClearsTheForwarderSlot)
{
    MesiFamilyProtocol protocol(MesiVariant::Mesif, config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
    ASSERT_EQ(protocol.forwarderOf(kBlockA), 1);

    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(protocol.forwarderOf(kBlockA), -1);
}

TEST(MesifTest, EvictedForwarderDropsTheSlot)
{
    // Fill CPU 1's set containing kBlockA until its forwarder copy is
    // evicted; the slot must not dangle on the evicted CPU.
    MesiFamilyProtocol protocol(MesiVariant::Mesif, config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Load, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
    ASSERT_EQ(protocol.forwarderOf(kBlockA), 1);

    // 1 KiB, 16 B blocks, 2-way: 32 sets; addresses 512 B apart map to
    // the same set. Two conflicting fills evict kBlockA from CPU 1.
    protocol.access(1, RefType::Load, kBlockA + 512, result);
    protocol.access(1, RefType::Load, kBlockA + 1024, result);
    ASSERT_EQ(stateOf(protocol, 1, kBlockA), LineState::Invalid);
    EXPECT_EQ(protocol.forwarderOf(kBlockA), -1);
}

TEST(MoesiTest, OwnerSuppliesAndKeepsOwnership)
{
    MesiFamilyProtocol protocol(MesiVariant::Moesi, config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    ASSERT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);

    protocol.access(1, RefType::Load, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::CleanMissCache});
    // MOESI: the supplier moves to Owned (SharedDirty), memory stays
    // stale; MESI/MESIF would demote the supplier to SharedClean.
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedDirty);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::SharedClean);
    EXPECT_EQ(protocol.measurements().ownerSupplies, 1u);

    MesiFamilyProtocol mesi(MesiVariant::Mesi, config(), 2);
    mesi.access(0, RefType::Store, kBlockA, result);
    mesi.access(1, RefType::Load, kBlockA, result);
    EXPECT_EQ(stateOf(mesi, 0, kBlockA), LineState::SharedClean);
}

TEST(MoesiTest, OwnerUpgradeInvalidatesTheSharers)
{
    MesiFamilyProtocol protocol(MesiVariant::Moesi, config(), 3);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result);
    protocol.access(2, RefType::Load, kBlockA, result);
    ASSERT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedDirty);

    protocol.access(0, RefType::Store, kBlockA, result);
    EXPECT_EQ(opsOf(result),
              std::vector<Operation>{Operation::WriteBroadcast});
    EXPECT_EQ(stateOf(protocol, 0, kBlockA), LineState::Dirty);
    EXPECT_EQ(stateOf(protocol, 1, kBlockA), LineState::Invalid);
    EXPECT_EQ(stateOf(protocol, 2, kBlockA), LineState::Invalid);
}

TEST(MoesiTest, EvictingAnOwnedLineWritesBack)
{
    MesiFamilyProtocol protocol(MesiVariant::Moesi, config(), 2);
    AccessResult result;
    protocol.access(0, RefType::Store, kBlockA, result);
    protocol.access(1, RefType::Load, kBlockA, result); // 0 → Owned.
    ASSERT_EQ(stateOf(protocol, 0, kBlockA), LineState::SharedDirty);

    // Conflict CPU 0's set: the Owned victim carries the deferred
    // write-back, so the evicting miss is a dirty miss.
    protocol.access(0, RefType::Load, kBlockA + 512, result);
    protocol.access(0, RefType::Load, kBlockA + 1024, result);
    ASSERT_EQ(stateOf(protocol, 0, kBlockA), LineState::Invalid);
    EXPECT_TRUE(result.hasDirtyMiss());
}

TEST(MesiFamilySystemTest, EverySchemeRunsUnderTheTimingSimulator)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 4, 20'000, 17, false);
    const TraceBuffer trace = generateTrace(workload);

    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;
    for (Scheme scheme :
         {Scheme::Mesi, Scheme::Mesif, Scheme::Moesi}) {
        MultiprocessorSystem system(scheme, cache, 4,
                                    workload.sharedClassifier());
        const SimStats stats = system.run(trace);
        EXPECT_EQ(stats.scheme, scheme);
        EXPECT_EQ(stats.protocolName, schemeName(scheme));
        EXPECT_GT(stats.processingPower(), 1.0) << schemeName(scheme);
        EXPECT_GT(stats.opCount(Operation::WriteBroadcast), 0u)
            << schemeName(scheme);
    }
}

TEST(MesiFamilySystemTest, MesifOnlyReclassifiesMisses)
{
    // On an identical access stream the forwarder changes *where*
    // misses are supplied from, never whether they happen: MESIF's
    // cache state transitions are exactly MESI's, so the two tallies
    // differ only by memory-supplied → cache-supplied reclassification
    // (the forwarder count). The timing simulator would perturb the
    // interleave, so the protocols are driven directly in trace order.
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PeroLike, 4, 20'000, 31, false);
    const TraceBuffer trace = generateTrace(workload);

    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;
    MesiFamilyProtocol mesi(MesiVariant::Mesi, cache, 4);
    MesiFamilyProtocol mesif(MesiVariant::Mesif, cache, 4);

    std::array<std::uint64_t, kNumOperations> mesi_ops{};
    std::array<std::uint64_t, kNumOperations> mesif_ops{};
    AccessResult result;
    for (const TraceEvent &event : trace) {
        mesi.access(event.cpu, event.type, event.addr, result);
        for (std::uint8_t i = 0; i < result.numOps; ++i) {
            ++mesi_ops[operationIndex(result.ops[i])];
        }
        mesif.access(event.cpu, event.type, event.addr, result);
        for (std::uint8_t i = 0; i < result.numOps; ++i) {
            ++mesif_ops[operationIndex(result.ops[i])];
        }
    }

    const auto count = [](const auto &ops, Operation op) {
        return ops[operationIndex(op)];
    };
    const auto supplied_by_cache = [&count](const auto &ops) {
        return count(ops, Operation::CleanMissCache) +
            count(ops, Operation::DirtyMissCache);
    };
    const auto supplied_by_mem = [&count](const auto &ops) {
        return count(ops, Operation::CleanMissMem) +
            count(ops, Operation::DirtyMissMem);
    };
    const std::uint64_t forwarded =
        mesif.measurements().forwardSupplies;
    EXPECT_GT(forwarded, 0u);
    EXPECT_EQ(supplied_by_cache(mesif_ops),
              supplied_by_cache(mesi_ops) + forwarded);
    EXPECT_EQ(supplied_by_mem(mesif_ops) + forwarded,
              supplied_by_mem(mesi_ops));
    // Victim dirtiness is state-determined, hence identical too.
    EXPECT_EQ(count(mesif_ops, Operation::CleanMissCache) +
                  count(mesif_ops, Operation::CleanMissMem),
              count(mesi_ops, Operation::CleanMissCache) +
                  count(mesi_ops, Operation::CleanMissMem));
    EXPECT_EQ(count(mesif_ops, Operation::WriteBroadcast),
              count(mesi_ops, Operation::WriteBroadcast));
    EXPECT_EQ(mesif.measurements().coherenceMisses,
              mesi.measurements().coherenceMisses);
}

} // namespace
} // namespace swcc
