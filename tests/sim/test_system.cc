/**
 * @file
 * Unit tests for the multiprocessor system timing layer.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sim/cache/mesi_family_protocol.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

constexpr Addr kCode = 0x0100'0000;
constexpr Addr kShared = 0x8000'0000;

CacheConfig
config()
{
    CacheConfig c;
    c.sizeBytes = 4096;
    c.blockBytes = 16;
    c.associativity = 2;
    return c;
}

SharedClassifier
classifier()
{
    return [](Addr block) { return block >= kShared; };
}

TEST(SystemTimingTest, SingleInstructionColdMiss)
{
    // One ifetch with a cold clean miss: 1 execute + 3 local miss
    // handling + 7 bus = 11 cycles.
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, kCode);

    MultiprocessorSystem system(Scheme::Base, config(), 1);
    const SimStats stats = system.run(trace);
    EXPECT_DOUBLE_EQ(stats.makespan, 11.0);
    EXPECT_EQ(stats.instrMisses, 1u);
    EXPECT_EQ(stats.totalInstructions(), 1u);
    EXPECT_NEAR(stats.processingPower(), 1.0 / 11.0, 1e-12);
}

TEST(SystemTimingTest, CachedInstructionTakesOneCycle)
{
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, kCode);
    trace.append(0, RefType::IFetch, kCode + 4);

    const SimStats stats =
        simulateTrace(Scheme::Base, trace, config());
    EXPECT_DOUBLE_EQ(stats.makespan, 12.0);
    EXPECT_EQ(stats.instrMisses, 1u);
}

TEST(SystemTimingTest, DataMissesAreChargedSeparately)
{
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, kCode);
    trace.append(0, RefType::Load, 0x4000'0000);

    const SimStats stats =
        simulateTrace(Scheme::Base, trace, config());
    // 11 for the instruction, 10 for the data miss (3 local + 7 bus).
    EXPECT_DOUBLE_EQ(stats.makespan, 21.0);
    EXPECT_EQ(stats.dataMisses, 1u);
    EXPECT_EQ(stats.instrMisses, 1u);
}

TEST(SystemTimingTest, BusContentionSerializesMisses)
{
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, kCode);
    trace.append(1, RefType::IFetch, kCode + 0x0010'0000);

    MultiprocessorSystem system(Scheme::Base, config(), 2);
    const SimStats stats = system.run(trace);
    // First processor: 1 + 3, bus 4..11, done 11. Second: local work
    // overlaps, but its bus grant waits until 11, finishing at 18.
    EXPECT_DOUBLE_EQ(stats.perCpu[0].finishTime, 11.0);
    EXPECT_DOUBLE_EQ(stats.perCpu[1].finishTime, 18.0);
    EXPECT_DOUBLE_EQ(stats.perCpu[1].busWaiting, 7.0);
    EXPECT_EQ(stats.busTransactions, 2u);
    EXPECT_DOUBLE_EQ(stats.busBusyCycles, 14.0);
}

TEST(SystemTimingTest, FlushInstructionCostsItsFlushOperation)
{
    // ifetch(hit-after-miss) + flush of a clean cached block: the
    // flush instruction's execution is the 1-cycle clean flush, not an
    // extra instruction cycle.
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, kCode);          // 11 cycles.
    trace.append(0, RefType::Load, kShared);          // 10 cycles.
    trace.append(0, RefType::IFetch, kCode + 4);      // hit: fetch of flush
    trace.append(0, RefType::Flush, kShared);         // 1 cycle.

    const SimStats stats =
        simulateTrace(Scheme::SoftwareFlush, trace, config());
    EXPECT_DOUBLE_EQ(stats.makespan, 22.0);
    EXPECT_EQ(stats.totalInstructions(), 2u);
    EXPECT_EQ(stats.totalUsefulInstructions(), 1u);
    EXPECT_EQ(stats.opCount(Operation::CleanFlush), 1u);
}

TEST(SystemTimingTest, DirtyFlushPaysBusTime)
{
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, kCode);
    trace.append(0, RefType::Store, kShared);
    trace.append(0, RefType::IFetch, kCode + 4);
    trace.append(0, RefType::Flush, kShared);

    const SimStats stats =
        simulateTrace(Scheme::SoftwareFlush, trace, config());
    // 11 + 10 + 0 (fetch of flush, hit, no execute cycle) + 6 = 27.
    EXPECT_DOUBLE_EQ(stats.makespan, 27.0);
    EXPECT_EQ(stats.opCount(Operation::DirtyFlush), 1u);
}

TEST(SystemTimingTest, DragonStealsShowUpInTheVictimsClock)
{
    TraceBuffer trace;
    trace.append(0, RefType::Load, kShared);
    trace.append(1, RefType::Load, kShared);
    trace.append(0, RefType::Store, kShared); // Broadcast; steals 1.

    MultiprocessorSystem system(Scheme::Dragon, config(), 2);
    const SimStats stats = system.run(trace);
    EXPECT_DOUBLE_EQ(stats.perCpu[1].stolen, 1.0);
    EXPECT_EQ(stats.opCount(Operation::WriteBroadcast), 1u);
}

TEST(SystemTimingTest, StolenCyclesReachARetiredVictimsFinishTime)
{
    // cpu1 retires after a single load; cpu0 then broadcasts N stores,
    // each stealing a cycle from cpu1's still-resident copy. Those
    // post-retirement steals must land in cpu1's finish time (and
    // hence the makespan) — they used to vanish, because only a later
    // step() of the victim folded readyAt back into finishTime.
    constexpr int kStores = 50;
    const auto makeTrace = [](int stores) {
        TraceBuffer trace;
        trace.append(1, RefType::Load, kShared);
        trace.append(0, RefType::Load, kShared);
        for (int i = 0; i < stores; ++i) {
            trace.append(0, RefType::Store, kShared);
        }
        return trace;
    };

    MultiprocessorSystem quiet(Scheme::Dragon, config(), 2);
    const SimStats without = quiet.run(makeTrace(0));
    MultiprocessorSystem noisy(Scheme::Dragon, config(), 2);
    const SimStats with = noisy.run(makeTrace(kStores));

    // cpu1's own work is identical in both runs; every broadcast
    // steals exactly one cycle from it.
    EXPECT_DOUBLE_EQ(with.perCpu[1].stolen,
                     static_cast<double>(kStores));
    EXPECT_DOUBLE_EQ(with.perCpu[1].finishTime,
                     without.perCpu[1].finishTime + kStores);
    EXPECT_GE(with.makespan, with.perCpu[1].finishTime);
}

TEST(SystemTimingTest, ClocksFarApartRunInTimeOrder)
{
    // A 1000-cycle miss puts the two clocks ~1000 cycles apart, past
    // the event loop's starting calendar, so each processor is filed
    // well ahead of the other and still runs in clock order.
    BusCostModel costs;
    costs.setCost(Operation::CleanMissMem, {1000.0, 997.0});
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, kCode);
    trace.append(1, RefType::IFetch, kCode + 0x0010'0000);
    trace.append(0, RefType::IFetch, kCode + 4);
    trace.append(1, RefType::IFetch, kCode + 0x0010'0004);

    MultiprocessorSystem system(Scheme::Base, config(), 2, nullptr, costs);
    const SimStats stats = system.run(trace);
    // cpu0: 1 + 3, bus 4..1001, then a 1-cycle hit. cpu1: 1 + 3,
    // waits for the bus until 1001, holds it to 1998, then a hit.
    EXPECT_DOUBLE_EQ(stats.perCpu[0].finishTime, 1002.0);
    EXPECT_DOUBLE_EQ(stats.perCpu[1].finishTime, 1999.0);
    EXPECT_DOUBLE_EQ(stats.perCpu[1].busWaiting, 997.0);
    EXPECT_DOUBLE_EQ(stats.makespan, 1999.0);
}

TEST(SystemTimingTest, ReadThroughAndWriteThroughTimings)
{
    TraceBuffer trace;
    trace.append(0, RefType::Load, kShared);  // Read-through: 5.
    trace.append(0, RefType::Store, kShared); // Write-through: 2.

    MultiprocessorSystem system(Scheme::NoCache, config(), 1,
                                classifier());
    const SimStats stats = system.run(trace);
    EXPECT_DOUBLE_EQ(stats.makespan, 7.0);
    EXPECT_EQ(stats.opCount(Operation::ReadThrough), 1u);
    EXPECT_EQ(stats.opCount(Operation::WriteThrough), 1u);
}

TEST(SystemTest, RejectsTracesWithTooManyCpus)
{
    TraceBuffer trace;
    trace.append(3, RefType::IFetch, kCode);
    MultiprocessorSystem system(Scheme::Base, config(), 2);
    EXPECT_THROW(system.run(trace), std::invalid_argument);
}

TEST(SystemTest, RejectsBusCostsOfPartCycles)
{
    // Table 1 prices every operation in whole cycles, and the event
    // loop files processors by whole cycles.
    BusCostModel cpu;
    cpu.setCost(Operation::DirtyFlush, {6.5, 4.0});
    try {
        MultiprocessorSystem system(Scheme::Base, config(), 2, nullptr,
                                    cpu);
        ADD_FAILURE() << "a 6.5-cycle dirty flush was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      operationName(Operation::DirtyFlush)),
                  std::string::npos)
            << e.what();
    }

    BusCostModel channel;
    channel.setCost(Operation::CleanMissMem, {10.0, 6.5});
    EXPECT_THROW(MultiprocessorSystem(Scheme::Base, config(), 2, nullptr,
                                      channel),
                 std::invalid_argument);

    MachineParams wide;
    wide.blockWords = 8;
    EXPECT_NO_THROW(MultiprocessorSystem(Scheme::Dragon, config(), 2,
                                         nullptr, makeBusCostModel(wide)));
}

TEST(SystemTest, StatsCarryTheSchemeOfASuppliedProtocol)
{
    TraceBuffer trace;
    trace.append(0, RefType::Load, kShared);
    MultiprocessorSystem system(
        std::make_unique<MesiFamilyProtocol>(MesiVariant::Moesi, config(),
                                             2));
    const SimStats stats = system.run(trace);
    EXPECT_EQ(stats.scheme, Scheme::Moesi);
    EXPECT_EQ(stats.protocolName, "MOESI");
}

TEST(SystemTest, EveryProtocolKnowsItsScheme)
{
    for (Scheme scheme : kAllSchemes) {
        const MultiprocessorSystem system(scheme, config(), 2,
                                          classifier());
        EXPECT_EQ(system.protocol().scheme(), scheme)
            << schemeName(scheme);
        EXPECT_EQ(system.protocol().name(), schemeName(scheme));
    }
}

TEST(SystemTest, SelectingTheReferenceScanLeavesStatisticsUnchanged)
{
    // The benchmark harness selects SnoopPath::ReferenceScan on a cold
    // system before it checks statistics; it is the only snoop walk,
    // so the call must change nothing.
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PeroLike, 8, 3'000, 13, false);
    const TraceBuffer trace = generateTrace(workload);
    for (Scheme scheme : kAllSchemes) {
        MultiprocessorSystem plain(scheme, config(), 8,
                                   workload.sharedClassifier());
        MultiprocessorSystem selected(scheme, config(), 8,
                                      workload.sharedClassifier());
        selected.setSnoopPath(SnoopPath::ReferenceScan);
        EXPECT_EQ(selected.run(trace).serialize(),
                  plain.run(trace).serialize())
            << schemeName(scheme);
    }
}

TEST(SystemTest, SchemeOrderingOnARealisticTrace)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 4, 40'000, 21, false);
    const TraceBuffer trace = generateTrace(workload);
    const SharedClassifier shared = workload.sharedClassifier();

    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;

    auto power = [&](Scheme scheme) {
        MultiprocessorSystem system(scheme, cache, 4, shared);
        return system.run(trace).processingPower();
    };

    const double base = power(Scheme::Base);
    const double dragon = power(Scheme::Dragon);
    const double nocache = power(Scheme::NoCache);

    EXPECT_GE(base, dragon);
    EXPECT_GT(dragon, nocache);
}

TEST(SystemTest, InvariantCheckingCanRunInline)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PeroLike, 4, 5'000, 5, false);
    const TraceBuffer trace = generateTrace(workload);

    CacheConfig cache;
    cache.sizeBytes = 16 * 1024;
    cache.blockBytes = 16;
    MultiprocessorSystem system(Scheme::Dragon, cache, 4);
    system.setInvariantCheckInterval(1'000);
    EXPECT_NO_THROW(system.run(trace));
}

TEST(SystemTest, StatsDerivedQuantitiesAreConsistent)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::ThorLike, 2, 20'000, 9, false);
    const TraceBuffer trace = generateTrace(workload);

    const SimStats stats = simulateTrace(Scheme::Base, trace, config());
    EXPECT_EQ(stats.cpus, 2u);
    EXPECT_GT(stats.makespan, 0.0);
    EXPECT_GT(stats.busUtilization(), 0.0);
    EXPECT_LE(stats.busUtilization(), 1.0);
    EXPECT_GT(stats.dataMissRate(), 0.0);
    EXPECT_LT(stats.dataMissRate(), 1.0);
    EXPECT_GT(stats.instrMissRate(), 0.0);
    EXPECT_LT(stats.instrMissRate(), 1.0);
    EXPECT_GE(stats.dirtyMissFraction(), 0.0);
    EXPECT_LE(stats.dirtyMissFraction(), 1.0);
    EXPECT_NEAR(stats.avgUtilization() * 2.0, stats.processingPower(),
                1e-12);
}

} // namespace
} // namespace swcc
