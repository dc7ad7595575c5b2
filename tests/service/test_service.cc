/**
 * @file
 * Tests for the ServiceKernel facade and the swccd wire protocol:
 * validation, batch coalescing bitwise identity (one curve of the
 * group's largest size), binary/JSON frame round trips,
 * and the robustness contract (truncated frames, oversized length
 * prefixes, NaN/Inf fields, garbage input).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/obs/metrics.hh"
#include "core/scheme_evaluator.hh"
#include "core/types.hh"
#include "core/workload.hh"
#include "service/protocol.hh"
#include "service/service_kernel.hh"
#include "sim/synth/rng.hh"

namespace swcc::service
{
namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectIdentical(const BusSolution &a, const BusSolution &b)
{
    EXPECT_EQ(a.processors, b.processors);
    EXPECT_TRUE(sameBits(a.cpu, b.cpu));
    EXPECT_TRUE(sameBits(a.bus, b.bus));
    EXPECT_TRUE(sameBits(a.waiting, b.waiting));
    EXPECT_TRUE(sameBits(a.busUtilization, b.busUtilization));
    EXPECT_TRUE(sameBits(a.busQueueLength, b.busQueueLength));
    EXPECT_TRUE(
        sameBits(a.processorUtilization, b.processorUtilization));
    EXPECT_TRUE(sameBits(a.processingPower, b.processingPower));
}

void
expectIdentical(const NetworkSolution &a, const NetworkSolution &b)
{
    EXPECT_EQ(a.stages, b.stages);
    EXPECT_EQ(a.processors, b.processors);
    EXPECT_TRUE(sameBits(a.cpu, b.cpu));
    EXPECT_TRUE(sameBits(a.network, b.network));
    EXPECT_TRUE(sameBits(a.transactionRate, b.transactionRate));
    EXPECT_TRUE(sameBits(a.unitRequestRate, b.unitRequestRate));
    EXPECT_TRUE(sameBits(a.computeFraction, b.computeFraction));
    EXPECT_TRUE(sameBits(a.inputLoad, b.inputLoad));
    EXPECT_TRUE(sameBits(a.acceptance, b.acceptance));
    EXPECT_TRUE(
        sameBits(a.cyclesPerInstruction, b.cyclesPerInstruction));
    EXPECT_TRUE(sameBits(a.waiting, b.waiting));
    EXPECT_TRUE(
        sameBits(a.processorUtilization, b.processorUtilization));
    EXPECT_TRUE(sameBits(a.processingPower, b.processingPower));
}

void
expectIdentical(const QueryResult &a, const QueryResult &b)
{
    ASSERT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.domain, b.domain);
    if (!a.ok) {
        return;
    }
    if (a.domain == QueryDomain::Bus) {
        expectIdentical(a.bus, b.bus);
    } else {
        expectIdentical(a.network, b.network);
    }
}

Query
busQuery(Scheme scheme, unsigned cpus,
         const WorkloadParams &params = middleParams())
{
    Query query;
    query.domain = QueryDomain::Bus;
    query.scheme = scheme;
    query.size = cpus;
    query.params = params;
    return query;
}

Query
networkQuery(Scheme scheme, unsigned stages,
             const WorkloadParams &params = middleParams())
{
    Query query;
    query.domain = QueryDomain::Network;
    query.scheme = scheme;
    query.size = stages;
    query.params = params;
    return query;
}

class ServiceKernelTest : public ::testing::Test
{
  protected:
    ServiceKernel kernel_;
};

TEST_F(ServiceKernelTest, AcceptsAdmissibleQueries)
{
    EXPECT_TRUE(kernel_.validate(busQuery(Scheme::Base, 1)).empty());
    EXPECT_TRUE(
        kernel_.validate(busQuery(Scheme::Dragon, 1024)).empty());
    EXPECT_TRUE(
        kernel_.validate(networkQuery(Scheme::SoftwareFlush, 10))
            .empty());
    EXPECT_TRUE(
        kernel_.validate(networkQuery(Scheme::NoCache, 24)).empty());
}

TEST_F(ServiceKernelTest, RejectsOutOfRangeSizes)
{
    EXPECT_FALSE(kernel_.validate(busQuery(Scheme::Base, 0)).empty());
    EXPECT_FALSE(
        kernel_.validate(busQuery(Scheme::Base, 1025)).empty());
    EXPECT_FALSE(
        kernel_.validate(networkQuery(Scheme::SoftwareFlush, 25))
            .empty());

    const ServiceKernel small(ServiceKernel::Limits{8, 4});
    EXPECT_TRUE(small.validate(busQuery(Scheme::Base, 8)).empty());
    EXPECT_FALSE(small.validate(busQuery(Scheme::Base, 9)).empty());
}

TEST_F(ServiceKernelTest, RejectsSnoopySchemesOnTheNetwork)
{
    // Dragon needs a broadcast bus (paper §6), and the invalidate
    // family and the hybrid snoop the same bus; Base and the software
    // schemes work with any processor-memory interconnect.
    for (Scheme scheme : {Scheme::Dragon, Scheme::Mesi, Scheme::Mesif,
                          Scheme::Moesi, Scheme::Hybrid}) {
        EXPECT_FALSE(
            kernel_.validate(networkQuery(scheme, 6)).empty())
            << schemeName(scheme);
        EXPECT_TRUE(kernel_.validate(busQuery(scheme, 6)).empty())
            << schemeName(scheme);
    }
    EXPECT_TRUE(
        kernel_.validate(networkQuery(Scheme::Base, 6)).empty());
    EXPECT_TRUE(
        kernel_.validate(networkQuery(Scheme::SoftwareFlush, 6))
            .empty());
}

TEST_F(ServiceKernelTest, RejectsNonFiniteAndOutOfDomainParams)
{
    Query query = busQuery(Scheme::Base, 4);
    query.params.shd = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(kernel_.validate(query).find("shd"), std::string::npos);

    query = busQuery(Scheme::Base, 4);
    query.params.wr = std::numeric_limits<double>::infinity();
    EXPECT_NE(kernel_.validate(query).find("wr"), std::string::npos);

    query = busQuery(Scheme::Base, 4);
    query.params.md = -0.25;
    EXPECT_FALSE(kernel_.validate(query).empty());
}

TEST_F(ServiceKernelTest, EvaluateMatchesTheDirectSolverBitwise)
{
    for (Scheme scheme : kAllSchemes) {
        const Query query = busQuery(scheme, 12);
        const QueryResult got = kernel_.evaluate(query);
        ASSERT_TRUE(got.ok) << got.error;
        expectIdentical(got.bus,
                        evaluateBus(scheme, query.params, 12));
    }
    const Query query = networkQuery(Scheme::SoftwareFlush, 8);
    const QueryResult got = kernel_.evaluate(query);
    ASSERT_TRUE(got.ok) << got.error;
    expectIdentical(
        got.network,
        evaluateNetwork(Scheme::SoftwareFlush, query.params, 8));
}

TEST_F(ServiceKernelTest, EvaluateReportsInvalidQueriesWithoutThrowing)
{
    const QueryResult got =
        kernel_.evaluate(busQuery(Scheme::Base, 0));
    EXPECT_FALSE(got.ok);
    EXPECT_FALSE(got.error.empty());
}

TEST_F(ServiceKernelTest, BatchIsBitwiseIdenticalToPointEvaluation)
{
    // A mixed batch: several coalescible groups (same workload,
    // different sizes), duplicates within a group, two domains, and
    // distinct workloads that must not be merged.
    std::vector<Query> queries;
    for (unsigned n : {3u, 9u, 17u, 9u, 64u}) {
        queries.push_back(busQuery(Scheme::Dragon, n));
    }
    for (unsigned n : {2u, 11u, 30u}) {
        queries.push_back(
            busQuery(Scheme::Base, n, paramsAtLevel(Level::High)));
    }
    for (unsigned stages : {2u, 5u, 5u, 9u}) {
        queries.push_back(networkQuery(Scheme::SoftwareFlush, stages));
    }
    queries.push_back(busQuery(Scheme::NoCache, 7));

    std::vector<QueryResult> batched(queries.size());
    kernel_.evaluateBatch(queries.data(), queries.size(),
                          batched.data());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        expectIdentical(batched[i], kernel_.evaluate(queries[i]));
    }
}

TEST_F(ServiceKernelTest, MultiSizeBusGroupStaysBitwiseIdentical)
{
    // A multi-size group is answered from one curve; by the curve
    // prefix contract each member equals its point solve.
    std::vector<Query> queries;
    for (unsigned n : {5u, 23u, 41u}) {
        queries.push_back(busQuery(Scheme::SoftwareFlush, n));
    }
    std::vector<QueryResult> batched(queries.size());
    kernel_.evaluateBatch(queries.data(), queries.size(),
                          batched.data());

    for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        expectIdentical(batched[i], kernel_.evaluate(queries[i]));
    }
}

TEST_F(ServiceKernelTest, NetworkGroupUpToTheStageLimitStaysBitwiseIdentical)
{
    // A group reaching the 24-stage admission limit solves a 24-stage
    // curve. Every member, and the limit itself, must equal its point
    // solve.
    std::vector<Query> queries;
    for (unsigned stages : {1u, 3u, 17u, 24u, 3u}) {
        queries.push_back(networkQuery(Scheme::SoftwareFlush, stages));
    }
    std::vector<QueryResult> batched(queries.size());
    kernel_.evaluateBatch(queries.data(), queries.size(),
                          batched.data());

    for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        ASSERT_TRUE(batched[i].ok) << batched[i].error;
        expectIdentical(batched[i], kernel_.evaluate(queries[i]));
    }
}

std::uint64_t
counterValue(const std::string &name)
{
    for (const obs::MetricSnapshot &snap : obs::metrics().snapshot()) {
        if (snap.name == name) {
            return static_cast<std::uint64_t>(snap.value);
        }
    }
    return 0;
}

TEST_F(ServiceKernelTest, MultiSizeGroupSolvesOneCurveOfItsLargestSize)
{
    // Sizes {5, 23, 41} of one workload: one bus recursion of 41
    // populations answers all three, in every round.
    std::vector<Query> queries;
    for (unsigned n : {5u, 23u, 41u}) {
        queries.push_back(busQuery(Scheme::SoftwareFlush, n));
    }
    std::vector<QueryResult> batched(queries.size());
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const std::uint64_t solves = counterValue("solver.bus.solves");
        const std::uint64_t iterations =
            counterValue("solver.bus.iterations");
        kernel_.evaluateBatch(queries.data(), queries.size(),
                              batched.data());
        EXPECT_EQ(counterValue("solver.bus.solves") - solves, 1u);
        EXPECT_EQ(counterValue("solver.bus.iterations") - iterations,
                  41u);
    }
}

TEST_F(ServiceKernelTest, BatchRejectsInvalidMembersIndividually)
{
    std::vector<Query> queries = {
        busQuery(Scheme::Base, 4),
        busQuery(Scheme::Base, 0),    // invalid: zero size
        networkQuery(Scheme::Dragon, 4), // invalid: snoopy on net
        busQuery(Scheme::Base, 16),
    };
    queries.emplace_back(busQuery(Scheme::Base, 8));
    queries.back().params.apl =
        std::numeric_limits<double>::quiet_NaN();

    std::vector<QueryResult> results(queries.size());
    kernel_.evaluateBatch(queries.data(), queries.size(),
                          results.data());
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[2].ok);
    EXPECT_TRUE(results[3].ok);
    EXPECT_FALSE(results[4].ok);
    expectIdentical(results[0].bus,
                    evaluateBus(Scheme::Base, queries[0].params, 4));
    expectIdentical(results[3].bus,
                    evaluateBus(Scheme::Base, queries[3].params, 16));
}

class ServiceProtocolTest : public ::testing::Test
{
  protected:
    /** Decodes one request, asserting a complete frame came out. */
    RequestFrame
    decodeOne(const std::vector<std::uint8_t> &bytes)
    {
        RequestFrame frame;
        std::string error;
        std::size_t consumed = 0;
        const DecodeStatus status = decodeRequest(
            bytes.data(), bytes.size(), consumed, frame, error);
        EXPECT_EQ(status, DecodeStatus::Frame) << error;
        EXPECT_EQ(consumed, bytes.size());
        return frame;
    }

    std::vector<std::uint8_t>
    toBytes(std::string_view text)
    {
        return std::vector<std::uint8_t>(text.begin(), text.end());
    }
};

TEST_F(ServiceProtocolTest, BinaryQueryRoundTripsBitwise)
{
    Query query = busQuery(Scheme::Dragon, 37,
                           paramsAtLevel(Level::High));
    query.params.apl = 3.7000000000000002; // not representable exactly
    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, query);

    const RequestFrame frame = decodeOne(bytes);
    EXPECT_TRUE(frame.fieldError.empty()) << frame.fieldError;
    EXPECT_FALSE(frame.json);
    EXPECT_EQ(frame.kind, RequestKind::Query);
    EXPECT_EQ(frame.query.domain, query.domain);
    EXPECT_EQ(frame.query.scheme, query.scheme);
    EXPECT_EQ(frame.query.size, query.size);
    EXPECT_TRUE(sameBits(frame.query.params.apl, query.params.apl));
    EXPECT_TRUE(sameBits(frame.query.params.shd, query.params.shd));
    EXPECT_TRUE(sameBits(frame.query.params.nshd, query.params.nshd));
}

TEST_F(ServiceProtocolTest, JsonQueryRoundTripsBitwise)
{
    // formatDouble() emits shortest round-trip decimals, so parsing
    // the JSON form must land on the exact same bits.
    Query query = networkQuery(Scheme::SoftwareFlush, 9,
                               paramsAtLevel(Level::Low));
    query.params.msdat = 0.1; // classic non-dyadic decimal
    const std::vector<std::uint8_t> bytes =
        toBytes(queryToJson(query) + "\n");

    const RequestFrame frame = decodeOne(bytes);
    EXPECT_TRUE(frame.fieldError.empty()) << frame.fieldError;
    EXPECT_TRUE(frame.json);
    EXPECT_EQ(frame.query.domain, query.domain);
    EXPECT_EQ(frame.query.scheme, query.scheme);
    EXPECT_EQ(frame.query.size, query.size);
    EXPECT_TRUE(
        sameBits(frame.query.params.msdat, query.params.msdat));
    EXPECT_TRUE(sameBits(frame.query.params.ls, query.params.ls));
    EXPECT_TRUE(
        sameBits(frame.query.params.oclean, query.params.oclean));
}

TEST_F(ServiceProtocolTest, BusResponseRoundTripsBitwise)
{
    QueryResult result;
    result.ok = true;
    result.domain = QueryDomain::Bus;
    result.bus = evaluateBus(Scheme::Base, middleParams(), 13);
    for (const bool json : {false, true}) {
        SCOPED_TRACE(json ? "json" : "binary");
        std::vector<std::uint8_t> bytes;
        appendQueryResponse(bytes, result, json);
        ResponseFrame frame;
        std::string error;
        std::size_t consumed = 0;
        ASSERT_EQ(decodeResponse(bytes.data(), bytes.size(), consumed,
                                 frame, error),
                  DecodeStatus::Frame)
            << error;
        EXPECT_EQ(consumed, bytes.size());
        ASSERT_TRUE(frame.isQueryResult);
        EXPECT_EQ(frame.status, ResponseStatus::Ok);
        expectIdentical(frame.bus, result.bus);
    }
}

TEST_F(ServiceProtocolTest, NetworkResponseRoundTripsBitwise)
{
    QueryResult result;
    result.ok = true;
    result.domain = QueryDomain::Network;
    result.network =
        evaluateNetwork(Scheme::SoftwareFlush, middleParams(), 7);
    for (const bool json : {false, true}) {
        SCOPED_TRACE(json ? "json" : "binary");
        std::vector<std::uint8_t> bytes;
        appendQueryResponse(bytes, result, json);
        ResponseFrame frame;
        std::string error;
        std::size_t consumed = 0;
        ASSERT_EQ(decodeResponse(bytes.data(), bytes.size(), consumed,
                                 frame, error),
                  DecodeStatus::Frame)
            << error;
        ASSERT_TRUE(frame.isQueryResult);
        expectIdentical(frame.network, result.network);
    }
}

TEST_F(ServiceProtocolTest, OutOfRangeSizesInJsonResponsesAreBadFrames)
{
    QueryResult bus;
    bus.ok = true;
    bus.domain = QueryDomain::Bus;
    bus.bus = evaluateBus(Scheme::Base, middleParams(), 13);
    QueryResult network;
    network.ok = true;
    network.domain = QueryDomain::Network;
    network.network =
        evaluateNetwork(Scheme::SoftwareFlush, middleParams(), 7);

    const auto json_of = [](const QueryResult &result) {
        std::vector<std::uint8_t> bytes;
        appendQueryResponse(bytes, result, true);
        return std::string(bytes.begin(), bytes.end());
    };
    const auto decode = [](const std::string &line, ResponseFrame &frame,
                           std::string &error) {
        std::size_t consumed = 0;
        return decodeResponse(
            reinterpret_cast<const std::uint8_t *>(line.data()),
            line.size(), consumed, frame, error);
    };
    // Replaces the number after "key": in @p line with @p value.
    const auto with_field = [](std::string line, const std::string &key,
                               const std::string &value) {
        const std::string tag = "\"" + key + "\":";
        const std::size_t at = line.find(tag);
        if (at == std::string::npos) {
            ADD_FAILURE() << "no " << key << " in " << line;
            return line;
        }
        const std::size_t begin = at + tag.size();
        const std::size_t end = line.find_first_of(",}", begin);
        return line.replace(begin, end - begin, value);
    };

    struct Field
    {
        const QueryResult *result;
        const char *key;
    };
    for (const Field field : {Field{&bus, "processors"},
                              Field{&network, "stages"},
                              Field{&network, "processors"}}) {
        const std::string valid = json_of(*field.result);
        for (const char *value : {"-1", "2.5", "1e10", "4294967296"}) {
            SCOPED_TRACE(std::string(field.key) + " = " + value);
            ResponseFrame frame;
            std::string error;
            EXPECT_EQ(decode(with_field(valid, field.key, value), frame,
                             error),
                      DecodeStatus::BadFrame);
            EXPECT_NE(error.find(field.key), std::string::npos) << error;
        }
    }

    // The largest size still decodes, and untouched responses still
    // round-trip bitwise.
    ResponseFrame frame;
    std::string error;
    ASSERT_EQ(decode(with_field(json_of(bus), "processors", "4294967295"),
                     frame, error),
              DecodeStatus::Frame)
        << error;
    EXPECT_EQ(frame.bus.processors, 4294967295u);
    ASSERT_EQ(decode(json_of(bus), frame, error), DecodeStatus::Frame)
        << error;
    expectIdentical(frame.bus, bus.bus);
    ASSERT_EQ(decode(json_of(network), frame, error), DecodeStatus::Frame)
        << error;
    expectIdentical(frame.network, network.network);
}

TEST_F(ServiceProtocolTest, ErrorResponseRoundTrips)
{
    QueryResult result;
    result.error = "machine size must be at least 1";
    for (const bool json : {false, true}) {
        SCOPED_TRACE(json ? "json" : "binary");
        std::vector<std::uint8_t> bytes;
        appendQueryResponse(bytes, result, json);
        ResponseFrame frame;
        std::string error;
        std::size_t consumed = 0;
        ASSERT_EQ(decodeResponse(bytes.data(), bytes.size(), consumed,
                                 frame, error),
                  DecodeStatus::Frame)
            << error;
        EXPECT_FALSE(frame.isQueryResult);
        EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
        EXPECT_EQ(frame.text, result.error);
    }
}

TEST_F(ServiceProtocolTest, FixedFramesEncodeToLiteralBytes)
{
    // The wire format itself, not just its round trip: an encoder and
    // decoder that drifted together would still round-trip. Header:
    // magic, version 1, kind or status, payload type, u32 LE length;
    // every field little-endian, every double by IEEE-754 bits.
    Query query = busQuery(Scheme::Mesi, 300);
    query.params.ls = 0.5;
    query.params.msdat = 0.25;
    query.params.mains = 0.125;
    query.params.md = 0.75;
    query.params.shd = 1.0;
    query.params.wr = 1.5;
    query.params.apl = 2.0;
    query.params.mdshd = 3.0;
    query.params.oclean = 4.0;
    query.params.opres = 0.1;
    query.params.nshd = 8.0;
    const std::vector<std::uint8_t> query_bytes = {
        0xc5, 0x01, 0x00, 0x00, 0x60, 0x00, 0x00, 0x00, // query, 96 B
        0x00, 0x04, 0x00, 0x00, 0x2c, 0x01, 0x00, 0x00, // bus, mesi, 300
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // ls 0.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, // msdat 0.25
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, // mains 0.125
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, // md 0.75
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // shd 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // wr 1.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // apl 2
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, // mdshd 3
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40, // oclean 4
        0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f, // opres 0.1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40, // nshd 8
    };

    QueryResult bus;
    bus.ok = true;
    bus.domain = QueryDomain::Bus;
    bus.bus.processors = 16;
    bus.bus.cpu = 1.0;
    bus.bus.bus = 2.0;
    bus.bus.waiting = 0.5;
    bus.bus.busUtilization = 0.25;
    bus.bus.busQueueLength = 3.0;
    bus.bus.processorUtilization = 0.125;
    bus.bus.processingPower = 10.0;
    const std::vector<std::uint8_t> bus_bytes = {
        0xc6, 0x01, 0x00, 0x01, 0x40, 0x00, 0x00, 0x00, // ok, bus, 64 B
        0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, // bus, 16 cpus
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // cpu 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // bus 2
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // waiting 0.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, // busUtilization
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, // busQueueLength
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, // processorUtil.
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x40, // power 10
    };

    QueryResult network;
    network.ok = true;
    network.domain = QueryDomain::Network;
    network.network.stages = 6;
    network.network.processors = 64;
    network.network.cpu = 1.0;
    network.network.network = 2.0;
    network.network.transactionRate = 0.5;
    network.network.unitRequestRate = 0.25;
    network.network.computeFraction = 0.75;
    network.network.inputLoad = 0.125;
    network.network.acceptance = 1.5;
    network.network.cyclesPerInstruction = 3.0;
    network.network.waiting = 4.0;
    network.network.processorUtilization = 0.0625;
    network.network.processingPower = 32.0;
    const std::vector<std::uint8_t> network_bytes = {
        0xc6, 0x01, 0x00, 0x02, 0x68, 0x00, 0x00, 0x00, // ok, net, 104 B
        0x01, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, // network, 6 st.
        0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 64 cpus, pad
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // cpu 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // network 2
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // transactionRate
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, // unitRequestRate
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, // computeFraction
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, // inputLoad
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // acceptance
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, // cycles/instr.
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40, // waiting 4
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xb0, 0x3f, // processorUtil.
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x40, // power 32
    };

    QueryResult failed;
    failed.error = "bad n";
    const std::vector<std::uint8_t> error_bytes = {
        0xc6, 0x01, 0x01, 0x00, 0x05, 0x00, 0x00, 0x00, // bad req, text
        'b', 'a', 'd', ' ', 'n',
    };

    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, query);
    EXPECT_EQ(bytes, query_bytes);
    bytes.clear();
    appendQueryResponse(bytes, bus, false);
    EXPECT_EQ(bytes, bus_bytes);
    bytes.clear();
    appendQueryResponse(bytes, network, false);
    EXPECT_EQ(bytes, network_bytes);
    bytes.clear();
    appendQueryResponse(bytes, failed, false);
    EXPECT_EQ(bytes, error_bytes);

    // Appending never disturbs what the buffer already holds.
    appendQueryRequest(bytes, query);
    std::vector<std::uint8_t> expected = error_bytes;
    expected.insert(expected.end(), query_bytes.begin(),
                    query_bytes.end());
    EXPECT_EQ(bytes, expected);
}

TEST_F(ServiceProtocolTest, ControlRequestsRoundTrip)
{
    for (const RequestKind kind :
         {RequestKind::Ping, RequestKind::Scrape}) {
        std::vector<std::uint8_t> bytes;
        appendControlRequest(bytes, kind);
        const RequestFrame frame = decodeOne(bytes);
        EXPECT_EQ(frame.kind, kind);
        EXPECT_TRUE(frame.fieldError.empty());
    }
}

TEST_F(ServiceProtocolTest, EverySchemeRoundTripsOnBothEncodings)
{
    // Binary frames carry the enum value, JSON frames the name token;
    // both must survive the round trip for every scheme, including
    // the invalidate family and the hybrid.
    for (Scheme scheme : kAllSchemes) {
        std::vector<std::uint8_t> bytes;
        appendQueryRequest(bytes, busQuery(scheme, 8));
        EXPECT_EQ(decodeOne(bytes).query.scheme, scheme)
            << "binary " << schemeName(scheme);

        const RequestFrame frame = decodeOne(
            toBytes(queryToJson(busQuery(scheme, 8)) + "\n"));
        EXPECT_TRUE(frame.fieldError.empty()) << frame.fieldError;
        EXPECT_EQ(frame.query.scheme, scheme)
            << "json " << schemeName(scheme);
    }
}

TEST_F(ServiceProtocolTest, UnknownSchemeTokenIsAFieldError)
{
    const RequestFrame frame = decodeOne(toBytes(
        "{\"domain\":\"bus\",\"scheme\":\"mosi\",\"cpus\":4}\n"));
    EXPECT_NE(frame.fieldError.find("unknown scheme"),
              std::string::npos);
}

TEST_F(ServiceProtocolTest, TruncatedFramesAskForMoreBytes)
{
    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
    // Every proper prefix must decode to NeedMore, never a frame and
    // never an error (a slow sender is not a protocol violation).
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        RequestFrame frame;
        std::string error;
        std::size_t consumed = 0;
        EXPECT_EQ(decodeRequest(bytes.data(), cut, consumed, frame,
                                error),
                  DecodeStatus::NeedMore)
            << "prefix of " << cut << " bytes";
    }
}

TEST_F(ServiceProtocolTest, OversizedLengthPrefixIsAFramingError)
{
    // Header claims a 2 GiB payload: must be rejected from the header
    // alone, without waiting for (or allocating) the claimed bytes.
    std::vector<std::uint8_t> bytes = {kRequestMagic,
                                       kProtocolVersion,
                                       0,
                                       0,
                                       0x00,
                                       0x00,
                                       0x00,
                                       0x80};
    RequestFrame frame;
    std::string error;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeRequest(bytes.data(), bytes.size(), consumed,
                            frame, error),
              DecodeStatus::BadFrame);
    EXPECT_NE(error.find("length prefix"), std::string::npos);
}

TEST_F(ServiceProtocolTest, BadMagicAndBadVersionAreFramingErrors)
{
    RequestFrame frame;
    std::string error;
    std::size_t consumed = 0;
    const std::vector<std::uint8_t> garbage =
        toBytes("GET / HTTP/1.1\r\n");
    EXPECT_EQ(decodeRequest(garbage.data(), garbage.size(), consumed,
                            frame, error),
              DecodeStatus::BadFrame);

    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
    bytes[1] = 99; // future protocol version
    EXPECT_EQ(decodeRequest(bytes.data(), bytes.size(), consumed,
                            frame, error),
              DecodeStatus::BadFrame);
    EXPECT_NE(error.find("version"), std::string::npos);
}

TEST_F(ServiceProtocolTest, WrongPayloadSizeIsARecoverableFieldError)
{
    // Framing intact (honest length prefix) but the query payload is
    // short: the connection survives, the request gets an error.
    std::vector<std::uint8_t> bytes = {
        kRequestMagic, kProtocolVersion, 0, 0, 16, 0, 0, 0};
    bytes.resize(bytes.size() + 16, 0);
    const RequestFrame frame = decodeOne(bytes);
    EXPECT_NE(frame.fieldError.find("96 bytes"), std::string::npos);
}

TEST_F(ServiceProtocolTest, UnknownEnumBytesAreRecoverableFieldErrors)
{
    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
    bytes[kFrameHeader + 0] = 7; // domain byte
    EXPECT_EQ(decodeOne(bytes).fieldError, "unknown query domain");

    bytes.clear();
    appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
    bytes[kFrameHeader + 1] = 250; // scheme byte
    EXPECT_EQ(decodeOne(bytes).fieldError, "unknown scheme");
}

TEST_F(ServiceProtocolTest, NaNAndInfParamsAreCaughtByValidation)
{
    // The wire accepts any IEEE-754 bit pattern; admission control is
    // the kernel's job. The decoded query must carry the exact NaN
    // payload through so validate() can name the offending field.
    Query query = busQuery(Scheme::Base, 4);
    query.params.oclean = std::numeric_limits<double>::quiet_NaN();
    query.params.opres = -std::numeric_limits<double>::infinity();
    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, query);

    const RequestFrame frame = decodeOne(bytes);
    EXPECT_TRUE(frame.fieldError.empty());
    EXPECT_TRUE(std::isnan(frame.query.params.oclean));
    EXPECT_TRUE(std::isinf(frame.query.params.opres));
    const ServiceKernel kernel;
    EXPECT_NE(kernel.validate(frame.query).find("oclean"),
              std::string::npos);
}

TEST_F(ServiceProtocolTest, MalformedJsonIsARecoverableFieldError)
{
    for (const char *line :
         {"{not json at all\n", "{\"domain\":\"warp\",\"cpus\":4}\n",
          "{\"cpus\":true}\n", "{\"bogus\":1,\"cpus\":4}\n",
          "{\"domain\":\"bus\"}\n",
          "{\"params\":{\"zz\":1},\"cpus\":4}\n"}) {
        SCOPED_TRACE(line);
        const std::vector<std::uint8_t> bytes = toBytes(line);
        const RequestFrame frame = decodeOne(bytes);
        EXPECT_TRUE(frame.json);
        EXPECT_FALSE(frame.fieldError.empty());
    }
}

TEST_F(ServiceProtocolTest, OverlongJsonLineIsAFramingError)
{
    std::string line = "{\"cpus\":4,\"pad\":\"";
    line.append(kMaxJsonLine, 'x'); // no newline in the first 8 KiB
    const std::vector<std::uint8_t> bytes = toBytes(line);
    RequestFrame frame;
    std::string error;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeRequest(bytes.data(), bytes.size(), consumed,
                            frame, error),
              DecodeStatus::BadFrame);
    EXPECT_NE(error.find("exceeds"), std::string::npos);
}

TEST_F(ServiceProtocolTest, PipelinedFramesDecodeOneAtATime)
{
    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
    const std::string line = "{\"cpus\":8,\"scheme\":\"dragon\"}\n";
    bytes.insert(bytes.end(), line.begin(), line.end());
    appendControlRequest(bytes, RequestKind::Ping);

    std::size_t offset = 0;
    std::vector<RequestFrame> frames;
    while (offset < bytes.size()) {
        RequestFrame frame;
        std::string error;
        std::size_t consumed = 0;
        ASSERT_EQ(decodeRequest(bytes.data() + offset,
                                bytes.size() - offset, consumed,
                                frame, error),
                  DecodeStatus::Frame)
            << error;
        offset += consumed;
        frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].kind, RequestKind::Query);
    EXPECT_FALSE(frames[0].json);
    EXPECT_EQ(frames[1].query.scheme, Scheme::Dragon);
    EXPECT_TRUE(frames[1].json);
    EXPECT_EQ(frames[2].kind, RequestKind::Ping);
}

// ---------------------------------------------------------------------
// Fuzzing: seeded mutants of valid frames through both decoders.

using Bytes = std::vector<std::uint8_t>;

/**
 * One seeded edit: a bit flip, an inserted or deleted run, a cut, or a
 * binary length prefix of 0, the limit, one past it, or 0xffffffff.
 */
void
mutateFrame(Bytes &bytes, Rng &rng)
{
    const auto at = [&](std::size_t slack) {
        return bytes.begin() + static_cast<std::ptrdiff_t>(
                                   rng.below(bytes.size() + slack));
    };
    const auto run = static_cast<std::ptrdiff_t>(1 + rng.below(4));
    switch (rng.below(5)) {
      case 0:
        if (!bytes.empty()) {
            *at(0) ^= static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      case 1:
        bytes.insert(at(1), static_cast<std::size_t>(run),
                     static_cast<std::uint8_t>(rng.below(256)));
        break;
      case 2: {
        const auto pos = at(1);
        bytes.erase(pos, pos + std::min(run, bytes.end() - pos));
        break;
      }
      case 3:
        bytes.erase(at(1), bytes.end());
        break;
      default:
        if (bytes.size() >= kFrameHeader && bytes[0] != '{') {
            const std::uint32_t length = std::array<std::uint32_t, 4>{
                0, kMaxRequestPayload, kMaxRequestPayload + 1,
                0xffffffffu}[rng.below(4)];
            for (std::size_t i = 0; i < 4; ++i) {
                bytes[4 + i] = static_cast<std::uint8_t>(length >> 8 * i);
            }
        }
        break;
    }
}

/**
 * Decodes 4,000 seeded mutants of @p seeds: each asks for more bytes,
 * is a framing error, or is a frame no longer than itself that
 * @p onFrame checks further. Frames and non-frames must both be common.
 */
template <typename Frame, typename OnFrame>
void
fuzzFrames(DecodeStatus (*decode)(const std::uint8_t *, std::size_t,
                                  std::size_t &, Frame &, std::string &),
           const std::vector<Bytes> &seeds, std::uint64_t seed,
           OnFrame &&onFrame)
{
    constexpr int kMutants = 4'000;
    const Rng root(seed);
    int frames = 0;
    for (int m = 0; m < kMutants && !::testing::Test::HasFailure(); ++m) {
        SCOPED_TRACE("mutant " + std::to_string(m));
        Rng rng = root.split(static_cast<std::uint64_t>(m));
        Bytes bytes = seeds[rng.below(seeds.size())];
        for (std::uint64_t edits = 1 + rng.below(4); edits > 0; --edits) {
            mutateFrame(bytes, rng);
        }
        Frame frame;
        std::size_t consumed = 0;
        std::string error;
        if (decode(bytes.data(), bytes.size(), consumed, frame, error) ==
            DecodeStatus::Frame) {
            ++frames;
            EXPECT_GT(consumed, 0u);
            EXPECT_LE(consumed, bytes.size());
            onFrame(frame);
        }
    }
    EXPECT_GT(frames, kMutants / 10);
    EXPECT_LT(frames, kMutants - kMutants / 10);
}

/** Binary bytes of a request frame without a field error. */
Bytes
encodeRequest(const RequestFrame &frame)
{
    Bytes bytes;
    if (frame.kind == RequestKind::Query) {
        appendQueryRequest(bytes, frame.query);
    } else {
        appendControlRequest(bytes, frame.kind);
    }
    return bytes;
}

/**
 * A request without a field error re-encodes and decodes to the same
 * bits: binary frames carry every field bit for bit.
 */
void
expectRoundTrip(const RequestFrame &frame)
{
    if (!frame.fieldError.empty()) {
        return;
    }
    const Bytes bytes = encodeRequest(frame);
    RequestFrame again;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(decodeRequest(bytes.data(), bytes.size(), consumed, again,
                            error),
              DecodeStatus::Frame);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(again.fieldError, "");
    EXPECT_EQ(encodeRequest(again), bytes);
}

TEST(ServiceFuzzTest, BinaryRequestMutantsAreRejectedOrRoundTrip)
{
    std::vector<Bytes> seeds(3);
    appendQueryRequest(seeds[0], busQuery(Scheme::Dragon, 16));
    appendQueryRequest(seeds[1], networkQuery(Scheme::SoftwareFlush, 6));
    appendControlRequest(seeds[2], RequestKind::Scrape);
    fuzzFrames(decodeRequest, seeds, 0x5e, expectRoundTrip);
}

TEST(ServiceFuzzTest, JsonRequestMutantsAreRejectedOrRoundTrip)
{
    std::vector<Bytes> seeds;
    for (const std::string &line :
         {queryToJson(busQuery(Scheme::Mesi, 8)),
          queryToJson(networkQuery(Scheme::SoftwareFlush, 6)),
          std::string("{\"cmd\":\"ping\"}")}) {
        seeds.emplace_back(line.begin(), line.end()).push_back('\n');
    }
    fuzzFrames(decodeRequest, seeds, 0x15, expectRoundTrip);
}

TEST(ServiceFuzzTest, ResponseMutantsAreRejectedOrBounded)
{
    const ServiceKernel kernel;
    const QueryResult failed{false, "unknown scheme", {}, {}, {}};
    std::vector<Bytes> seeds;
    for (const bool json : {false, true}) {
        for (const QueryResult &result :
             {kernel.evaluate(busQuery(Scheme::Dragon, 16)),
              kernel.evaluate(networkQuery(Scheme::SoftwareFlush, 6)),
              failed}) {
            appendQueryResponse(seeds.emplace_back(), result, json);
        }
    }
    fuzzFrames(decodeResponse, seeds, 0x5f, [](const ResponseFrame &) {});
}

} // namespace
} // namespace swcc::service
