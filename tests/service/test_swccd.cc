/**
 * @file
 * End-to-end tests for the swccd daemon: lifecycle, the scrape
 * endpoint, graceful drain of in-flight requests, protocol
 * robustness against hostile clients (oversized length prefixes,
 * truncated frames, mid-request disconnects, garbage bytes), and the
 * concurrent-client gate — N client threads hammering one daemon must
 * each get answers bitwise identical to a direct ServiceKernel
 * evaluation (the suite name starts with "ServiceParallel" so the
 * tsan preset exercises the full acceptor/worker/connection weave).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/types.hh"
#include "core/workload.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/service_kernel.hh"

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
expectIdentical(const QueryResult &got, const QueryResult &want)
{
    ASSERT_EQ(got.ok, want.ok) << got.error;
    if (!got.ok) {
        EXPECT_EQ(got.error, want.error);
        return;
    }
    ASSERT_EQ(got.domain, want.domain);
    if (got.domain == QueryDomain::Bus) {
        EXPECT_EQ(got.bus.processors, want.bus.processors);
        EXPECT_TRUE(sameBits(got.bus.cpu, want.bus.cpu));
        EXPECT_TRUE(sameBits(got.bus.bus, want.bus.bus));
        EXPECT_TRUE(sameBits(got.bus.waiting, want.bus.waiting));
        EXPECT_TRUE(sameBits(got.bus.busUtilization,
                             want.bus.busUtilization));
        EXPECT_TRUE(sameBits(got.bus.busQueueLength,
                             want.bus.busQueueLength));
        EXPECT_TRUE(sameBits(got.bus.processorUtilization,
                             want.bus.processorUtilization));
        EXPECT_TRUE(sameBits(got.bus.processingPower,
                             want.bus.processingPower));
    } else {
        EXPECT_EQ(got.network.stages, want.network.stages);
        EXPECT_EQ(got.network.processors, want.network.processors);
        EXPECT_TRUE(sameBits(got.network.cpu, want.network.cpu));
        EXPECT_TRUE(
            sameBits(got.network.network, want.network.network));
        EXPECT_TRUE(sameBits(got.network.acceptance,
                             want.network.acceptance));
        EXPECT_TRUE(sameBits(got.network.cyclesPerInstruction,
                             want.network.cyclesPerInstruction));
        EXPECT_TRUE(sameBits(got.network.processingPower,
                             want.network.processingPower));
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
networkQuery(Scheme scheme, unsigned stages)
{
    Query query;
    query.domain = QueryDomain::Network;
    query.scheme = scheme;
    query.size = stages;
    query.params = middleParams();
    return query;
}

/** One daemon on a unique socket path, torn down with the test. */
class DaemonFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        static std::atomic<unsigned> counter{0};
        socket_ = "/tmp/swccd-test-" + std::to_string(::getpid()) +
            "-" + std::to_string(counter.fetch_add(1)) + ".sock";
    }

    void
    TearDown() override
    {
        daemon_.reset();
    }

    void
    startDaemon(unsigned workers = 2, unsigned batchMax = 16)
    {
        DaemonConfig config;
        config.socketPath = socket_;
        config.workers = workers;
        config.batchMax = batchMax;
        daemon_ = std::make_unique<ServiceDaemon>(config);
        daemon_->start();
        ASSERT_TRUE(ServiceClient::waitForServer(socket_, 5000));
    }

    std::string socket_;
    std::unique_ptr<ServiceDaemon> daemon_;
};

using ServiceDaemonTest = DaemonFixture;

TEST_F(ServiceDaemonTest, StartsServesAndStopsCleanly)
{
    startDaemon();
    EXPECT_TRUE(daemon_->running());
    {
        ServiceClient client;
        client.connect(socket_);
        EXPECT_EQ(client.ping(), "pong");
    }
    daemon_->stop();
    EXPECT_FALSE(daemon_->running());
    // The socket file is unlinked on shutdown.
    EXPECT_NE(::access(socket_.c_str(), F_OK), 0);
}

TEST_F(ServiceDaemonTest, RejectsThreadCountsPastTheBound)
{
    // Each worker and each admitted connection is a thread: both are
    // refused past kMaxThreads before anything is allocated or started.
    const auto expect_rejected = [](const DaemonConfig &config) {
        try {
            ServiceDaemon daemon(config);
            ADD_FAILURE() << "constructed past the bound";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::to_string(kMaxThreads)),
                      std::string::npos)
                << e.what();
        }
    };
    DaemonConfig workers;
    workers.socketPath = socket_;
    workers.workers = kMaxThreads + 1;
    expect_rejected(workers);

    DaemonConfig connections;
    connections.socketPath = socket_;
    connections.maxConnections = kMaxThreads + 1;
    expect_rejected(connections);
}

TEST_F(ServiceDaemonTest, AnswersQueriesBitwiseIdenticalToTheKernel)
{
    startDaemon();
    const ServiceKernel kernel;
    ServiceClient client;
    client.connect(socket_);
    for (Scheme scheme : kAllSchemes) {
        const Query query = busQuery(scheme, 24);
        expectIdentical(client.query(query), kernel.evaluate(query));
    }
    const Query query = networkQuery(Scheme::SoftwareFlush, 6);
    expectIdentical(client.query(query), kernel.evaluate(query));
}

TEST_F(ServiceDaemonTest, JsonDialectIsBitwiseIdenticalToo)
{
    startDaemon();
    const ServiceKernel kernel;
    ServiceClient client;
    client.connect(socket_);
    client.useJson(true);
    EXPECT_EQ(client.ping(), "{\"ok\":true,\"pong\":true}");
    const Query query = busQuery(Scheme::Dragon, 17);
    expectIdentical(client.query(query), kernel.evaluate(query));
}

/** The value of the sample line `<name> <value>` in exposition text. */
double
promValue(const std::string &text, const std::string &name)
{
    const std::string padded = "\n" + text;
    const std::string needle = "\n" + name + " ";
    const std::size_t at = padded.find(needle);
    if (at == std::string::npos) {
        ADD_FAILURE() << "sample '" << name << "' not in scrape:\n"
                      << text;
        return -1.0;
    }
    return std::stod(padded.substr(at + needle.size()));
}

/**
 * Workers record telemetry *after* flushing completions (off the
 * latency path), so a scrape racing the response can read stale
 * counts. Polls until @p name reaches @p target (or ~2s pass) and
 * returns the last scrape; the caller's assertions then report any
 * real discrepancy.
 */
std::string
scrapeUntilAtLeast(ServiceClient &client, const std::string &name,
                   double target)
{
    std::string scrape;
    for (int i = 0; i < 400; ++i) {
        scrape = client.scrape();
        const std::string padded = "\n" + scrape;
        const std::string needle = "\n" + name + " ";
        const std::size_t at = padded.find(needle);
        if (at != std::string::npos &&
            std::stod(padded.substr(at + needle.size())) >= target) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return scrape;
}

TEST_F(ServiceDaemonTest, ScrapeReportsDaemonAndSolverCounters)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    (void)client.query(busQuery(Scheme::Base, 4));
    (void)client.query(busQuery(Scheme::Base, 4)); // solved again

    // The query and batch counters are bumped before a response is
    // sent, so the scrape already holds both queries, and each query,
    // alone in its batch, made its own bus solve.
    const std::string scrape = client.scrape();
    EXPECT_EQ(promValue(scrape, "service_queries_total"), 2.0);
    EXPECT_EQ(promValue(scrape, "service_batches_total"), 2.0);
    // waitForServer() probes with a bare connect, which the acceptor
    // may or may not have picked up before it closed again.
    EXPECT_GE(promValue(scrape, "service_connections_accepted_total"),
              1.0);
    EXPECT_EQ(promValue(scrape, "service_protocol_errors_total"), 0.0);
    EXPECT_GE(promValue(scrape, "solver_bus_solves_total"), 2.0);
    EXPECT_EQ(scrape.find("solver_cache"), std::string::npos) << scrape;
}

TEST_F(ServiceDaemonTest, ValidationErrorsKeepTheConnectionAlive)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);

    const QueryResult bad = client.query(busQuery(Scheme::Base, 0));
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());

    const QueryResult oversized =
        client.query(busQuery(Scheme::Base, 100000));
    EXPECT_FALSE(oversized.ok);
    EXPECT_NE(oversized.error.find("exceeds limit"),
              std::string::npos);

    // Same connection still answers good queries afterwards.
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
    EXPECT_GE(promValue(daemon_->scrapeText(),
                        "service_validation_errors_total"),
              2.0);
}

TEST_F(ServiceDaemonTest, DrainAnswersEveryInFlightRequest)
{
    startDaemon(2, 8);
    ServiceClient client;
    client.connect(socket_);
    // connect() only queues us in the listen backlog; the drain
    // contract covers *accepted* requests, so prove the connection
    // thread is live before racing the pipeline against the stop.
    ASSERT_EQ(client.ping(), "pong");
    constexpr unsigned kInFlight = 64;
    for (unsigned i = 0; i < kInFlight; ++i) {
        client.sendQuery(busQuery(Scheme::Dragon, 1 + i % 96));
    }
    // Stop with the pipeline full: every accepted request must still
    // be answered, in order, before the daemon tears down.
    daemon_->requestStop();
    const ServiceKernel kernel;
    for (unsigned i = 0; i < kInFlight; ++i) {
        const QueryResult got = client.recvResult();
        expectIdentical(got,
                        kernel.evaluate(
                            busQuery(Scheme::Dragon, 1 + i % 96)));
    }
    daemon_->stop();
}

TEST_F(ServiceDaemonTest, OversizedLengthPrefixGetsErrorThenClose)
{
    startDaemon();
    ServiceClient attacker;
    attacker.connect(socket_);
    // Claims a 512 MiB payload; the daemon must answer with a framing
    // error and close, never waiting for the claimed bytes.
    const std::uint8_t evil[8] = {kRequestMagic, kProtocolVersion,
                                  0,             0,
                                  0x00,          0x00,
                                  0x00,          0x20};
    attacker.sendRaw(evil, sizeof evil);
    const ResponseFrame frame = attacker.recvResponse();
    EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
    EXPECT_NE(frame.text.find("length prefix"), std::string::npos);
    // The daemon closed the connection after the error.
    EXPECT_THROW((void)attacker.recvResponse(), std::runtime_error);

    // And it keeps serving everyone else.
    ServiceClient client;
    client.connect(socket_);
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
    EXPECT_GE(promValue(daemon_->scrapeText(),
                        "service_protocol_errors_total"),
              1.0);
}

TEST_F(ServiceDaemonTest, GarbageBytesGetErrorThenClose)
{
    startDaemon();
    ServiceClient attacker;
    attacker.connect(socket_);
    const char garbage[] = "GET / HTTP/1.1\r\nHost: swccd\r\n\r\n";
    attacker.sendRaw(garbage, sizeof garbage - 1);
    const ResponseFrame frame = attacker.recvResponse();
    EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
    EXPECT_THROW((void)attacker.recvResponse(), std::runtime_error);

    ServiceClient client;
    client.connect(socket_);
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
}

TEST_F(ServiceDaemonTest, MidFrameDisconnectDoesNotWedgeTheDaemon)
{
    startDaemon();
    {
        // Send half a query frame, then vanish.
        ServiceClient half;
        half.connect(socket_);
        std::vector<std::uint8_t> bytes;
        appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
        half.sendRaw(bytes.data(), bytes.size() / 2);
    }
    {
        // Send a valid pipelined burst and vanish without reading the
        // responses; the daemon must absorb the EPIPE quietly.
        ServiceClient rude;
        rude.connect(socket_);
        for (int i = 0; i < 8; ++i) {
            rude.sendQuery(busQuery(Scheme::Dragon, 32));
        }
    }
    ServiceClient client;
    client.connect(socket_);
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
    daemon_->stop();
}

TEST_F(ServiceDaemonTest, RecoverableFieldErrorsKeepTheConnection)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    // An intact frame with an unknown scheme byte: answered with an
    // error, connection stays.
    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
    bytes[8 + 1] = 200; // scheme byte inside the payload
    client.sendRaw(bytes.data(), bytes.size());
    const ResponseFrame frame = client.recvResponse();
    EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
    EXPECT_EQ(frame.text, "unknown scheme");
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
}

TEST_F(ServiceDaemonTest, BinaryKindOneIsAnUnknownRequestKind)
{
    // Kind 1 is retired (the scrape is the one stats surface): a
    // field error that keeps the connection.
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    const std::uint8_t kindOne[8] = {kRequestMagic, kProtocolVersion,
                                     1, 0, 0, 0, 0, 0};
    client.sendRaw(kindOne, sizeof kindOne);
    const ResponseFrame frame = client.recvResponse();
    EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
    EXPECT_EQ(frame.text, "unknown request kind 1");
    EXPECT_EQ(client.ping(), "pong");
}

TEST_F(ServiceDaemonTest, JsonStatsCommandIsAnUnknownCmd)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    client.useJson(true);
    const std::string line = "{\"cmd\":\"stats\"}\n";
    client.sendRaw(line.data(), line.size());
    const ResponseFrame frame = client.recvResponse();
    EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
    EXPECT_EQ(frame.text,
              "unknown cmd \"stats\" (expected ping or scrape)");
    EXPECT_NE(client.ping().find("\"pong\":true"), std::string::npos);
}

TEST_F(ServiceDaemonTest, ScrapeEndpointServesPrometheusText)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    for (unsigned i = 0; i < 8; ++i) {
        client.sendQuery(busQuery(Scheme::Base, 4 + i));
    }
    for (unsigned i = 0; i < 8; ++i) {
        ASSERT_TRUE(client.recvResult().ok);
    }
    // The eight may be answered as one group, one curve solve; a lone
    // query of another workload is a group of one size, a point solve.
    ASSERT_TRUE(
        client.query(busQuery(Scheme::Moesi, 6, paramsAtLevel(Level::High)))
            .ok);

    const std::string scrape =
        scrapeUntilAtLeast(client, "service_request_us_count", 9.0);
    EXPECT_NE(scrape.find("# TYPE service_queries_total counter\n"),
              std::string::npos)
        << scrape;
    EXPECT_NE(scrape.find("# TYPE service_inflight gauge\n"),
              std::string::npos);
    EXPECT_NE(scrape.find("# TYPE service_request_us histogram\n"),
              std::string::npos);
    EXPECT_GE(promValue(scrape, "service_queries_total"), 8.0);
    EXPECT_GE(promValue(scrape, "solver_bus_solves_total"), 2.0);
    EXPECT_GE(promValue(scrape, "service_request_us_count"), 8.0);
    EXPECT_GE(promValue(scrape, "service_batch_size_count"), 1.0);
    EXPECT_GE(promValue(scrape, "service_connections_active"), 1.0);
    EXPECT_EQ(promValue(scrape, "service_queue_depth"), 0.0);

    // The JSON dialect unwraps to the same exposition text.
    ServiceClient jsonClient;
    jsonClient.connect(socket_);
    jsonClient.useJson(true);
    const std::string viaJson = jsonClient.scrape();
    EXPECT_NE(viaJson.find("# TYPE service_inflight gauge\n"),
              std::string::npos)
        << viaJson;
    EXPECT_GE(promValue(viaJson, "service_queries_total"), 8.0);
}

TEST_F(ServiceDaemonTest, QueueWaitIsVisibleOnlyThroughTheDaemon)
{
    startDaemon(2, 16);
    ServiceClient client;
    client.connect(socket_);
    // Direct kernel evaluation never queues: whatever happens here
    // must leave the daemon's queue-wait histogram empty.
    const ServiceKernel kernel;
    for (unsigned i = 0; i < 8; ++i) {
        (void)kernel.evaluate(busQuery(Scheme::Base, 4 + i));
    }
    EXPECT_EQ(promValue(client.scrape(), "service_queue_wait_us_count"),
              0.0);

    // A pipelined burst through the daemon rides the MPMC queue, so
    // every query accrues a measurable (nonzero-count) queue wait.
    for (unsigned i = 0; i < 32; ++i) {
        client.sendQuery(busQuery(Scheme::Dragon, 1 + i % 64));
    }
    for (unsigned i = 0; i < 32; ++i) {
        ASSERT_TRUE(client.recvResult().ok);
    }
    const std::string scrape = scrapeUntilAtLeast(
        client, "service_queue_wait_us_count", 32.0);
    EXPECT_GE(promValue(scrape, "service_queue_wait_us_count"), 32.0);
}

TEST_F(ServiceDaemonTest, FlightRecorderDumpIsValidJson)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    (void)client.query(busQuery(Scheme::Base, 4));
    (void)client.query(networkQuery(Scheme::SoftwareFlush, 6));
    // Flight records land after the responses are flushed; wait for
    // the sampled gauge to show both before dumping.
    (void)scrapeUntilAtLeast(client, "service_flight_records", 2.0);

    const std::string path = daemon_->dumpFlightRecorder();
    EXPECT_EQ(path, socket_ + ".flight.json");
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();

    const obs::JsonValue doc = obs::parseJson(text.str());
    ASSERT_TRUE(doc.isObject());
    const obs::JsonValue *recorder = doc.find("flight_recorder");
    ASSERT_NE(recorder, nullptr);
    EXPECT_GE(recorder->find("capacity")->number, 16.0);
    EXPECT_GE(recorder->find("total_recorded")->number, 2.0);
    const obs::JsonValue *records = recorder->find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_TRUE(records->isArray());
    ASSERT_GE(records->array.size(), 2u);
    for (const obs::JsonValue &record : records->array) {
        EXPECT_GE(record.find("trace_id")->number, 1.0);
        EXPECT_GE(record.find("total_ns")->number, 0.0);
        EXPECT_GE(record.find("batch_size")->number, 1.0);
        EXPECT_FALSE(record.find("scheme")->string.empty());
        EXPECT_TRUE(record.find("ok")->boolean);
    }
    ::unlink(path.c_str());
}

TEST_F(ServiceDaemonTest, SlowQueryLogEmitsParseableJson)
{
    // Threshold of 1 µs: every completed query counts as slow.
    DaemonConfig config;
    config.socketPath = socket_;
    config.workers = 1;
    config.batchMax = 4;
    config.slowQueryUs = 1;
    daemon_ = std::make_unique<ServiceDaemon>(config);
    daemon_->start();
    ASSERT_TRUE(ServiceClient::waitForServer(socket_, 5000));

    std::ostringstream captured;
    const obs::LogLevel saved = obs::logLevel();
    obs::setLogSink(&captured);
    obs::setLogLevel(obs::LogLevel::Warn);
    std::string scrape;
    {
        ServiceClient client;
        client.connect(socket_);
        ASSERT_TRUE(client.query(busQuery(Scheme::Dragon, 24)).ok);
        scrape = client.scrape();
    }
    // The slow query's solve is on the scrape, not in the log line.
    EXPECT_GE(promValue(scrape, "solver_bus_solves_total"), 1.0);
    // The worker logs after completion is flushed; stopping joins the
    // workers, so the capture below cannot race their writes.
    daemon_->stop();
    obs::setLogSink(nullptr);
    obs::setLogLevel(saved);

    const std::string text = captured.str();
    const std::size_t at = text.find("{\"slow_query\"");
    ASSERT_NE(at, std::string::npos) << text;
    const std::size_t end = text.find('\n', at);
    const obs::JsonValue doc =
        obs::parseJson(text.substr(at, end - at));
    const obs::JsonValue *entry = doc.find("slow_query");
    ASSERT_NE(entry, nullptr);
    EXPECT_GE(entry->find("trace_id")->number, 1.0);
    EXPECT_EQ(entry->find("domain")->string, "bus");
    EXPECT_EQ(entry->find("scheme")->string, "Dragon");
    EXPECT_EQ(entry->find("size")->number, 24.0);
    EXPECT_GE(entry->find("queue_wait_us")->number, 0.0);
    EXPECT_GE(entry->find("solve_us")->number, 0.0);
    EXPECT_GE(entry->find("total_us")->number, 1.0);
    EXPECT_GE(entry->find("batch_size")->number, 1.0);
    EXPECT_EQ(entry->find("cache_misses"), nullptr);
}

TEST_F(ServiceDaemonTest, TracedRunEmitsConnectedFlowAcrossThreads)
{
    obs::TraceRecorder &trc = obs::tracer();
    trc.clearForTest();
    trc.setEnabled(true);
    startDaemon(2, 8);
    {
        ServiceClient client;
        client.connect(socket_);
        for (unsigned i = 0; i < 16; ++i) {
            client.sendQuery(busQuery(Scheme::Base, 1 + i % 32));
        }
        for (unsigned i = 0; i < 16; ++i) {
            ASSERT_TRUE(client.recvResult().ok);
        }
    }
    daemon_->stop();
    trc.setEnabled(false);
    std::ostringstream os;
    trc.writeChromeTrace(os);

    std::string error;
    const obs::JsonValue doc = obs::parseJson(os.str());
    ASSERT_TRUE(obs::validateChromeTrace(doc, &error)) << error;

    // Collect flow events by trace id: a connected chain has a start
    // ('s') and an end ('f'), and its events span >= 2 threads (the
    // connection thread and a batching worker).
    struct Flow
    {
        bool start = false, end = false;
        std::vector<double> tids;
    };
    std::map<double, Flow> flows;
    std::set<std::string> spanNames;
    for (const obs::JsonValue &event :
         doc.find("traceEvents")->array) {
        const std::string &ph = event.find("ph")->string;
        if (ph == "X") {
            spanNames.insert(event.find("name")->string);
        }
        if (ph != "s" && ph != "t" && ph != "f") {
            continue;
        }
        Flow &flow = flows[event.find("id")->number];
        flow.start |= ph == "s";
        flow.end |= ph == "f";
        flow.tids.push_back(event.find("tid")->number);
    }
    for (const char *name :
         {"svc.decode", "svc.batch", "svc.solve", "svc.send"}) {
        EXPECT_TRUE(spanNames.count(name)) << name;
    }
    std::size_t connected = 0;
    for (const auto &[id, flow] : flows) {
        std::set<double> distinct(flow.tids.begin(),
                                  flow.tids.end());
        if (flow.start && flow.end && distinct.size() >= 2) {
            ++connected;
        }
    }
    EXPECT_GE(connected, 1u) << "no flow chain crossed threads";
}

using ServiceParallelTest = DaemonFixture;

TEST_F(ServiceParallelTest, ConcurrentClientsGetBitwiseIdenticalResults)
{
    // The concurrency gate: N client threads × M pipelined queries
    // against one daemon, interleaving bus and network work across
    // schemes and sizes so the workers continually re-batch different
    // mixes. Every answer must be bitwise identical to a direct
    // ServiceKernel evaluation of the same query.
    startDaemon(4, 16);
    const ServiceKernel kernel;
    constexpr unsigned kThreads = 6;
    constexpr unsigned kQueriesPerThread = 120;

    std::vector<Query> plan;
    plan.reserve(kThreads * kQueriesPerThread);
    for (unsigned t = 0; t < kThreads; ++t) {
        for (unsigned i = 0; i < kQueriesPerThread; ++i) {
            const unsigned pick = t * 31 + i * 7;
            if (pick % 5 == 0) {
                plan.push_back(networkQuery(
                    pick % 2 == 0 ? Scheme::SoftwareFlush
                                  : Scheme::NoCache,
                    1 + pick % 12));
            } else {
                plan.push_back(busQuery(
                    kAllSchemes[pick % kNumSchemes], 1 + pick % 128,
                    paramsAtLevel(
                        kAllLevels[pick % kAllLevels.size()])));
            }
        }
    }
    std::vector<QueryResult> expected(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        expected[i] = kernel.evaluate(plan[i]);
    }

    std::atomic<unsigned> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ServiceClient client;
            client.connect(socket_);
            client.useJson(t % 3 == 2); // every third thread: JSON
            const std::size_t base = t * kQueriesPerThread;
            // Pipeline in bursts of 8 to keep batches forming.
            for (unsigned i = 0; i < kQueriesPerThread; i += 8) {
                const unsigned n =
                    std::min(8u, kQueriesPerThread - i);
                for (unsigned j = 0; j < n; ++j) {
                    client.sendQuery(plan[base + i + j]);
                }
                for (unsigned j = 0; j < n; ++j) {
                    const QueryResult got = client.recvResult();
                    const QueryResult &want = expected[base + i + j];
                    if (got.ok != want.ok ||
                        (got.ok &&
                         !sameBits(got.domain == QueryDomain::Bus
                                       ? got.bus.processingPower
                                       : got.network.processingPower,
                                   want.domain == QueryDomain::Bus
                                       ? want.bus.processingPower
                                       : want.network
                                             .processingPower))) {
                        mismatches.fetch_add(1);
                    }
                }
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    EXPECT_EQ(mismatches.load(), 0u);

    // Full-width bitwise audit on one thread's slice (the in-thread
    // check above compares the headline double only).
    ServiceClient audit;
    audit.connect(socket_);
    for (unsigned i = 0; i < 16; ++i) {
        expectIdentical(audit.query(plan[i]), expected[i]);
    }

    const std::string scrape = daemon_->scrapeText();
    EXPECT_GE(promValue(scrape, "service_queries_total"),
              kThreads * kQueriesPerThread);
    EXPECT_GE(promValue(scrape, "service_batches_total"), 1.0);
    daemon_->stop();
}

TEST_F(ServiceParallelTest, StopWhileClientsAreMidBurstIsClean)
{
    startDaemon(2, 8);
    std::atomic<bool> go{true};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 3; ++t) {
        threads.emplace_back([&] {
            try {
                ServiceClient client;
                client.connect(socket_);
                while (go.load()) {
                    (void)client.query(busQuery(Scheme::Base, 16));
                }
            } catch (const std::exception &) {
                // Connection torn down by the stop: expected.
            }
        });
    }
    // Let the clients get into a rhythm, then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    daemon_->stop();
    go.store(false);
    for (std::thread &thread : threads) {
        thread.join();
    }
    EXPECT_FALSE(daemon_->running());
}

} // namespace
} // namespace swcc::service
