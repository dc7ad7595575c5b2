/**
 * @file
 * Load-generator harness for swccd, the model-as-a-service daemon.
 *
 * Spins the daemon up in-process (or targets an external one via
 * --socket), drives it with closed- and open-loop client threads over
 * a mixed bus/network query stream, and reports throughput plus
 * p50/p95/p99/p999 latency from HdrHistogram-style log-bucketed
 * per-thread histograms. The full matrix (threads x batch limit)
 * lands in bench_results/perf_service_qps.csv.
 *
 * Open-loop rows are coordinated-omission-free: each request's
 * latency is measured from its *scheduled* send time, so a stalled
 * daemon inflates the tail instead of silently slowing the load.
 *
 * Modes:
 *   (default)            full matrix + CSV export
 *   --smoke              correctness gate, no CSV — verifies daemon
 *                        responses are bitwise identical to direct
 *                        ServiceKernel evaluation (binary and JSON)
 *   --assert-batch-speedup X
 *                        exit nonzero unless batching (batch limit 64
 *                        vs 1) yields >= X throughput at 4 client
 *                        threads; self-gates on hosts with fewer
 *                        than 4 hardware threads
 *   --assert-min-qps N   exit nonzero unless the best closed-loop
 *                        configuration sustains at least N queries/s
 *   --socket PATH        drive an external daemon instead (loadgen
 *                        mode)
 *   --duration-ms N, --threads N, --pipeline N, --rate QPS
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/obs/histogram.hh"
#include "core/report.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/service_kernel.hh"
#include "sim/synth/rng.hh"

namespace
{

using namespace swcc;
using namespace swcc::service;
using Clock = std::chrono::steady_clock;

struct BenchConfig
{
    bool smoke = false;
    double assertBatchSpeedup = 0.0;
    double assertMinQps = 0.0;
    std::string externalSocket;
    unsigned durationMs = 400;
    unsigned pipeline = 16;
    std::optional<unsigned> loadgenThreads;
    double openLoopRate = 20000.0;
};

/**
 * The query mix: a handful of workload scenarios spread over many
 * machine sizes, i.e. the shape the kernel's group-coalescing turns
 * into batched curve solves. Deterministic per (thread, index).
 */
Query
mixedQuery(Rng &rng, unsigned scenarios = 4)
{
    Query query;
    const std::uint64_t scenario = rng.below(scenarios);
    query.params = paramsAtLevel(
        scenario == 0 ? Level::Low
                      : scenario == 3 ? Level::High : Level::Middle);
    if (rng.below(8) == 0) {
        query.domain = QueryDomain::Network;
        query.scheme =
            scenario == 1 ? Scheme::SoftwareFlush : Scheme::Base;
        query.size = 1 + static_cast<unsigned>(rng.below(8));
    } else {
        query.domain = QueryDomain::Bus;
        query.scheme = scenario == 1
            ? Scheme::SoftwareFlush
            : scenario == 2 ? Scheme::Dragon : Scheme::Base;
        // A wide size range is what group-coalescing feeds on: a
        // 64-query batch of one scenario collapses into a single
        // O(max) curve solve where point solves cost O(size) each.
        query.size = 1 + static_cast<unsigned>(rng.below(1024));
    }
    return query;
}

std::uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

struct LoadResult
{
    std::uint64_t requests = 0;
    double seconds = 0.0;
    obs::Histogram latency;

    double
    qps() const
    {
        return seconds > 0.0
            ? static_cast<double>(requests) / seconds
            : 0.0;
    }
};

/**
 * Closed loop: each thread keeps @p pipeline requests in flight on
 * one connection; latency is send-to-receive per request (responses
 * arrive in request order, so a deque of send stamps suffices).
 */
LoadResult
runClosedLoop(const std::string &socket, unsigned threads,
              unsigned pipeline, unsigned duration_ms,
              unsigned scenarios = 4)
{
    std::vector<obs::Histogram> histograms(threads);
    std::vector<std::uint64_t> counts(threads, 0);
    std::vector<std::thread> clients;
    std::atomic<bool> stop{false};
    const auto start = Clock::now();
    for (unsigned t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            Rng rng(0x5ecc5eedULL + t);
            ServiceClient client;
            client.connect(socket);
            std::vector<std::uint64_t> sent; // ring of send stamps
            sent.resize(pipeline);
            std::size_t head = 0, tail = 0, inflight = 0;
            std::vector<std::uint8_t> burst;
            // Sends ride in bursts of one write() — the client-side
            // mirror of the daemon's batched flush, so loadgen
            // syscalls don't drown the daemon-side signal.
            const auto sendBurst = [&](std::size_t n) {
                burst.clear();
                for (std::size_t i = 0; i < n; ++i) {
                    sent[tail] = nanosSince(start);
                    tail = (tail + 1) % pipeline;
                    ++inflight;
                    appendQueryRequest(burst,
                                       mixedQuery(rng, scenarios));
                }
                client.sendRaw(burst.data(), burst.size());
            };
            const auto recvOne = [&] {
                (void)client.recvResult();
                histograms[t].record(nanosSince(start) - sent[head]);
                head = (head + 1) % pipeline;
                --inflight;
                ++counts[t];
            };
            sendBurst(pipeline);
            while (!stop.load(std::memory_order_relaxed)) {
                // One blocking receive, then drain what already
                // arrived; refill the window with one burst.
                recvOne();
                while (inflight > 0 && client.pollReadable(0)) {
                    recvOne();
                }
                sendBurst(pipeline - inflight);
            }
            while (inflight > 0) {
                recvOne();
            }
        });
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(duration_ms));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &client : clients) {
        client.join();
    }
    LoadResult result;
    result.seconds = static_cast<double>(nanosSince(start)) * 1e-9;
    for (unsigned t = 0; t < threads; ++t) {
        result.requests += counts[t];
        result.latency.merge(histograms[t]);
    }
    return result;
}

/**
 * Open loop: each thread sends on a fixed schedule (rate/threads) and
 * drains responses opportunistically; latency runs from the scheduled
 * send time, so queueing delay in the daemon (or the sender falling
 * behind) is charged to the tail rather than hidden.
 */
LoadResult
runOpenLoop(const std::string &socket, unsigned threads, double rate,
            unsigned duration_ms)
{
    std::vector<obs::Histogram> histograms(threads);
    std::vector<std::uint64_t> counts(threads, 0);
    std::vector<std::thread> clients;
    const auto start = Clock::now();
    for (unsigned t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            Rng rng(0x09e7100bULL + t);
            ServiceClient client;
            client.connect(socket);
            const double interval_ns =
                1e9 * static_cast<double>(threads) / rate;
            const std::uint64_t horizon =
                static_cast<std::uint64_t>(duration_ms) * 1000000ull;
            std::vector<std::uint64_t> scheduled;
            std::size_t head = 0;
            double next = 0.0;
            try {
                for (;;) {
                    const std::uint64_t due =
                        static_cast<std::uint64_t>(next);
                    if (due >= horizon) {
                        break;
                    }
                    while (nanosSince(start) < due) {
                        // Drain while waiting for the next tick.
                        if (head < scheduled.size() &&
                            client.pollReadable(0)) {
                            (void)client.recvResult();
                            histograms[t].record(nanosSince(start) -
                                                 scheduled[head]);
                            ++head;
                            ++counts[t];
                        } else {
                            std::this_thread::yield();
                        }
                    }
                    scheduled.push_back(due);
                    next += interval_ns;
                    client.sendQuery(mixedQuery(rng));
                }
                while (head < scheduled.size()) {
                    (void)client.recvResult();
                    histograms[t].record(nanosSince(start) -
                                         scheduled[head]);
                    ++head;
                    ++counts[t];
                }
            } catch (const std::exception &) {
                // The daemon went away mid-run. Charge every request
                // that was sent but never answered — and every tick
                // that came due but was never sent — its full elapsed
                // wait, so an early exit inflates the tail instead of
                // silently truncating it. None of these count toward
                // QPS: no response arrived.
                const std::uint64_t now = nanosSince(start);
                for (; head < scheduled.size(); ++head) {
                    histograms[t].record(now - scheduled[head]);
                }
                for (double tick = next;; tick += interval_ns) {
                    const std::uint64_t due =
                        static_cast<std::uint64_t>(tick);
                    if (due >= horizon || due > now) {
                        break;
                    }
                    histograms[t].record(now - due);
                }
            }
        });
    }
    for (std::thread &client : clients) {
        client.join();
    }
    LoadResult result;
    result.seconds = static_cast<double>(nanosSince(start)) * 1e-9;
    for (unsigned t = 0; t < threads; ++t) {
        result.requests += counts[t];
        result.latency.merge(histograms[t]);
    }
    return result;
}

std::string
micros(const obs::Histogram &hist, double quantile)
{
    return formatNumber(
        static_cast<double>(hist.valueAtQuantile(quantile)) * 1e-3, 1);
}

void
addRow(TextTable &table, const std::string &mode, unsigned threads,
       unsigned batch_max, const LoadResult &result)
{
    table.addRow({mode, std::to_string(threads),
                  std::to_string(batch_max),
                  std::to_string(result.requests),
                  formatNumber(result.qps(), 0),
                  micros(result.latency, 0.50),
                  micros(result.latency, 0.95),
                  micros(result.latency, 0.99),
                  micros(result.latency, 0.999),
                  formatNumber(
                      static_cast<double>(result.latency.maxValue()) *
                          1e-3,
                      1)});
}

/** An in-process daemon bound to a unique socket under /tmp. */
class LocalDaemon
{
  public:
    LocalDaemon(unsigned workers, unsigned batch_max)
    {
        DaemonConfig config;
        config.socketPath = "/tmp/swccd-bench-" +
            std::to_string(::getpid()) + "-" +
            std::to_string(++instances_) + ".sock";
        config.workers = workers;
        config.batchMax = batch_max;
        daemon_ = std::make_unique<ServiceDaemon>(std::move(config));
        daemon_->start();
    }

    ~LocalDaemon() { daemon_->stop(); }

    const std::string &
    socket() const
    {
        return daemon_->config().socketPath;
    }

  private:
    static inline unsigned instances_ = 0;
    std::unique_ptr<ServiceDaemon> daemon_;
};

bool
bitwiseEqual(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

bool
sameResult(const QueryResult &got, const QueryResult &want)
{
    if (got.ok != want.ok) {
        return false;
    }
    if (!want.ok) {
        return got.error == want.error;
    }
    if (want.domain == QueryDomain::Bus) {
        return got.bus.processors == want.bus.processors &&
            bitwiseEqual(got.bus.cpu, want.bus.cpu) &&
            bitwiseEqual(got.bus.bus, want.bus.bus) &&
            bitwiseEqual(got.bus.waiting, want.bus.waiting) &&
            bitwiseEqual(got.bus.busUtilization,
                         want.bus.busUtilization) &&
            bitwiseEqual(got.bus.busQueueLength,
                         want.bus.busQueueLength) &&
            bitwiseEqual(got.bus.processorUtilization,
                         want.bus.processorUtilization) &&
            bitwiseEqual(got.bus.processingPower,
                         want.bus.processingPower);
    }
    return got.network.stages == want.network.stages &&
        got.network.processors == want.network.processors &&
        bitwiseEqual(got.network.cpu, want.network.cpu) &&
        bitwiseEqual(got.network.network, want.network.network) &&
        bitwiseEqual(got.network.transactionRate,
                     want.network.transactionRate) &&
        bitwiseEqual(got.network.waiting, want.network.waiting) &&
        bitwiseEqual(got.network.processorUtilization,
                     want.network.processorUtilization) &&
        bitwiseEqual(got.network.processingPower,
                     want.network.processingPower);
}

/**
 * The --smoke gate: daemon responses (binary and JSON dialects) must
 * be bitwise identical to direct ServiceKernel evaluation.
 */
int
runSmoke()
{
    LocalDaemon daemon(2, 8);
    ServiceKernel kernel;
    Rng rng(0xbe7c4ULL);
    unsigned mismatches = 0;
    for (const bool json : {false, true}) {
        ServiceClient client;
        client.connect(daemon.socket());
        client.useJson(json);
        for (int i = 0; i < 200; ++i) {
            const Query query = mixedQuery(rng);
            const QueryResult got = client.query(query);
            const QueryResult want = kernel.evaluate(query);
            if (!sameResult(got, want)) {
                std::cerr << "MISMATCH ("
                          << (json ? "json" : "binary") << ") "
                          << domainName(query.domain) << "/"
                          << schemeName(query.scheme) << " n="
                          << query.size << "\n";
                ++mismatches;
            }
        }
    }
    const LoadResult quick =
        runClosedLoop(daemon.socket(), 2, 4, 100);
    std::cout << "smoke: 400 queries bitwise-checked, "
              << quick.requests << " closed-loop requests at "
              << formatNumber(quick.qps(), 0) << " q/s, p99 "
              << micros(quick.latency, 0.99) << " us\n";
    if (mismatches > 0 || quick.requests == 0) {
        std::cerr << "smoke FAILED (" << mismatches
                  << " mismatches)\n";
        return 1;
    }
    std::cout << "smoke OK\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig bench;
    bool open_loop_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            bench.smoke = true;
        } else if (arg == "--assert-batch-speedup" && i + 1 < argc) {
            bench.assertBatchSpeedup = std::atof(argv[++i]);
        } else if (arg == "--assert-min-qps" && i + 1 < argc) {
            bench.assertMinQps = std::atof(argv[++i]);
        } else if (arg == "--socket" && i + 1 < argc) {
            bench.externalSocket = argv[++i];
        } else if (arg == "--duration-ms" && i + 1 < argc) {
            bench.durationMs =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--pipeline" && i + 1 < argc) {
            bench.pipeline =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--threads" && i + 1 < argc) {
            bench.loadgenThreads =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--rate" && i + 1 < argc) {
            bench.openLoopRate = std::atof(argv[++i]);
        } else if (arg == "--open-loop") {
            open_loop_only = true;
        } else {
            std::cerr
                << "usage: bench_perf_service [--smoke]\n"
                   "  [--assert-batch-speedup X] [--assert-min-qps "
                   "N]\n"
                   "  [--socket PATH] [--threads N] [--pipeline N]\n"
                   "  [--duration-ms N] [--rate QPS] [--open-loop]\n";
            return 2;
        }
    }

    if (bench.smoke) {
        return runSmoke();
    }

    TextTable table({"mode", "threads", "batch_max", "requests", "qps",
                     "p50_us", "p95_us", "p99_us", "p999_us", "max_us"});

    if (!bench.externalSocket.empty()) {
        // Loadgen mode against an external daemon (the batch limit
        // is the server's business; report it as 0).
        const unsigned threads = bench.loadgenThreads.value_or(4);
        const LoadResult result = open_loop_only
            ? runOpenLoop(bench.externalSocket, threads,
                          bench.openLoopRate, bench.durationMs)
            : runClosedLoop(bench.externalSocket, threads,
                            bench.pipeline, bench.durationMs);
        addRow(table, open_loop_only ? "open" : "closed", threads, 0,
               result);
        table.print(std::cout);
        if (bench.assertMinQps > 0.0 &&
            result.qps() < bench.assertMinQps) {
            std::cerr << "min-qps assertion FAILED: "
                      << formatNumber(result.qps(), 0) << " < "
                      << formatNumber(bench.assertMinQps, 0) << "\n";
            return 1;
        }
        return 0;
    }

    const unsigned hw = std::thread::hardware_concurrency();
    const std::vector<unsigned> thread_counts =
        bench.loadgenThreads
        ? std::vector<unsigned>{*bench.loadgenThreads}
        : std::vector<unsigned>{1, 2, 4};
    double best_qps = 0.0;

    for (const unsigned batch_max : {1u, 64u}) {
        LocalDaemon daemon(4, batch_max);
        for (const unsigned threads : thread_counts) {
            const LoadResult result =
                runClosedLoop(daemon.socket(), threads, bench.pipeline,
                              bench.durationMs);
            addRow(table, "closed", threads, batch_max, result);
            best_qps = std::max(best_qps, result.qps());
        }
    }
    {
        // Open-loop tail-latency rows at a fixed offered rate.
        LocalDaemon daemon(4, 64);
        for (const unsigned threads : {2u}) {
            const LoadResult result =
                runOpenLoop(daemon.socket(), threads,
                            bench.openLoopRate, bench.durationMs);
            addRow(table, "open", threads, 64, result);
        }
    }

    table.print(std::cout);
    const std::string csv = exportCsv(table, "perf_service_qps");
    std::cout << "csv: " << csv << "\n";

    int failures = 0;
    if (bench.assertBatchSpeedup > 0.0) {
        if (hw < 4) {
            std::cout << "batch speedup assertion skipped: only "
                      << hw << " hardware threads\n";
        } else {
            // Dedicated head-to-head, best of 3 per configuration:
            // 4 client threads, a deep pipeline, and a 2-scenario mix
            // (the campaign curve-sweep shape the kernel's
            // group-coalescing exists for). The matrix rows above stay
            // informational.
            const auto headToHead = [&](unsigned batch_max) {
                LocalDaemon daemon(4, batch_max);
                double best = 0.0;
                for (int rep = 0; rep < 3; ++rep) {
                    best = std::max(
                        best,
                        runClosedLoop(daemon.socket(), 4, 32,
                                      bench.durationMs, 2)
                            .qps());
                }
                return best;
            };
            const double unbatched = headToHead(1);
            const double batched = headToHead(64);
            const double speedup =
                unbatched > 0.0 ? batched / unbatched : 0.0;
            std::cout << "batched vs unbatched at 4 threads: "
                      << formatNumber(batched, 0) << " vs "
                      << formatNumber(unbatched, 0) << " q/s = "
                      << formatNumber(speedup, 2) << "x (required "
                      << formatNumber(bench.assertBatchSpeedup, 2)
                      << "x)\n";
            if (speedup < bench.assertBatchSpeedup) {
                ++failures;
            }
        }
    }
    if (bench.assertMinQps > 0.0) {
        std::cout << "best closed-loop qps: "
                  << formatNumber(best_qps, 0) << " (required "
                  << formatNumber(bench.assertMinQps, 0) << ")\n";
        if (best_qps < bench.assertMinQps) {
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}
