/**
 * @file
 * service: swccd over its unix socket with the binary protocol, as a
 * closed loop. Its callers (sweeps, the CLI, swcc_stat) each wait for
 * their replies, so one loadgen thread on one connection keeps a fixed
 * window of queries outstanding against a daemon with one batching
 * worker; the client blocks in recv and never spins.
 *
 * Each pass sends a fixed stream of queries drawn Zipf-like from a
 * population of bus operating points plus about 1/8 network points,
 * so that about half repeat an earlier query of the pass. Every pass
 * draws from its own population, so the repeat share, which the
 * solver memo and batching feed on, is the same in every pass however
 * many passes a run completes.
 */

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "service/client.hh"
#include "service/service_kernel.hh"
#include "sim/synth/rng.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{

namespace
{

using namespace swcc;
using namespace swcc::service;

constexpr unsigned kDaemonWorkers = 1;
constexpr unsigned kBatchMax = 64;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kQueriesPerPass = 65'536;
/**
 * Passes per --seconds. The work of a run is fixed, not its duration:
 * every pass adds entries to the daemon's bounded memo, so a run of
 * fixed duration would tie rss_mb to qps. 1.5 passes take about a
 * second at 100k qps.
 */
constexpr double kPassesPerSecond = 1.5;
constexpr std::size_t kWarmupQueries = kQueriesPerPass / 2;
constexpr std::size_t kBusScenarios = 4'096;
constexpr std::size_t kNetScenarios = 512;
constexpr unsigned kMaxBusSize = 64;
constexpr unsigned kMaxStages = 10;
/** Passes whose answer digests the default-seed reference keeps. */
constexpr std::size_t kDigestPasses = 4;

/** A running swccd; the destructor stops it and reaps it. */
class Daemon
{
  public:
    Daemon(const Options &opts, const std::string &socket)
    {
        int fds[2];
        if (::pipe(fds) != 0) {
            throw std::runtime_error("pipe failed");
        }
        const std::string binary = opts.binDir + "/swccd";
        const std::string workers = std::to_string(kDaemonWorkers);
        const std::string batch = std::to_string(kBatchMax);
        std::vector<std::string> args = {binary,        "--socket",
                                         socket,        "--workers",
                                         workers,       "--batch-max",
                                         batch};
        std::vector<char *> argv;
        for (std::string &arg : args) {
            argv.push_back(arg.data());
        }
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&actions, fds[0]);
        posix_spawn_file_actions_addclose(&actions, fds[1]);
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[1]);
        out_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            ::close(out_);
            throw std::runtime_error("cannot start " + binary);
        }
        try {
            awaitReadyLine();
        } catch (...) {
            stop();
            throw;
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }

    /** SIGTERM (graceful drain), then reap; idempotent. */
    void
    stop()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            char buf[4096];
            while (::read(out_, buf, sizeof buf) > 0) {
            }
            int status = 0;
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
        }
        if (out_ >= 0) {
            ::close(out_);
            out_ = -1;
        }
    }

  private:
    /** Waits for the line swccd flushes once it listens. */
    void
    awaitReadyLine()
    {
        std::string line;
        while (line.find('\n') == std::string::npos) {
            struct pollfd pfd = {out_, POLLIN, 0};
            char buf[256];
            if (::poll(&pfd, 1, 10'000) <= 0) {
                throw std::runtime_error("swccd did not start");
            }
            const ssize_t n = ::read(out_, buf, sizeof buf);
            if (n <= 0) {
                throw std::runtime_error("swccd exited during start");
            }
            line.append(buf, static_cast<std::size_t>(n));
        }
        if (line.find("listening") == std::string::npos) {
            throw std::runtime_error("unexpected swccd output: " + line);
        }
    }

    pid_t pid_ = -1;
    int out_ = -1;
};

struct Scenario
{
    Scheme scheme;
    WorkloadParams params;
};

/** One pass's population: bus and network scenarios, Zipf weights. */
struct Population
{
    std::vector<Scenario> bus;
    std::vector<Scenario> net;
    std::vector<double> busCdf;
    std::vector<double> netCdf;
};

std::vector<double>
zipfCdf(std::size_t n)
{
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        sum += 1.0 / static_cast<double>(k + 1);
        cdf[k] = sum;
    }
    for (double &c : cdf) {
        c /= sum;
    }
    return cdf;
}

Scenario
drawScenario(Rng &rng, Scheme scheme)
{
    Scenario s;
    s.scheme = scheme;
    s.params = paramsAtLevel(Level::Middle);
    const auto jitter = [&rng](double &value) {
        value *= 0.8 + 0.4 * rng.uniform();
    };
    jitter(s.params.ls);
    jitter(s.params.msdat);
    jitter(s.params.mains);
    jitter(s.params.md);
    jitter(s.params.shd);
    jitter(s.params.wr);
    return s;
}

/** Pass 0 is the warm-up's population; timed passes use 1, 2, ... */
Population
makePopulation(std::uint64_t seed, std::uint64_t pass)
{
    Rng rng = Rng(seed).split(pass);
    Population pop;
    for (std::size_t k = 0; k < kBusScenarios; ++k) {
        pop.bus.push_back(drawScenario(rng, kAllSchemes[k % kNumSchemes]));
    }
    const Scheme netSchemes[] = {Scheme::Base, Scheme::NoCache,
                                 Scheme::SoftwareFlush};
    for (std::size_t k = 0; k < kNetScenarios; ++k) {
        pop.net.push_back(drawScenario(rng, netSchemes[k % 3]));
    }
    pop.busCdf = zipfCdf(kBusScenarios);
    pop.netCdf = zipfCdf(kNetScenarios);
    return pop;
}

std::size_t
drawIndex(Rng &rng, const std::vector<double> &cdf)
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

std::vector<Query>
makeStream(std::uint64_t seed, std::uint64_t pass, std::size_t count)
{
    const Population pop = makePopulation(seed, pass);
    Rng rng = Rng(seed ^ 0x5eedu).split(pass);
    std::vector<Query> stream(count);
    for (Query &q : stream) {
        if (rng.below(8) == 0) {
            const Scenario &s = pop.net[drawIndex(rng, pop.netCdf)];
            q.domain = QueryDomain::Network;
            q.scheme = s.scheme;
            q.params = s.params;
            q.size = 1 + static_cast<unsigned>(rng.below(kMaxStages));
        } else {
            const Scenario &s = pop.bus[drawIndex(rng, pop.busCdf)];
            q.domain = QueryDomain::Bus;
            q.scheme = s.scheme;
            q.params = s.params;
            q.size = 1 + static_cast<unsigned>(rng.below(kMaxBusSize));
        }
    }
    return stream;
}

void
mix(std::uint64_t &h, double v)
{
    h = fnv1a(&v, sizeof v, h);
}

void
mix(std::uint64_t &h, std::uint64_t v)
{
    h = fnv1a(&v, sizeof v, h);
}

/** Every field the wire carries, bit for bit. */
std::uint64_t
answerHash(const QueryResult &r)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    mix(h, std::uint64_t{r.ok});
    mix(h, std::uint64_t{static_cast<std::uint8_t>(r.domain)});
    if (!r.ok) {
        return fnv1a(r.error.data(), r.error.size(), h);
    }
    if (r.domain == QueryDomain::Bus) {
        const BusSolution &s = r.bus;
        mix(h, std::uint64_t{s.processors});
        for (double v : {s.cpu, s.bus, s.waiting, s.busUtilization,
                         s.busQueueLength, s.processorUtilization,
                         s.processingPower}) {
            mix(h, v);
        }
    } else {
        const NetworkSolution &s = r.network;
        mix(h, std::uint64_t{s.stages});
        mix(h, std::uint64_t{s.processors});
        for (double v : {s.cpu, s.network, s.transactionRate,
                         s.unitRequestRate, s.computeFraction, s.inputLoad,
                         s.acceptance, s.cyclesPerInstruction, s.waiting,
                         s.processorUtilization, s.processingPower}) {
            mix(h, v);
        }
    }
    return h;
}

std::uint64_t
queryHash(const Query &q)
{
    std::uint64_t h = fnv1a(&q.params, sizeof q.params);
    mix(h, std::uint64_t{static_cast<std::uint8_t>(q.domain)});
    mix(h, std::uint64_t{static_cast<std::uint8_t>(q.scheme)});
    mix(h, std::uint64_t{q.size});
    return h;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/** A parsed Prometheus scrape: samples and cumulative buckets. */
struct Scrape
{
    std::map<std::string, double> values;
    std::map<std::string, std::vector<std::pair<double, double>>> buckets;

    double
    value(const std::string &name) const
    {
        const auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    }
};

Scrape
parseScrape(const std::string &text)
{
    Scrape out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const std::size_t space = line.rfind(' ');
        if (space == std::string::npos) {
            continue;
        }
        const std::string key = line.substr(0, space);
        const double value = std::stod(line.substr(space + 1));
        const std::size_t brace = key.find('{');
        if (brace == std::string::npos) {
            out.values[key] = value;
            continue;
        }
        const std::string family = key.substr(0, brace);
        const std::size_t le = key.find("le=\"");
        if (!family.ends_with("_bucket") || le == std::string::npos) {
            continue;
        }
        const std::string bound =
            key.substr(le + 4, key.find('"', le + 4) - le - 4);
        out.buckets[family.substr(0, family.size() - 7)].emplace_back(
            bound == "+Inf" ? kInf : std::stod(bound), value);
    }
    return out;
}

/** Cumulative count at x of a sparse cumulative bucket list. */
double
cumulativeAt(const std::vector<std::pair<double, double>> &buckets,
             double x)
{
    double cum = 0.0;
    for (const auto &[le, count] : buckets) {
        if (le <= x) {
            cum = count;
        }
    }
    return cum;
}

/** Quantile of the histogram delta between two scrapes (bucket
 *  upper bound, the exposition's resolution). */
double
deltaQuantile(const Scrape &a, const Scrape &b, const std::string &family,
              double q)
{
    const auto empty = std::vector<std::pair<double, double>>{};
    const auto ita = a.buckets.find(family);
    const auto itb = b.buckets.find(family);
    const auto &ba = ita == a.buckets.end() ? empty : ita->second;
    const auto &bb = itb == b.buckets.end() ? empty : itb->second;
    std::vector<double> bounds;
    for (const auto &entry : ba) {
        bounds.push_back(entry.first);
    }
    for (const auto &entry : bb) {
        bounds.push_back(entry.first);
    }
    std::sort(bounds.begin(), bounds.end());
    const double total =
        cumulativeAt(bb, kInf) - cumulativeAt(ba, kInf);
    for (double le : bounds) {
        if (std::isfinite(le) &&
            cumulativeAt(bb, le) - cumulativeAt(ba, le) >= q * total) {
            return le;
        }
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

/** The outcome of one closed-loop pass over a query stream. */
struct PassResult
{
    double seconds = 0.0;
    std::vector<double> latencyUs;
    std::vector<std::uint64_t> answers;
    std::vector<std::uint64_t> sendNs;
    std::vector<std::uint64_t> recvNs;
};

PassResult
closedLoop(ServiceClient &client, const std::vector<Query> &stream)
{
    PassResult out;
    const std::size_t n = stream.size();
    out.latencyUs.reserve(n);
    out.answers.reserve(n);
    out.sendNs.resize(n);
    out.recvNs.resize(n);
    std::size_t sent = 0;
    const Clock::time_point t0 = Clock::now();
    for (; sent < std::min(kWindow, n); ++sent) {
        out.sendNs[sent] = nowNs();
        client.sendQuery(stream[sent]);
    }
    for (std::size_t got = 0; got < n; ++got) {
        const QueryResult r = client.recvResult();
        out.recvNs[got] = nowNs();
        out.latencyUs.push_back(
            static_cast<double>(out.recvNs[got] - out.sendNs[got]) * 1e-3);
        out.answers.push_back(answerHash(r));
        if (sent < n) {
            out.sendNs[sent] = nowNs();
            client.sendQuery(stream[sent]);
            ++sent;
        }
    }
    out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

/**
 * Confines this process, and the swccd it starts, to the last CPU it
 * may run on, and returns that CPU. The vCPUs of a shared host have
 * slow episodes of their own, seconds long; a three-thread pipeline
 * spread over three vCPUs is slowed whenever any of them is, which
 * spread per-pass p99 by 0.5-1.8 (IQR / median) across runs. On one
 * CPU it depends on one vCPU, and qps measures the CPU work per query.
 */
int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        throw std::runtime_error("sched_getaffinity failed");
    }
    std::size_t cpu = 0;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            cpu = c;
        }
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) {
        throw std::runtime_error("sched_setaffinity failed");
    }
    return static_cast<int>(cpu);
}

} // namespace

void
runService(const Options &opts, Result &result)
{
    const int cpu = pinToOneCpu();
    const std::string socket = opts.runDir + "/swccd.sock";
    Daemon daemon(opts, socket);
    ServiceClient client;
    client.connect(socket);

    // Untimed warm-up from a population no timed pass draws from, so
    // it warms code, buffers and threads but not the memo.
    (void)closedLoop(client, makeStream(opts.seed, 0, kWarmupQueries));
    announceReady();
    if (opts.setupOnly) {
        return;
    }

    std::vector<double> p50s;
    std::vector<double> p99s;
    std::vector<double> untracedTimes;
    std::vector<double> tracedTimes;
    std::vector<std::uint64_t> tracedPasses;
    std::vector<std::vector<std::uint64_t>> answers;
    double repeatPct = 0.0;
    std::size_t latencySamples = 0;
    const std::uint64_t totalPasses = std::max<std::uint64_t>(
        opts.trace ? 3 : 1,
        static_cast<std::uint64_t>(std::lround(opts.seconds *
                                               kPassesPerSecond)));

    // Daemon-side counts and latency quantiles per traced pass.
    std::map<std::string, std::vector<double>> perPass;
    const std::uint32_t queryName = spanLog().intern("service.query");
    std::uint64_t nextOp = 1;

    for (std::uint64_t pass = 1; pass <= totalPasses; ++pass) {
        const bool traced = opts.trace && pass % 2 == 0;
        const std::vector<Query> stream =
            makeStream(opts.seed, pass, kQueriesPerPass);
        const Scrape before =
            traced ? parseScrape(client.scrape()) : Scrape{};
        PassResult r;
        try {
            r = closedLoop(client, stream);
        } catch (const std::exception &e) {
            // Unanswered queries: the rest of this pass fails.
            result.attempted += stream.size();
            result.fail(stream.size(), std::string("pass ") +
                                           std::to_string(pass) + ": " +
                                           e.what());
            break;
        }
        if (traced) {
            const Scrape after = parseScrape(client.scrape());
            for (std::size_t i = 0; i < stream.size(); ++i) {
                SpanRecord span;
                span.name = queryName;
                span.id = spanLog().nextId();
                span.op = nextOp++;
                span.tid = threadTid();
                span.startNs = r.sendNs[i];
                span.endNs = r.recvNs[i];
                span.async = true;
                spanLog().record(span);
            }
            for (const char *family :
                 {"service_request_us", "service_queue_wait_us",
                  "service_solve_us"}) {
                perPass[std::string(family) + ".p50"].push_back(
                    deltaQuantile(before, after, family, 0.50));
                perPass[std::string(family) + ".p99"].push_back(
                    deltaQuantile(before, after, family, 0.99));
            }
            const auto delta = [&](const std::string &name) {
                return after.value(name) - before.value(name);
            };
            perPass["batch_size.mean"].push_back(
                delta("service_batch_size_sum") /
                delta("service_batch_size_count"));
            for (const char *name :
                 {"service_kernel_queries_total",
                  "service_kernel_coalesced_total",
                  "solver_bus_solves_total", "solver_network_solves_total",
                  "solver_network_iterations_total",
                  "solver_cache_hits_total", "solver_cache_misses_total",
                  "solver_cache_evictions_total"}) {
                perPass[name].push_back(delta(name));
            }
            tracedTimes.push_back(r.seconds);
            tracedPasses.push_back(pass);
        } else {
            untracedTimes.push_back(r.seconds);
            p50s.push_back(quantile(r.latencyUs, 0.50));
            p99s.push_back(quantile(r.latencyUs, 0.99));
            latencySamples += r.latencyUs.size();
        }
        if (pass == 1) {
            std::unordered_set<std::uint64_t> seen;
            for (const Query &q : stream) {
                seen.insert(queryHash(q));
            }
            repeatPct = 100.0 *
                static_cast<double>(stream.size() - seen.size()) /
                static_cast<double>(stream.size());
        }
        answers.push_back(std::move(r.answers));
    }
    const double rssMb = peakRssMb(daemon.pid());
    daemon.stop();

    // Direct kernel run over the traced passes' streams, in batches of
    // the window size: the solve cost without the transport.
    const ServiceKernel kernel;
    const std::uint32_t batchName = spanLog().intern("service.kernel.batch");
    if (opts.trace) {
        spanLog().setEnabled(true);
        for (std::uint64_t pass : tracedPasses) {
            const std::vector<Query> stream =
                makeStream(opts.seed, pass, kQueriesPerPass);
            std::vector<QueryResult> results(kWindow);
            for (std::size_t i = 0; i < stream.size(); i += kWindow) {
                const std::size_t n = std::min(kWindow, stream.size() - i);
                Span span(batchName, nextOp++);
                kernel.evaluateBatch(&stream[i], n, results.data());
            }
        }
        spanLog().setEnabled(false);
    }

    // Checks outside the timed phase: every answer against the
    // single-point ServiceKernel::evaluate reference path.
    for (std::size_t p = 0; p < answers.size(); ++p) {
        const std::vector<Query> stream =
            makeStream(opts.seed, p + 1, kQueriesPerPass);
        std::uint64_t digest = fnv1a(nullptr, 0);
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < answers[p].size(); ++i) {
            const std::uint64_t reference =
                answerHash(kernel.evaluate(stream[i]));
            bad += answers[p][i] != reference;
            mix(digest, answers[p][i]);
        }
        result.attempted += answers[p].size();
        if (bad != 0) {
            result.fail(bad, "pass " + std::to_string(p + 1) + ": " +
                                 std::to_string(bad) +
                                 " answers differ from "
                                 "ServiceKernel::evaluate");
        }
        if (p < kDigestPasses) {
            result.outputs.emplace_back(
                "service/pass" + std::to_string(p + 1), hex64(digest));
        }
    }

    result.info("daemon_workers", static_cast<double>(kDaemonWorkers));
    result.info("batch_max", static_cast<double>(kBatchMax));
    result.info("window", static_cast<double>(kWindow));
    result.info("loadgen_threads", 1.0);
    result.info("cpu", static_cast<double>(cpu));
    result.info("connections", 1.0);
    result.info("queries_per_pass", static_cast<double>(kQueriesPerPass));
    result.info("repeat_pct", repeatPct);
    result.info("passes", static_cast<double>(answers.size()));
    result.info("latency_samples", static_cast<double>(latencySamples));
    result.info("latency_samples_per_pass",
                static_cast<double>(kQueriesPerPass));
    result.info("pass_s.untraced", joined(untracedTimes));
    result.info("pass_s.traced", joined(tracedTimes));

    // Medians over passes of each pass's figures: every pass has 65536
    // queries, so its p99 has 655 beyond it, and the median keeps the
    // host's slow episodes out.
    if (!opts.trace) {
        result.metric("run_s", median(untracedTimes));
        result.metric("qps", static_cast<double>(kQueriesPerPass) /
                                 median(untracedTimes));
        result.metric("p50_us", median(p50s));
        result.metric("p99_us", median(p99s));
        result.metric("rss_mb", rssMb);
        return;
    }

    const double passes = static_cast<double>(tracedTimes.size());
    const auto mean = [&](const std::string &name) {
        double sum = 0.0;
        for (double v : perPass[name]) {
            sum += v;
        }
        return sum / passes;
    };
    const auto spans = spanLog().totals();
    std::map<std::string, double> layers;
    layers["solve.ms"] = spans.at("service.kernel.batch").selfMs / passes;
    layers["solver.bus.solves"] = mean("solver_bus_solves_total");
    layers["solver.network.solves"] = mean("solver_network_solves_total");
    layers["solver.network.iterations"] =
        mean("solver_network_iterations_total");
    layers["solver_cache.hits"] = mean("solver_cache_hits_total");
    layers["solver_cache.misses"] = mean("solver_cache_misses_total");
    layers["solver_cache.evictions"] = mean("solver_cache_evictions_total");
    const double lookups =
        layers["solver_cache.hits"] + layers["solver_cache.misses"];
    layers["solver_cache.hit_pct"] =
        lookups > 0.0 ? 100.0 * layers["solver_cache.hits"] / lookups : 0.0;
    for (const char *stage : {"request_us", "queue_wait_us", "solve_us"}) {
        for (const char *q : {"p50", "p99"}) {
            layers[std::string("service.") + stage + "." + q] =
                median(perPass[std::string("service_") + stage + "." + q]);
        }
    }
    layers["service.batch_size.mean"] = median(perPass["batch_size.mean"]);
    layers["service.coalesced_pct"] = 100.0 *
        mean("service_kernel_coalesced_total") /
        mean("service_kernel_queries_total");
    layers["trace.overhead_pct"] = overheadPct(untracedTimes, tracedTimes);
    emitLayerMetrics(layers, result);
    emitSpanTotals(passes, result);
    // The first 16384 queries and every kernel batch: every query of a
    // run would be hundreds of megabytes of JSON.
    spanLog().writeChromeTrace(opts.runDir + "/trace.json", 16'384);
}

} // namespace perfbench
