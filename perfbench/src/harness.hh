/**
 * @file
 * Shared plumbing of the benchmark's workload processes: options, the
 * timed-phase loop, the in-memory span log behind the traced run, the
 * result document read by run.py, and small measurement helpers.
 *
 * A workload process runs set-up, prints "ready" on stdout, runs its
 * timed phase, checks every output, and prints one JSON result line.
 * run.py times "ready" from process launch, so set-up includes exec,
 * static initialisation and everything before the first timed
 * operation.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the process's first call (monotonic). */
std::uint64_t nowNs();

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stop after set-up (run.py times several set-ups per run). */
    bool setupOnly = false;
    /** Per-run working directory inside the checkout. */
    std::string runDir;
    /** Directory holding swccd and the other built binaries. */
    std::string binDir;
};

/** One closed interval of work, recorded by the traced run. */
struct SpanRecord
{
    std::uint32_t name = 0;
    std::uint64_t id = 0;
    /** Enclosing span's id; 0 for a root. */
    std::uint64_t parent = 0;
    /** Operation id shared by every span of one operation. */
    std::uint64_t op = 0;
    std::uint32_t tid = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Async spans (overlapping on one thread) render as b/e pairs. */
    bool async = false;
};

/**
 * Spans kept in memory while a traced phase runs and written as Chrome
 * trace JSON at the end. Recording is a mutex-guarded append: the
 * traced workloads record at most a few thousand spans per second
 * except service, whose recorder is its single loadgen thread.
 */
class SpanLog
{
  public:
    /** Interns a span name. */
    std::uint32_t intern(std::string_view name);

    /** A fresh span id (never 0). */
    std::uint64_t nextId();

    void record(const SpanRecord &span);

    /** Whether spans are being recorded at all (the traced phase). */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Per-name totals over the recorded spans: summed duration and
     * self time (duration minus the union of its children's
     * intervals), both in ms, plus the span count.
     */
    struct Totals
    {
        double totalMs = 0.0;
        double selfMs = 0.0;
        std::uint64_t count = 0;
    };
    std::map<std::string, Totals> totals() const;

    /**
     * Writes the spans as Chrome trace-event JSON: the earliest
     * @p max_per_name spans of each name; the metadata counts the
     * spans recorded and written.
     */
    void writeChromeTrace(const std::string &path,
                          std::size_t max_per_name) const;

  private:
    mutable std::mutex mutex_;
    bool enabled_ = false;
    std::uint64_t nextId_ = 1;
    std::vector<std::string> names_;
    std::vector<SpanRecord> spans_;
};

/** The process-wide span log. */
SpanLog &spanLog();

/** Small integer id of the calling thread, for span tids. */
std::uint32_t threadTid();

/**
 * RAII span: records [construction, destruction) when the span log is
 * enabled, and costs one branch otherwise.
 */
class Span
{
  public:
    Span(std::uint32_t name, std::uint64_t op, std::uint64_t parent = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    std::uint32_t name_;
    std::uint64_t op_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    std::uint64_t start_ = 0;
};

/**
 * The workload's result document: metrics, informational values and
 * per-check outcomes, printed as one JSON object.
 */
class Result
{
  public:
    void metric(const std::string &name, double value);
    void info(const std::string &name, double value);
    void info(const std::string &name, const std::string &value);

    /** Counts @p ops failed operations, keeping the first messages. */
    void fail(std::uint64_t ops, const std::string &what);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Fingerprints of every output, compared by run.py against the
     *  stored default-seed reference. */
    std::vector<std::pair<std::string, std::string>> outputs;

    std::string toJson() const;

  private:
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
    std::vector<std::string> failures_;
};

/**
 * Runs passes of the workload's fixed operation set until @p seconds
 * have elapsed and at least @p min_passes passes ran, and returns each
 * pass's wall time in seconds. A traced run needs three: a first
 * untraced pass, then a traced and an untraced one to compare.
 */
std::vector<double> runPasses(double seconds, std::size_t min_passes,
                              const std::function<void(std::size_t)> &pass);

/**
 * Latencies of a batch workload's fixed operation set, one sample per
 * operation per pass. Figures come from each operation's median over
 * the passes, which keeps the host's slow episodes (they last about a
 * second) out of every figure once a run has a few passes.
 */
class OpTimes
{
  public:
    explicit OpTimes(std::size_t ops) : samples_(ops) {}

    void add(std::size_t op, double us) { samples_[op].push_back(us); }

    /** Samples recorded. */
    std::size_t count() const;

    /** Each operation's median latency over the passes, in us. */
    std::vector<double> medians() const;

  private:
    std::vector<std::vector<double>> samples_;
};

/**
 * Moves the calling thread to the (pass mod n)-th of the n CPUs this
 * process may use, and returns n. A shared host's vCPUs have slow
 * episodes of their own, seconds long; a single-threaded workload that
 * spreads its passes over the CPUs gives each operation samples from
 * several vCPUs, so one vCPU's episode stays out of the medians.
 */
unsigned pinForPass(std::size_t pass);

/** Quantile (0..1) of @p values by linear interpolation; 0 if empty. */
double quantile(std::vector<double> values, double q);

/** @p values as space-separated text, for the report. */
std::string joined(const std::vector<double> &values);

/** Median of @p values. */
double median(std::vector<double> values);

/** Peak resident set of process @p pid (0 = self), in MiB. */
double peakRssMb(int pid = 0);

/** 64-bit FNV-1a over raw bytes, chainable through @p seed. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/** A double's IEEE bit pattern as 16 hex digits. */
std::string hexBits(double value);

/** A 64-bit value as 16 hex digits. */
std::string hex64(std::uint64_t value);

/** Host description for the report: nproc and ISA. */
unsigned hostThreads();
std::string hostIsa();

/** Prints the set-up "ready" line run.py waits for. */
void announceReady();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
