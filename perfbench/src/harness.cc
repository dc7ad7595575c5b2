#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <sched.h>
#include <sys/utsname.h>

#include "core/obs/json.hh"

namespace perfbench
{

std::uint64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
}

std::uint32_t
SpanLog::intern(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) {
            return static_cast<std::uint32_t>(i);
        }
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint64_t
SpanLog::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
SpanLog::record(const SpanRecord &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children;
    for (const SpanRecord &span : spans_) {
        if (span.parent != 0) {
            children[span.parent].emplace_back(span.startNs, span.endNs);
        }
    }
    std::map<std::string, Totals> out;
    for (const SpanRecord &span : spans_) {
        const std::uint64_t duration = span.endNs - span.startNs;
        std::uint64_t covered = 0;
        auto it = children.find(span.id);
        if (it != children.end()) {
            auto &intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            std::uint64_t lo = 0;
            std::uint64_t hi = 0;
            bool open = false;
            for (auto [s, e] : intervals) {
                s = std::clamp(s, span.startNs, span.endNs);
                e = std::clamp(e, span.startNs, span.endNs);
                if (open && s <= hi) {
                    hi = std::max(hi, e);
                    continue;
                }
                if (open) {
                    covered += hi - lo;
                }
                lo = s;
                hi = e;
                open = true;
            }
            if (open) {
                covered += hi - lo;
            }
        }
        Totals &t = out[names_[span.name]];
        t.totalMs += static_cast<double>(duration) * 1e-6;
        t.selfMs += static_cast<double>(duration - covered) * 1e-6;
        ++t.count;
    }
    return out;
}

void
SpanLog::writeChromeTrace(const std::string &path,
                          std::size_t max_per_name) const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // One event per X span, two per async span; Chrome's contract is
    // non-decreasing ts within each (pid, tid) stream, parents before
    // the children that start with them.
    struct Event
    {
        std::uint32_t tid;
        std::uint64_t ts;
        std::uint64_t order;
        char ph;
        const SpanRecord *span;
    };
    std::vector<Event> events;
    std::vector<std::size_t> perName(names_.size(), 0);
    std::size_t kept = 0;
    for (const SpanRecord &s : spans_) {
        if (perName[s.name]++ >= max_per_name) {
            continue;
        }
        ++kept;
        const std::uint64_t longestFirst = s.endNs - s.startNs;
        if (s.async) {
            events.push_back({s.tid, s.startNs, longestFirst, 'b', &s});
            events.push_back({s.tid, s.endNs, 0, 'e', &s});
        } else {
            events.push_back({s.tid, s.startNs, longestFirst, 'X', &s});
        }
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.tid != b.tid) {
                      return a.tid < b.tid;
                  }
                  if (a.ts != b.ts) {
                      return a.ts < b.ts;
                  }
                  return a.order > b.order;
              });

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        throw std::runtime_error("cannot write " + path);
    }
    char buf[64];
    const auto us = [&buf](std::uint64_t ns) {
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(ns) * 1e-3);
        return std::string(buf);
    };
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_recorded\":"
       << spans_.size() << ",\"spans_written\":" << kept
       << "},\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
          "\"args\":{\"name\":\"perfbench\"}}";
    for (const Event &e : events) {
        const SpanRecord &s = *e.span;
        os << ",\n{\"name\":\""
           << swcc::obs::jsonEscape(names_[s.name]) << "\",\"ph\":\""
           << e.ph << "\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << us(e.ts);
        if (e.ph == 'X') {
            os << ",\"dur\":" << us(s.endNs - s.startNs);
        } else {
            os << ",\"cat\":\"op\",\"id\":" << s.id;
        }
        if (e.ph != 'e') {
            os << ",\"args\":{\"op\":" << s.op << ",\"span\":" << s.id
               << ",\"parent\":" << s.parent << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
    if (!os) {
        throw std::runtime_error("short write to " + path);
    }
}

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

std::uint32_t
threadTid()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tid = next.fetch_add(1);
    return tid;
}

Span::Span(std::uint32_t name, std::uint64_t op, std::uint64_t parent)
    : name_(name), op_(op), parent_(parent)
{
    if (spanLog().enabled()) {
        id_ = spanLog().nextId();
        start_ = nowNs();
    }
}

Span::~Span()
{
    if (id_ != 0) {
        SpanRecord span;
        span.name = name_;
        span.id = id_;
        span.parent = parent_;
        span.op = op_;
        span.tid = threadTid();
        span.startNs = start_;
        span.endNs = nowNs();
        spanLog().record(span);
    }
}

void
Result::metric(const std::string &name, double value)
{
    metrics_.emplace_back(name, value);
}

void
Result::info(const std::string &name, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    info_.emplace_back(name, std::isfinite(value) ? buf : "null");
}

void
Result::info(const std::string &name, const std::string &value)
{
    info_.emplace_back(name,
                       "\"" + swcc::obs::jsonEscape(value) + "\"");
}

void
Result::fail(std::uint64_t ops, const std::string &what)
{
    failed += ops;
    if (failures_.size() < 20) {
        failures_.push_back(what);
    }
}

std::string
Result::toJson() const
{
    std::ostringstream os;
    char buf[64];
    os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].second);
        os << (i ? "," : "") << "\"" << metrics_[i].first << "\":"
           << (std::isfinite(metrics_[i].second) ? buf : "null");
    }
    os << "},\"info\":{";
    for (std::size_t i = 0; i < info_.size(); ++i) {
        os << (i ? "," : "") << "\"" << info_[i].first
           << "\":" << info_[i].second;
    }
    os << "},\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        os << (i ? "," : "") << "\""
           << swcc::obs::jsonEscape(failures_[i]) << "\"";
    }
    os << "],\"outputs\":{";
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        os << (i ? "," : "") << "\""
           << swcc::obs::jsonEscape(outputs[i].first) << "\":\""
           << outputs[i].second << "\"";
    }
    os << "}}";
    return os.str();
}

std::vector<double>
runPasses(double seconds, std::size_t min_passes,
          const std::function<void(std::size_t)> &pass)
{
    std::vector<double> times;
    const Clock::time_point start = Clock::now();
    do {
        const Clock::time_point t0 = Clock::now();
        pass(times.size());
        times.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
    } while (times.size() < min_passes ||
             std::chrono::duration<double>(Clock::now() - start).count() <
                 seconds);
    return times;
}

unsigned
pinForPass(std::size_t pass)
{
    static const std::vector<std::size_t> cpus = [] {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
            throw std::runtime_error("sched_getaffinity failed");
        }
        std::vector<std::size_t> out;
        for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed)) {
                out.push_back(c);
            }
        }
        return out;
    }();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[pass % cpus.size()], &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) {
        throw std::runtime_error("sched_setaffinity failed");
    }
    return static_cast<unsigned>(cpus.size());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t
OpTimes::count() const
{
    std::size_t n = 0;
    for (const auto &s : samples_) {
        n += s.size();
    }
    return n;
}

std::vector<double>
OpTimes::medians() const
{
    std::vector<double> out;
    for (const auto &s : samples_) {
        if (!s.empty()) {
            out.push_back(median(s));
        }
    }
    return out;
}

std::string
joined(const std::vector<double> &values)
{
    std::string out;
    char buf[32];
    for (double v : values) {
        std::snprintf(buf, sizeof buf, "%.4g", v);
        out += (out.empty() ? "" : " ") + std::string(buf);
    }
    return out;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
peakRssMb(int pid)
{
    const std::string path = pid == 0
        ? std::string("/proc/self/status")
        : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    throw std::runtime_error("no VmHWM in " + path);
}

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
hexBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return hex64(bits);
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
hostIsa()
{
    struct utsname name = {};
    return ::uname(&name) == 0 ? std::string(name.machine) : "unknown";
}

void
announceReady()
{
    std::cout << "ready" << std::endl;
}

} // namespace perfbench
