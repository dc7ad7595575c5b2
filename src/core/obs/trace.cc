#include "core/obs/trace.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/campaign/atomic_file.hh"
#include "core/obs/json.hh"
#include "core/obs/log.hh"

namespace swcc::obs
{

namespace
{

std::string
renderTs(double value)
{
    std::ostringstream os;
    os.precision(15);
    os << value;
    return os.str();
}

} // namespace

TraceRecorder &
tracer()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
    if (on) {
        setProcessName(kWallPid, "swcc");
    }
}

std::uint32_t
TraceRecorder::intern(std::string_view name)
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

TraceRecorder::Ring &
TraceRecorder::localRing()
{
    // Safe raw cache: rings are owned by the process-lifetime recorder
    // and survive clearForTest() (which only empties them).
    thread_local Ring *cached = nullptr;
    if (cached == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto ring = std::make_unique<Ring>(
            ringCapacity_.load(std::memory_order_relaxed), nextTid_++);
        cached = ring.get();
        rings_.push_back(std::move(ring));
    }
    return *cached;
}

std::int32_t
TraceRecorder::callerTid()
{
    return localRing().tid;
}

void
TraceRecorder::append(const TraceRecord &record)
{
    Ring &ring = localRing();
    const std::uint64_t n =
        ring.count.load(std::memory_order_relaxed);
    ring.records[n % ring.records.size()] = record;
    // Release so a quiescent-point reader sees the record contents.
    ring.count.store(n + 1, std::memory_order_release);
}

void
TraceRecorder::recordComplete(std::uint32_t name, std::int32_t pid,
                              std::int32_t tid, double ts, double dur)
{
    append({ts, dur, name, pid, tid, TraceRecord::Kind::Complete});
}

void
TraceRecorder::recordBegin(std::uint32_t name, std::int32_t pid,
                           std::int32_t tid, double ts)
{
    append({ts, 0.0, name, pid, tid, TraceRecord::Kind::Begin});
}

void
TraceRecorder::recordEnd(std::int32_t pid, std::int32_t tid, double ts)
{
    append({ts, 0.0, 0, pid, tid, TraceRecord::Kind::End});
}

void
TraceRecorder::recordInstant(std::uint32_t name, std::int32_t pid,
                             std::int32_t tid, double ts)
{
    append({ts, 0.0, name, pid, tid, TraceRecord::Kind::Instant});
}

void
TraceRecorder::recordCounter(std::uint32_t name, std::int32_t pid,
                             std::int32_t tid, double ts, double value)
{
    append({ts, value, name, pid, tid, TraceRecord::Kind::Counter});
}

void
TraceRecorder::recordFlowStart(std::uint32_t name, std::int32_t pid,
                               std::int32_t tid, double ts,
                               std::uint64_t id)
{
    append({ts, 0.0, name, pid, tid, TraceRecord::Kind::FlowStart, id});
}

void
TraceRecorder::recordFlowStep(std::uint32_t name, std::int32_t pid,
                              std::int32_t tid, double ts,
                              std::uint64_t id)
{
    append({ts, 0.0, name, pid, tid, TraceRecord::Kind::FlowStep, id});
}

void
TraceRecorder::recordFlowEnd(std::uint32_t name, std::int32_t pid,
                             std::int32_t tid, double ts,
                             std::uint64_t id)
{
    append({ts, 0.0, name, pid, tid, TraceRecord::Kind::FlowEnd, id});
}

void
TraceRecorder::recordAsyncBegin(std::uint32_t name, std::int32_t pid,
                                std::int32_t tid, double ts,
                                std::uint64_t id)
{
    append(
        {ts, 0.0, name, pid, tid, TraceRecord::Kind::AsyncBegin, id});
}

void
TraceRecorder::recordAsyncEnd(std::uint32_t name, std::int32_t pid,
                              std::int32_t tid, double ts,
                              std::uint64_t id)
{
    append({ts, 0.0, name, pid, tid, TraceRecord::Kind::AsyncEnd, id});
}

void
TraceRecorder::setProcessName(std::int32_t pid, std::string name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[known, existing] : processNames_) {
        if (known == pid) {
            existing = std::move(name);
            return;
        }
    }
    processNames_.emplace_back(pid, std::move(name));
}

void
TraceRecorder::setThreadName(std::int32_t pid, std::int32_t tid,
                             std::string name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[known, existing] : threadNames_) {
        if (known.first == pid && known.second == tid) {
            existing = std::move(name);
            return;
        }
    }
    threadNames_.emplace_back(std::make_pair(pid, tid),
                              std::move(name));
}

std::int32_t
TraceRecorder::nextSimPid()
{
    return nextSimPid_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
TraceRecorder::droppedRecords() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t dropped = 0;
    for (const auto &ring : rings_) {
        const std::uint64_t n =
            ring->count.load(std::memory_order_acquire);
        const std::uint64_t cap = ring->records.size();
        dropped += n > cap ? n - cap : 0;
    }
    return dropped;
}

void
TraceRecorder::setRingCapacity(std::size_t records)
{
    ringCapacity_.store(std::max<std::size_t>(records, 16),
                        std::memory_order_relaxed);
}

void
TraceRecorder::writeChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Partition every surviving record into (pid, tid) streams,
    // oldest-first within each ring so ties keep their append order.
    std::map<std::pair<std::int32_t, std::int32_t>,
             std::vector<TraceRecord>>
        streams;
    for (const auto &ring : rings_) {
        const std::uint64_t n =
            ring->count.load(std::memory_order_acquire);
        const std::uint64_t cap = ring->records.size();
        const std::uint64_t first = n > cap ? n - cap : 0;
        for (std::uint64_t i = first; i < n; ++i) {
            const TraceRecord &record = ring->records[i % cap];
            streams[{record.pid, record.tid}].push_back(record);
        }
    }

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first_event = true;
    const auto emit = [&](const std::string &body) {
        if (!first_event) {
            os << ',';
        }
        first_event = false;
        os << '{' << body << '}';
    };

    for (const auto &[pid, name] : processNames_) {
        emit("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"args\":{\"name\":\"" +
             jsonEscape(name) + "\"}");
    }
    for (const auto &[key, name] : threadNames_) {
        emit("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(key.first) +
             ",\"tid\":" + std::to_string(key.second) +
             ",\"args\":{\"name\":\"" + jsonEscape(name) + "\"}");
    }

    for (auto &[key, records] : streams) {
        // Records land in the ring at span *end*; sort each stream by
        // start timestamp so readers see non-decreasing ts. The sort
        // is stable, so same-ts records keep their append order —
        // which is exactly the nesting order for B/E phases.
        std::stable_sort(records.begin(), records.end(),
                         [](const TraceRecord &a,
                            const TraceRecord &b) {
                             return a.ts < b.ts;
                         });

        const std::string common = ",\"pid\":" +
            std::to_string(key.first) +
            ",\"tid\":" + std::to_string(key.second);

        // Ring wrap can orphan an E (its B overwritten); drop those
        // and close any still-open B at the stream's last timestamp
        // so emitted B/E are balanced by construction.
        std::uint64_t depth = 0;
        double last_ts = 0.0;
        for (const TraceRecord &record : records) {
            last_ts = std::max(last_ts, record.ts + record.dur);
            const std::string name = record.name < names_.size()
                                         ? names_[record.name]
                                         : std::string();
            switch (record.kind) {
              case TraceRecord::Kind::Complete:
                emit("\"name\":\"" + jsonEscape(name) +
                     "\",\"cat\":\"swcc\",\"ph\":\"X\",\"ts\":" +
                     renderTs(record.ts) +
                     ",\"dur\":" + renderTs(record.dur) + common);
                break;
              case TraceRecord::Kind::Begin:
                ++depth;
                emit("\"name\":\"" + jsonEscape(name) +
                     "\",\"cat\":\"swcc\",\"ph\":\"B\",\"ts\":" +
                     renderTs(record.ts) + common);
                break;
              case TraceRecord::Kind::End:
                if (depth == 0) {
                    break; // Orphaned by ring wrap.
                }
                --depth;
                emit("\"ph\":\"E\",\"ts\":" + renderTs(record.ts) +
                     common);
                break;
              case TraceRecord::Kind::Instant:
                emit("\"name\":\"" + jsonEscape(name) +
                     "\",\"cat\":\"swcc\",\"ph\":\"i\",\"s\":\"t\","
                     "\"ts\":" +
                     renderTs(record.ts) + common);
                break;
              case TraceRecord::Kind::Counter:
                emit("\"name\":\"" + jsonEscape(name) +
                     "\",\"ph\":\"C\",\"ts\":" + renderTs(record.ts) +
                     ",\"args\":{\"value\":" + renderTs(record.dur) +
                     '}' + common);
                break;
              case TraceRecord::Kind::FlowStart:
              case TraceRecord::Kind::FlowStep:
              case TraceRecord::Kind::FlowEnd: {
                const char ph =
                    record.kind == TraceRecord::Kind::FlowStart ? 's'
                    : record.kind == TraceRecord::Kind::FlowStep
                        ? 't'
                        : 'f';
                std::string body = "\"name\":\"" + jsonEscape(name) +
                    "\",\"cat\":\"swcc.flow\",\"ph\":\"" + ph +
                    "\",\"id\":" + std::to_string(record.id) +
                    ",\"ts\":" + renderTs(record.ts);
                if (ph == 'f') {
                    // Bind the arrow head to the slice *enclosing*
                    // the end timestamp, not the next slice to start.
                    body += ",\"bp\":\"e\"";
                }
                emit(body + common);
                break;
              }
              case TraceRecord::Kind::AsyncBegin:
                emit("\"name\":\"" + jsonEscape(name) +
                     "\",\"cat\":\"swcc.async\",\"ph\":\"b\",\"id\":" +
                     std::to_string(record.id) +
                     ",\"ts\":" + renderTs(record.ts) + common);
                break;
              case TraceRecord::Kind::AsyncEnd:
                emit("\"name\":\"" + jsonEscape(name) +
                     "\",\"cat\":\"swcc.async\",\"ph\":\"e\",\"id\":" +
                     std::to_string(record.id) +
                     ",\"ts\":" + renderTs(record.ts) + common);
                break;
            }
        }
        for (; depth > 0; --depth) {
            emit("\"ph\":\"E\",\"ts\":" + renderTs(last_ts) + common);
        }
    }
    os << "]}\n";
}

void
TraceRecorder::clearForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &ring : rings_) {
        ring->count.store(0, std::memory_order_relaxed);
    }
    processNames_.clear();
    threadNames_.clear();
    nextSimPid_.store(2, std::memory_order_relaxed);
}

std::string
writeChromeTraceFile(const std::string &path)
{
    const std::uint64_t dropped = tracer().droppedRecords();
    if (dropped > 0) {
        SWCC_LOG_INFO("trace ring overwrote " +
                      std::to_string(dropped) +
                      " oldest records; timeline is truncated");
    }
    campaign::atomicWriteFile(
        path, [&](std::ostream &os) { tracer().writeChromeTrace(os); });
    return path;
}

} // namespace swcc::obs
