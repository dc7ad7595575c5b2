#include "core/campaign/journal.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <limits.h>
#include <sys/uio.h>
#include <unistd.h>

#include "core/campaign/cell_hash.hh"
#include "core/obs/log.hh"
#include "core/obs/metrics.hh"

namespace swcc::campaign
{

namespace
{

constexpr std::string_view kHeader = "# swcc journal v1\n";

/**
 * Ring capacity (a power of two): bounds memory while keeping
 * producers un-stalled.
 */
constexpr std::size_t kQueueCapacity = 1024;

/** Records coalesced into one writev+fsync group, at most. */
constexpr std::size_t kMaxBatchRecords = 512;

std::string
hex16(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xfu];
        value >>= 4;
    }
    return out;
}

bool
parseHex16(std::string_view token, std::uint64_t &out)
{
    if (token.size() != 16) {
        return false;
    }
    std::uint64_t value = 0;
    for (char c : token) {
        value <<= 4;
        if (c >= '0' && c <= '9') {
            value |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return false;
        }
    }
    out = value;
    return true;
}

double
bitsToDouble(std::uint64_t bits)
{
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

std::uint64_t
doubleToBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Records one committed group: how many records, one fsync. */
void
noteCommit(std::size_t records)
{
    static obs::Counter &recs =
        obs::metrics().counter("journal.records");
    static obs::Counter &batches =
        obs::metrics().counter("journal.batches");
    static obs::Counter &fsyncs =
        obs::metrics().counter("journal.fsyncs");
    recs.add(records);
    batches.add(1);
    fsyncs.add(1);
}

/**
 * Paths already opened by a Journal in this process. A campaign's
 * first writer decides freshness (truncate unless resuming); later
 * drivers sharing the path — e.g. several validate() calls of one
 * bench — always append.
 */
std::mutex opened_mutex;
std::set<std::string> opened_paths;

} // namespace

Journal::Journal(std::string path, bool keep_existing)
    : path_(std::move(path)), queue_(kQueueCapacity)
{
    bool truncate = !keep_existing;
    {
        std::lock_guard<std::mutex> lock(opened_mutex);
        if (!opened_paths.insert(path_).second) {
            truncate = false; // A writer this run already owns it.
        }
    }
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate) {
        flags |= O_TRUNC;
    }
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0) {
        throw std::runtime_error("cannot open journal " + path_ +
                                 ": " + std::strerror(errno));
    }
    // An empty (fresh or truncated) journal gets the version header.
    if (::lseek(fd_, 0, SEEK_END) == 0) {
        if (::write(fd_, kHeader.data(), kHeader.size()) < 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            throw std::runtime_error("cannot write journal " + path_ +
                                     ": " + std::strerror(err));
        }
    }
    committer_ = std::thread([this] { commitLoop(); });
}

Journal::~Journal()
{
    stop_.store(true, std::memory_order_release);
    queueCv_.notify_all();
    if (committer_.joinable()) {
        committer_.join(); // Drains and commits everything enqueued.
    }
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

void
Journal::append(std::uint64_t key, const std::vector<double> &values)
{
    // Format on the completing lane — cheap CPU work parallelises;
    // only the durability I/O is funnelled to the committer.
    std::string record = hex16(key);
    record += ' ';
    record += std::to_string(values.size());
    for (double value : values) {
        record += ' ';
        record += hex16(doubleToBits(value));
    }
    record += ' ';
    record += hex16(fnv1a64(record.data(), record.size(),
                            0xcbf29ce484222325ull));
    record += '\n';

    while (!queue_.tryPush(std::move(record))) {
        // Full ring: backpressure. Wait for the committer to drain a
        // group (or surface its error) instead of dropping data.
        std::unique_lock<std::mutex> lock(waitMutex_);
        if (error_) {
            std::rethrow_exception(error_);
        }
        queueCv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    enqueued_.fetch_add(1, std::memory_order_release);
    queueCv_.notify_all();
}

void
Journal::sync()
{
    const std::uint64_t target = enqueued_.load(std::memory_order_acquire);
    std::unique_lock<std::mutex> lock(waitMutex_);
    queueCv_.notify_all();
    committedCv_.wait(lock, [&] {
        return error_ != nullptr ||
            committed_.load(std::memory_order_acquire) >= target;
    });
    if (error_) {
        std::rethrow_exception(error_);
    }
}

void
Journal::commitLoop()
{
    std::vector<std::string> batch;
    batch.reserve(kMaxBatchRecords);
    for (;;) {
        batch.clear();
        std::string record;
        while (batch.size() < kMaxBatchRecords &&
               queue_.tryPop(record)) {
            batch.push_back(std::move(record));
        }
        if (batch.empty()) {
            if (stop_.load(std::memory_order_acquire)) {
                // One final race-free check: stop_ is set before the
                // destructor joins, and producers are gone by then.
                if (!queue_.tryPop(record)) {
                    return;
                }
                batch.push_back(std::move(record));
            } else {
                std::unique_lock<std::mutex> lock(waitMutex_);
                queueCv_.wait_for(
                    lock, std::chrono::milliseconds(1), [&] {
                        return stop_.load(std::memory_order_acquire) ||
                            enqueued_.load(std::memory_order_acquire) >
                            committed_.load(std::memory_order_acquire);
                    });
                continue;
            }
        }
        try {
            commitBatch(batch);
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(waitMutex_);
                if (!error_) {
                    error_ = std::current_exception();
                }
                // Count the group as resolved so waiters unblock and
                // observe the error instead of the count.
                committed_.fetch_add(batch.size(),
                                     std::memory_order_release);
            }
            committedCv_.notify_all();
            queueCv_.notify_all();
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(waitMutex_);
            committed_.fetch_add(batch.size(),
                                 std::memory_order_release);
        }
        committedCv_.notify_all();
        queueCv_.notify_all();
    }
}

void
Journal::commitBatch(const std::vector<std::string> &batch)
{
    // Coalesce the whole group into as few writev() calls as the
    // IOV_MAX limit allows, then make it durable with ONE fsync.
    constexpr std::size_t kMaxIov = IOV_MAX < 1024 ? IOV_MAX : 1024;
    std::vector<struct iovec> iov;
    iov.reserve(std::min(batch.size(), kMaxIov));

    std::size_t next = 0;
    while (next < batch.size()) {
        iov.clear();
        std::size_t bytes = 0;
        const std::size_t limit =
            std::min(batch.size(), next + kMaxIov);
        for (std::size_t i = next; i < limit; ++i) {
            iov.push_back(
                {const_cast<char *>(batch[i].data()), batch[i].size()});
            bytes += batch[i].size();
        }
        std::size_t written = 0;
        std::size_t first = 0;
        while (written < bytes) {
            const ssize_t n = ::writev(
                fd_, iov.data() + first,
                static_cast<int>(iov.size() - first));
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                throw std::runtime_error(
                    "cannot append to journal " + path_ + ": " +
                    std::strerror(errno));
            }
            written += static_cast<std::size_t>(n);
            std::size_t left = static_cast<std::size_t>(n);
            while (left > 0 && first < iov.size()) {
                if (iov[first].iov_len <= left) {
                    left -= iov[first].iov_len;
                    ++first;
                } else {
                    iov[first].iov_base =
                        static_cast<char *>(iov[first].iov_base) + left;
                    iov[first].iov_len -= left;
                    left = 0;
                }
            }
        }
        next = limit;
    }
    if (::fsync(fd_) != 0) {
        throw std::runtime_error("cannot fsync journal " + path_);
    }
    noteCommit(batch.size());
}

std::unordered_map<std::uint64_t, std::vector<double>>
Journal::load(const std::string &path)
{
    std::unordered_map<std::uint64_t, std::vector<double>> records;
    std::ifstream is(path);
    if (!is) {
        return records; // No journal yet: nothing to resume.
    }
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') {
            continue;
        }
        // Split the trailing checksum from the covered prefix.
        const auto last_space = line.rfind(' ');
        std::uint64_t checksum = 0;
        if (last_space == std::string::npos ||
            !parseHex16(std::string_view(line).substr(last_space + 1),
                        checksum) ||
            checksum != fnv1a64(line.data(), last_space + 1,
                                0xcbf29ce484222325ull)) {
            SWCC_LOG_WARN("journal " + path + ": torn record at line " +
                          std::to_string(line_no) +
                          "; ignoring it and everything after");
            break;
        }
        std::istringstream fields(line.substr(0, last_space));
        std::string key_token;
        std::size_t count = 0;
        std::uint64_t key = 0;
        if (!(fields >> key_token >> count) ||
            !parseHex16(key_token, key)) {
            SWCC_LOG_WARN("journal " + path + ": malformed record at "
                          "line " + std::to_string(line_no));
            break;
        }
        std::vector<double> values;
        values.reserve(count);
        bool ok = true;
        for (std::size_t i = 0; i < count; ++i) {
            std::string value_token;
            std::uint64_t bits = 0;
            if (!(fields >> value_token) ||
                !parseHex16(value_token, bits)) {
                ok = false;
                break;
            }
            values.push_back(bitsToDouble(bits));
        }
        if (!ok) {
            SWCC_LOG_WARN("journal " + path + ": malformed record at "
                          "line " + std::to_string(line_no));
            break;
        }
        records[key] = std::move(values); // Last record wins.
    }
    return records;
}

} // namespace swcc::campaign
