/**
 * @file
 * Append-only, checksummed campaign journal with group commit.
 *
 * As a campaign completes cells, each result becomes one
 * self-contained, checksummed record keyed by the cell's identity hash
 * (see cell_hash.hh). Records are formatted on the completing lane,
 * pushed onto a lock-free bounded completion queue, and drained by a
 * dedicated committer thread that coalesces whole batches into one
 * writev() + one fsync() — so durability costs one disk flush per
 * *group* of cells instead of one per cell, and completing lanes never
 * serialise on storage.
 *
 * Crash-safety contract (unchanged from the per-cell design): a cell
 * is only *recoverable* once its group commits. A process killed at
 * any instant loses at worst the uncommitted tail — at most one torn
 * record plus whole records that never reached the disk — and load()
 * stops at the first record that fails its checksum, distrusting
 * everything after. A resumed run (`--resume <journal>`) therefore
 * recovers exactly the cells that durably committed and recomputes the
 * rest; since cells are deterministic, the resumed CSVs are
 * byte-identical to an uninterrupted run's.
 *
 * Format (text, one record per line):
 *
 *   # swcc journal v1
 *   <key:16 hex> <n:dec> <v0:16 hex> ... <v(n-1):16 hex> <crc:16 hex>
 *
 * Values are IEEE-754 doubles by bit pattern — exact round trip. The
 * checksum is FNV-1a 64 over the record text up to and including the
 * space before the checksum field. Duplicate keys are legal (a re-run
 * cell appends again); the last record wins.
 */

#ifndef SWCC_CORE_CAMPAIGN_JOURNAL_HH
#define SWCC_CORE_CAMPAIGN_JOURNAL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/mpmc_queue.hh"

namespace swcc::campaign
{

/**
 * Writer half of the journal (see file comment). Thread-safe: cells
 * completing on different pool lanes enqueue concurrently; the
 * committer thread owns the file descriptor and all durability I/O.
 */
class Journal
{
  public:
    /**
     * Opens @p path for appending and starts the committer thread.
     *
     * The first Journal opened for a given path in this process with
     * @p keep_existing false truncates any stale file and writes a
     * fresh header; with @p keep_existing true (a resumed campaign, or
     * a later driver sharing the journal) existing records are kept
     * and new ones appended.
     *
     * @throws std::runtime_error if the file cannot be opened.
     */
    Journal(std::string path, bool keep_existing);

    /** Drains and commits every enqueued record, then joins. */
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Enqueues one record for group commit. Returns as soon as the
     * record is queued; durability is deferred to the record's group
     * (see sync()). Blocks only when the queue is full (backpressure).
     * Rethrows any error the committer has hit.
     */
    void append(std::uint64_t key, const std::vector<double> &values);

    /**
     * Blocks until every record enqueued before this call is durable
     * (written and fsync()ed), rethrowing any committer error. The
     * campaign calls this once per run phase, making "the run
     * completed" imply "the journal is complete".
     */
    void sync();

    const std::string &
    path() const
    {
        return path_;
    }

    /**
     * Loads every intact record of @p path into a key -> values map
     * (last record wins). A missing file yields an empty map. A
     * corrupt or torn record ends the scan: everything before it is
     * returned, everything after is distrusted (append-only order
     * means later records were written after the damage).
     */
    static std::unordered_map<std::uint64_t, std::vector<double>>
    load(const std::string &path);

  private:
    void commitLoop();

    /** One writev()-coalesced group followed by a single fsync(). */
    void commitBatch(const std::vector<std::string> &batch);

    std::string path_;
    int fd_ = -1;

    /**
     * Formatted records on their way to the committer thread. A
     * producer that finds it full waits on queueCv_: backpressure, not
     * loss.
     */
    MpmcQueue<std::string> queue_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> enqueued_{0};
    std::atomic<std::uint64_t> committed_{0};

    /** Guards error_ and backs both condition variables. */
    std::mutex waitMutex_;
    /** Producers <-> committer: work available / space freed. */
    std::condition_variable queueCv_;
    /** Committer -> sync() waiters: committed_ advanced. */
    std::condition_variable committedCv_;
    std::exception_ptr error_;

    std::thread committer_;
};

} // namespace swcc::campaign

#endif // SWCC_CORE_CAMPAIGN_JOURNAL_HH
