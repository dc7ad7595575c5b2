/**
 * @file
 * Flight recorder: a bounded lock-free ring of the last N completed
 * request summaries.
 *
 * Workers record one fixed-size summary per completed query; a slot
 * index comes from a single fetch_add, so recording never blocks and
 * never allocates. Each slot is guarded by a per-slot sequence
 * counter (seqlock discipline, but with every field individually
 * atomic so concurrent read/write stays data-race-free under TSan):
 * a writer bumps the sequence to odd, stores the fields, then bumps
 * it to the next even value. snapshot() re-checks the sequence after
 * reading and simply skips slots caught mid-write — a dump taken
 * while the daemon is under load loses at most the records being
 * overwritten at that instant.
 *
 * The recorder is always on (plain atomics, ~100 bytes/slot, no
 * obs dependency), so a daemon always yields a post-mortem dump on
 * SIGUSR1 or worker death.
 */

#ifndef SWCC_SERVICE_FLIGHT_RECORDER_HH
#define SWCC_SERVICE_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/service_kernel.hh"

namespace swcc::service
{

/** One completed-request summary (the readable snapshot form). */
struct FlightRecord
{
    std::uint64_t traceId = 0;
    /** Nanoseconds since daemon start when the query was decoded. */
    std::uint64_t decodeNs = 0;
    /** Time spent in the submission queue (ns). */
    std::uint64_t queueWaitNs = 0;
    /** Share of the batch's solver call (ns, whole-batch time). */
    std::uint64_t solveNs = 0;
    /** Decode-to-completion latency (ns). */
    std::uint64_t totalNs = 0;
    std::uint32_t batchSize = 0;
    std::uint32_t size = 0;
    QueryDomain domain = QueryDomain::Bus;
    Scheme scheme = Scheme::Base;
    bool ok = false;
};

class FlightRecorder
{
  public:
    /** @p capacity slots, rounded up to at least 16. */
    explicit FlightRecorder(std::size_t capacity);

    /** Records one summary; lock-free, wait-free but for fetch_add. */
    void record(const FlightRecord &record);

    /** Total records ever written (>= capacity means wrapped). */
    std::uint64_t totalRecorded() const;

    std::size_t capacity() const { return slots_.size(); }

    /**
     * Copies out every consistent slot, oldest first. Slots being
     * overwritten concurrently are skipped.
     */
    std::vector<FlightRecord> snapshot() const;

    /** Renders a snapshot as a JSON document (one object). */
    std::string toJson() const;

  private:
    struct Slot
    {
        /**
         * Even = consistent generation; odd = write in progress.
         * Mutable: const snapshot() rechecks it with a zero-delta
         * fetch_add (an acq_rel RMW orders the preceding field loads
         * without a thread fence, which TSan cannot instrument).
         */
        mutable std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> traceId{0};
        std::atomic<std::uint64_t> decodeNs{0};
        std::atomic<std::uint64_t> queueWaitNs{0};
        std::atomic<std::uint64_t> solveNs{0};
        std::atomic<std::uint64_t> totalNs{0};
        std::atomic<std::uint32_t> batchSize{0};
        std::atomic<std::uint32_t> size{0};
        std::atomic<std::uint8_t> domain{0};
        std::atomic<std::uint8_t> scheme{0};
        std::atomic<std::uint8_t> ok{0};
    };

    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> next_{0};
};

} // namespace swcc::service

#endif // SWCC_SERVICE_FLIGHT_RECORDER_HH
