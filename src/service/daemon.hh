/**
 * @file
 * swccd: the model-as-a-service daemon.
 *
 * Architecture (see DESIGN §10):
 *
 *   acceptor thread ──► connection threads (one per client)
 *        │                   │  decode + validate frames
 *        │                   ▼
 *        │            lock-free MPMC submission queue
 *        │                   │
 *        │                   ▼
 *        │            batching workers (config.workers threads):
 *        │              pop up to config.batchMax submissions,
 *        │              ServiceKernel::evaluateBatch() coalesces
 *        │              same-workload queries into one batched
 *        │              curve solve, complete each slot
 *        │                   │
 *        └───────────────────▼
 *              connection thread flushes completed responses
 *              in request order with one writev() per burst
 *
 * Responses to one connection are delivered strictly in request
 * order. A batch forms naturally from whatever is in flight when a
 * worker polls the queue — there is no artificial batching delay, so
 * an idle daemon answers a lone query at point-solve latency while a
 * loaded daemon amortizes whole batches into single kernel calls and
 * single writev() bursts.
 *
 * Graceful drain: requestStop() (async-signal-safe) stops the
 * acceptor, lets every connection finish decoding what has already
 * arrived, waits for the workers to answer all of it, flushes, and
 * only then tears threads down — an accepted request is always
 * answered. Malformed input never wedges a worker: frames are fully
 * validated on the connection thread and answered there with an
 * error response (recoverable field errors keep the connection;
 * framing violations close it after the error is sent).
 */

#ifndef SWCC_SERVICE_DAEMON_HH
#define SWCC_SERVICE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "service/service_kernel.hh"

namespace swcc::service
{

struct DaemonConfig
{
    /** Filesystem path of the unix-domain listening socket. */
    std::string socketPath;
    /** Batching worker threads (at most kMaxThreads). */
    unsigned workers = 4;
    /** Max submissions coalesced into one kernel batch (>= 1). */
    unsigned batchMax = 64;
    /** Admission limits forwarded to the ServiceKernel. */
    ServiceKernel::Limits limits;
    /** Concurrent connections admitted, one thread each (at most
     *  kMaxThreads); extras are refused. */
    unsigned maxConnections = 1024;
    /**
     * Queries whose decode-to-completion latency reaches this many
     * microseconds are logged as structured JSON lines through the
     * leveled logger (warn level). 0 disables the slow-query log.
     */
    std::uint64_t slowQueryUs = 0;
    /** Completed-request summaries kept by the flight recorder. */
    std::size_t flightRecords = 1024;
    /**
     * Flight-recorder dump destination for dumpFlightRecorder();
     * empty means "<socketPath>.flight.json".
     */
    std::string flightRecorderPath;
};

class ServiceDaemon
{
  public:
    /** @throws std::invalid_argument if config.workers or
     *  config.maxConnections exceeds kMaxThreads. */
    explicit ServiceDaemon(DaemonConfig config);

    /** Joins all threads; equivalent to stop() if still running. */
    ~ServiceDaemon();

    ServiceDaemon(const ServiceDaemon &) = delete;
    ServiceDaemon &operator=(const ServiceDaemon &) = delete;

    /**
     * Binds the socket (replacing a stale file at the path), spawns
     * the acceptor and worker threads, and returns once the daemon
     * accepts connections.
     *
     * @throws std::runtime_error if the socket cannot be bound.
     */
    void start();

    /**
     * Triggers a graceful drain without blocking. Safe to call from
     * a signal handler (one write() on an internal pipe).
     */
    void requestStop();

    /** Full graceful shutdown: requestStop(), drain, join, unlink. */
    void stop();

    bool running() const;

    const DaemonConfig &config() const;

    /**
     * The Prometheus text-exposition document served by the
     * protocol's Scrape request, the daemon's one stats surface: the
     * daemon's own counters (queries, batches, connections, errors),
     * point-in-time gauges (queue depth, in-flight, active
     * connections, workers, batch limit), the merged per-worker
     * obs::Histogram snapshots, and the process metrics registry
     * (solver, kernel and pool counters).
     */
    std::string scrapeText() const;

    /**
     * Writes the flight-recorder snapshot (last N completed-request
     * summaries) as JSON via atomicWriteFile and returns the path
     * written (config().flightRecorderPath, defaulting to
     * "<socketPath>.flight.json").
     *
     * @throws std::runtime_error if the file cannot be written.
     */
    std::string dumpFlightRecorder() const;

    /** @internal Implementation state (public for daemon.cc only). */
    struct Impl;

  private:
    std::unique_ptr<Impl> impl_;
};

} // namespace swcc::service

#endif // SWCC_SERVICE_DAEMON_HH
