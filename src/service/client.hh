/**
 * @file
 * Small blocking client for swccd, used by the load-generator bench,
 * the tests, and the `swcc service-query` convenience path.
 *
 * Supports pipelining: sendQuery() enqueues without waiting, and
 * recvResult() collects responses in request order, so a closed-loop
 * load generator can keep several requests in flight per connection.
 */

#ifndef SWCC_SERVICE_CLIENT_HH
#define SWCC_SERVICE_CLIENT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace swcc::service
{

class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** @throws std::runtime_error if the socket cannot be reached. */
    void connect(const std::string &socketPath);

    /**
     * Polls connect() until the daemon answers or @p timeout_ms
     * elapses; true on success. For "start daemon, wait ready" flows.
     */
    static bool waitForServer(const std::string &socketPath,
                              int timeout_ms);

    bool connected() const { return fd_ >= 0; }

    void close();

    /** Speak the JSON-lines dialect instead of binary frames. */
    void useJson(bool json) { json_ = json; }

    /** One blocking round trip. */
    QueryResult query(const Query &query);

    /** Pipelined send; pair each call with one recvResult(). */
    void sendQuery(const Query &query);

    /**
     * Next in-order query response.
     * @throws std::runtime_error on disconnect or framing violation.
     */
    QueryResult recvResult();

    /** Round-trips a ping; returns the echo payload. */
    std::string ping();

    /**
     * The daemon's Prometheus text-exposition snapshot. In JSON mode
     * the response's "scrape" field is unwrapped, so both dialects
     * return the same multi-line exposition text.
     */
    std::string scrape();

    /** Writes raw bytes (protocol robustness tests). */
    void sendRaw(const void *data, std::size_t size);

    /** Low-level: next response frame of any kind. */
    ResponseFrame recvResponse();

    /**
     * True when recvResult() would make progress without blocking on
     * the first read: buffered bytes or socket readable within
     * @p timeout_ms. Open-loop load generators drain with this.
     */
    bool pollReadable(int timeout_ms);

  private:
    bool fillMore();

    int fd_ = -1;
    bool json_ = false;
    std::vector<std::uint8_t> inbuf_;
    std::size_t offset_ = 0;
};

} // namespace swcc::service

#endif // SWCC_SERVICE_CLIENT_HH
