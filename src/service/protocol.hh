/**
 * @file
 * swccd wire protocol: compact length-prefixed binary frames with a
 * JSON-lines fallback, sniffed per request by the first byte.
 *
 * Binary framing (all integers little-endian):
 *
 *   request  := 0xC5 version:u8 kind:u8 reserved:u8 len:u32 payload
 *   response := 0xC6 version:u8 status:u8 flags:u8 len:u32 payload
 *
 *   query payload (kind=Query, 96 bytes):
 *     domain:u8 scheme:u8 reserved:u16 size:u32 params:11 x f64
 *   ok-bus payload (64 bytes):
 *     domain:u8 pad:u8x3 processors:u32 + 7 x f64
 *   ok-network payload (104 bytes):
 *     domain:u8 pad:u8x3 stages:u32 processors:u32 pad:u32 + 11 x f64
 *   error payload:      UTF-8 message
 *   scrape payload:     Prometheus text exposition
 *
 * Padding and reserved bytes are zero. Every binary frame is encoded
 * in place: the buffer grows once by the whole frame, which is then
 * filled field by field. Doubles travel as raw IEEE-754 bit patterns,
 * so a binary response is bitwise identical to the in-process solver
 * output. The JSON
 * fallback (a request line starting with '{', answered by one JSON
 * line) formats doubles with shortest round-trip precision
 * (std::to_chars), so parsing a JSON response also reproduces the
 * exact bits.
 *
 * Robustness contract: decodeRequest() never reads past the supplied
 * buffer, never allocates proportionally to attacker-controlled
 * lengths, and classifies every malformed input as either a
 * recoverable field error (framing intact — the server answers with
 * an error response and keeps the connection) or a framing error
 * (bad magic/version, oversized length prefix, over-long JSON line —
 * the server answers once and closes the connection).
 */

#ifndef SWCC_SERVICE_PROTOCOL_HH
#define SWCC_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/service_kernel.hh"
#include "service/trace_context.hh"

namespace swcc::service
{

inline constexpr std::uint8_t kRequestMagic = 0xC5;
inline constexpr std::uint8_t kResponseMagic = 0xC6;
inline constexpr std::uint8_t kProtocolVersion = 1;

/** Frame header size (magic, version, kind/status, flag, u32 len). */
inline constexpr std::size_t kFrameHeader = 8;

/** Hard ceilings a peer cannot talk us past. */
inline constexpr std::uint32_t kMaxRequestPayload = 4096;
inline constexpr std::uint32_t kMaxResponsePayload = 1u << 20;
inline constexpr std::size_t kMaxJsonLine = 8192;

enum class RequestKind : std::uint8_t
{
    Query = 0,
    // 1 is retired and stays unassigned: it decodes as an unknown
    // kind, so an old client gets a field error, not a new meaning.
    Ping = 2,
    /** Prometheus text-exposition snapshot of the live daemon. */
    Scrape = 3,
};

enum class ResponseStatus : std::uint8_t
{
    Ok = 0,
    BadRequest = 1,
    ServerError = 2,
};

/** One decoded request, plus how to answer it. */
struct RequestFrame
{
    RequestKind kind = RequestKind::Query;
    Query query;
    /** Respond in JSON (the request arrived as a JSON line). */
    bool json = false;
    /** Non-empty: framing was intact but a field is invalid. */
    std::string fieldError;
    /** Minted by the server at decode; rides to the worker. */
    TraceContext trace;
};

/** One decoded response (client side). */
struct ResponseFrame
{
    ResponseStatus status = ResponseStatus::Ok;
    /** Error message / scrape or ping payload for non-query frames. */
    std::string text;
    bool isQueryResult = false;
    QueryDomain domain = QueryDomain::Bus;
    BusSolution bus;
    NetworkSolution network;
};

enum class DecodeStatus
{
    /** Buffer holds no complete frame yet; read more. */
    NeedMore,
    /** One frame decoded; @c consumed bytes were used. */
    Frame,
    /** Unrecoverable framing violation; close the connection. */
    BadFrame,
};

/** Appends a binary query request frame (client side). */
void appendQueryRequest(std::vector<std::uint8_t> &out,
                        const Query &query);

/** Appends a binary ping/scrape request frame (client side). */
void appendControlRequest(std::vector<std::uint8_t> &out,
                          RequestKind kind);

/**
 * Appends the response to a successful or failed query, binary or
 * JSON according to @p json.
 */
void appendQueryResponse(std::vector<std::uint8_t> &out,
                         const QueryResult &result, bool json);

/** Appends a text response (scrape text, ping echo, error). */
void appendTextResponse(std::vector<std::uint8_t> &out,
                        ResponseStatus status, std::string_view text,
                        bool json);

/**
 * Attempts to decode one request (binary or JSON line) from the front
 * of @p data. On Frame, @p consumed is the number of bytes to drop
 * and @p frame holds the request (check frame.fieldError). On
 * BadFrame, @p error describes the violation.
 */
DecodeStatus decodeRequest(const std::uint8_t *data, std::size_t size,
                           std::size_t &consumed, RequestFrame &frame,
                           std::string &error);

/**
 * Attempts to decode one binary or JSON response from the front of
 * @p data (client side; benches and tests).
 */
DecodeStatus decodeResponse(const std::uint8_t *data, std::size_t size,
                            std::size_t &consumed, ResponseFrame &frame,
                            std::string &error);

/** Shortest round-trip decimal form of @p value (std::to_chars). */
std::string formatDouble(double value);

/** Serializes a query as one JSON request line (without newline). */
std::string queryToJson(const Query &query);

} // namespace swcc::service

#endif // SWCC_SERVICE_PROTOCOL_HH
