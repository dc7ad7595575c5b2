#include "service/protocol.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "core/obs/json.hh"

namespace swcc::service
{

namespace
{

constexpr std::size_t kQueryPayload = 96;
/** Ok payloads: 8 bytes of domain, padding and sizes, then f64s. */
constexpr std::uint32_t kBusResultPayload = 4 + 4 + 7 * 8;
constexpr std::uint32_t kNetworkResultPayload = 4 + 4 + 4 + 4 + 11 * 8;

/** Payload type carried in a response header's flags byte. */
enum class PayloadType : std::uint8_t
{
    Text = 0,
    BusResult = 1,
    NetworkResult = 2,
};

void
setU32(std::uint8_t *data, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i) {
        data[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
}

void
setF64(std::uint8_t *data, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        data[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
}

std::uint32_t
getU32(const std::uint8_t *data)
{
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i) {
        value = (value << 8) | data[i];
    }
    return value;
}

double
getF64(const std::uint8_t *data)
{
    std::uint64_t bits = 0;
    for (int i = 7; i >= 0; --i) {
        bits = (bits << 8) | data[i];
    }
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

/**
 * Grows @p out by one whole frame, header written and payload zeroed
 * (so padding and reserved bytes are 0), and returns the payload's
 * first byte for the caller to fill in place.
 */
std::uint8_t *
appendFrame(std::vector<std::uint8_t> &out, std::uint8_t magic,
            std::uint8_t kind_or_status, std::uint8_t flags,
            std::uint32_t payload_len)
{
    const std::size_t at = out.size();
    out.resize(at + kFrameHeader + payload_len);
    std::uint8_t *frame = out.data() + at;
    frame[0] = magic;
    frame[1] = kProtocolVersion;
    frame[2] = kind_or_status;
    frame[3] = flags;
    setU32(frame + 4, payload_len);
    return frame + kFrameHeader;
}

void
setParams(std::uint8_t *data, const WorkloadParams &p)
{
    setF64(data + 0 * 8, p.ls);
    setF64(data + 1 * 8, p.msdat);
    setF64(data + 2 * 8, p.mains);
    setF64(data + 3 * 8, p.md);
    setF64(data + 4 * 8, p.shd);
    setF64(data + 5 * 8, p.wr);
    setF64(data + 6 * 8, p.apl);
    setF64(data + 7 * 8, p.mdshd);
    setF64(data + 8 * 8, p.oclean);
    setF64(data + 9 * 8, p.opres);
    setF64(data + 10 * 8, p.nshd);
}

void
getParams(const std::uint8_t *data, WorkloadParams &p)
{
    p.ls = getF64(data + 0 * 8);
    p.msdat = getF64(data + 1 * 8);
    p.mains = getF64(data + 2 * 8);
    p.md = getF64(data + 3 * 8);
    p.shd = getF64(data + 4 * 8);
    p.wr = getF64(data + 5 * 8);
    p.apl = getF64(data + 6 * 8);
    p.mdshd = getF64(data + 7 * 8);
    p.oclean = getF64(data + 8 * 8);
    p.opres = getF64(data + 9 * 8);
    p.nshd = getF64(data + 10 * 8);
}

/** Sets one workload parameter by its JSON key; false if unknown. */
bool
setParamByName(WorkloadParams &params, std::string_view key,
               double value)
{
    if (key == "ls") {
        params.ls = value;
    } else if (key == "msdat") {
        params.msdat = value;
    } else if (key == "mains") {
        params.mains = value;
    } else if (key == "md") {
        params.md = value;
    } else if (key == "shd") {
        params.shd = value;
    } else if (key == "wr") {
        params.wr = value;
    } else if (key == "apl") {
        params.apl = value;
    } else if (key == "mdshd") {
        params.mdshd = value;
    } else if (key == "oclean") {
        params.oclean = value;
    } else if (key == "opres") {
        params.opres = value;
    } else if (key == "nshd") {
        params.nshd = value;
    } else {
        return false;
    }
    return true;
}

/** Reads a machine size, an integer in [0, 2^32 - 1]; false if none. */
bool
jsonSize(const obs::JsonValue *value, unsigned &out)
{
    if (value == nullptr || !value->isNumber() ||
        !(value->number >= 0.0 && value->number <= 4294967295.0) ||
        value->number != std::floor(value->number)) {
        return false;
    }
    out = static_cast<unsigned>(value->number);
    return true;
}

/** Parses one JSON request document into @p frame (fieldError on bad). */
void
parseJsonRequest(std::string_view line, RequestFrame &frame)
{
    frame.json = true;
    obs::JsonValue doc;
    try {
        doc = obs::parseJson(line);
    } catch (const std::exception &e) {
        frame.fieldError = std::string("bad JSON request: ") + e.what();
        return;
    }
    if (!doc.isObject()) {
        frame.fieldError = "JSON request must be an object";
        return;
    }
    bool saw_size = false;
    for (const auto &[key, value] : doc.object) {
        if (key == "cmd") {
            if (!value.isString()) {
                frame.fieldError = "cmd must be a string";
                return;
            }
            if (equalsIgnoringCase(value.string, "ping")) {
                frame.kind = RequestKind::Ping;
            } else if (equalsIgnoringCase(value.string, "scrape")) {
                frame.kind = RequestKind::Scrape;
            } else {
                frame.fieldError = "unknown cmd \"" + value.string +
                    "\" (expected ping or scrape)";
                return;
            }
        } else if (key == "domain") {
            if (!value.isString()) {
                frame.fieldError = "domain must be a string";
                return;
            }
            if (equalsIgnoringCase(value.string, "bus")) {
                frame.query.domain = QueryDomain::Bus;
            } else if (equalsIgnoringCase(value.string, "network")) {
                frame.query.domain = QueryDomain::Network;
            } else {
                frame.fieldError = "unknown domain \"" + value.string +
                    "\" (expected bus or network)";
                return;
            }
        } else if (key == "scheme") {
            const std::optional<Scheme> scheme = value.isString()
                ? parseScheme(value.string)
                : std::nullopt;
            if (!scheme) {
                frame.fieldError =
                    "unknown scheme (expected base, nocache, "
                    "softwareflush, dragon, mesi, mesif, moesi, or "
                    "hybrid)";
                return;
            }
            frame.query.scheme = *scheme;
        } else if (key == "size" || key == "n" || key == "cpus" ||
                   key == "stages") {
            if (!jsonSize(&value, frame.query.size)) {
                frame.fieldError =
                    "machine size must be an unsigned integer";
                return;
            }
            saw_size = true;
        } else if (key == "params") {
            if (!value.isObject()) {
                frame.fieldError = "params must be an object";
                return;
            }
            for (const auto &[pkey, pvalue] : value.object) {
                if (!pvalue.isNumber()) {
                    frame.fieldError = "workload parameter " + pkey +
                        " must be a number";
                    return;
                }
                if (!setParamByName(frame.query.params, pkey,
                                    pvalue.number)) {
                    frame.fieldError =
                        "unknown workload parameter \"" + pkey + "\"";
                    return;
                }
            }
        } else {
            frame.fieldError =
                "unknown request field \"" + key + "\"";
            return;
        }
    }
    if (frame.kind == RequestKind::Query && !saw_size) {
        frame.fieldError = "query is missing its machine size "
                           "(\"n\"/\"cpus\"/\"stages\")";
    }
}

void
appendJsonDouble(std::string &out, std::string_view key, double value)
{
    out += '"';
    out += key;
    out += "\":";
    out += formatDouble(value);
}

std::string
queryResultToJson(const QueryResult &result)
{
    std::string out;
    if (!result.ok) {
        out = "{\"ok\":false,\"error\":\"" +
            obs::jsonEscape(result.error) + "\"}";
        return out;
    }
    out = "{\"ok\":true,\"domain\":\"";
    out += domainName(result.domain);
    out += "\",";
    if (result.domain == QueryDomain::Bus) {
        const BusSolution &s = result.bus;
        out += "\"processors\":" + std::to_string(s.processors) + ",";
        appendJsonDouble(out, "cpu", s.cpu);
        out += ',';
        appendJsonDouble(out, "bus", s.bus);
        out += ',';
        appendJsonDouble(out, "waiting", s.waiting);
        out += ',';
        appendJsonDouble(out, "busUtilization", s.busUtilization);
        out += ',';
        appendJsonDouble(out, "busQueueLength", s.busQueueLength);
        out += ',';
        appendJsonDouble(out, "processorUtilization",
                         s.processorUtilization);
        out += ',';
        appendJsonDouble(out, "processingPower", s.processingPower);
    } else {
        const NetworkSolution &s = result.network;
        out += "\"stages\":" + std::to_string(s.stages) + ",";
        out += "\"processors\":" + std::to_string(s.processors) + ",";
        appendJsonDouble(out, "cpu", s.cpu);
        out += ',';
        appendJsonDouble(out, "network", s.network);
        out += ',';
        appendJsonDouble(out, "transactionRate", s.transactionRate);
        out += ',';
        appendJsonDouble(out, "unitRequestRate", s.unitRequestRate);
        out += ',';
        appendJsonDouble(out, "computeFraction", s.computeFraction);
        out += ',';
        appendJsonDouble(out, "inputLoad", s.inputLoad);
        out += ',';
        appendJsonDouble(out, "acceptance", s.acceptance);
        out += ',';
        appendJsonDouble(out, "cyclesPerInstruction",
                         s.cyclesPerInstruction);
        out += ',';
        appendJsonDouble(out, "waiting", s.waiting);
        out += ',';
        appendJsonDouble(out, "processorUtilization",
                         s.processorUtilization);
        out += ',';
        appendJsonDouble(out, "processingPower", s.processingPower);
    }
    out += '}';
    return out;
}

/** Reads one numeric member into @p out; false if absent/not numeric. */
bool
jsonNumber(const obs::JsonValue &doc, std::string_view key,
           double &out)
{
    const obs::JsonValue *value = doc.find(key);
    if (value == nullptr || !value->isNumber()) {
        return false;
    }
    out = value->number;
    return true;
}

bool
parseJsonResponse(std::string_view line, ResponseFrame &frame,
                  std::string &error)
{
    obs::JsonValue doc;
    try {
        doc = obs::parseJson(line);
    } catch (const std::exception &e) {
        error = std::string("bad JSON response: ") + e.what();
        return false;
    }
    if (!doc.isObject()) {
        error = "JSON response must be an object";
        return false;
    }
    const obs::JsonValue *ok = doc.find("ok");
    if (ok == nullptr || ok->type != obs::JsonValue::Type::Bool) {
        // No ok field: a plain text payload; pass it through.
        frame.status = ResponseStatus::Ok;
        frame.text = line;
        return true;
    }
    if (!ok->boolean) {
        frame.status = ResponseStatus::BadRequest;
        const obs::JsonValue *message = doc.find("error");
        frame.text = message != nullptr && message->isString()
            ? message->string
            : "unknown error";
        return true;
    }
    const obs::JsonValue *domain = doc.find("domain");
    if (domain == nullptr || !domain->isString()) {
        // ok:true without a domain: a control acknowledgement.
        frame.status = ResponseStatus::Ok;
        frame.text = line;
        return true;
    }
    frame.status = ResponseStatus::Ok;
    frame.isQueryResult = true;
    const auto size = [&](std::string_view key, unsigned &out) {
        if (!jsonSize(doc.find(key), out)) {
            error = "response " + std::string(key) +
                " must be an unsigned 32-bit integer";
            return false;
        }
        return true;
    };
    if (domain->string == "bus") {
        frame.domain = QueryDomain::Bus;
        BusSolution &s = frame.bus;
        if (!size("processors", s.processors)) {
            return false;
        }
        jsonNumber(doc, "cpu", s.cpu);
        jsonNumber(doc, "bus", s.bus);
        jsonNumber(doc, "waiting", s.waiting);
        jsonNumber(doc, "busUtilization", s.busUtilization);
        jsonNumber(doc, "busQueueLength", s.busQueueLength);
        jsonNumber(doc, "processorUtilization", s.processorUtilization);
        jsonNumber(doc, "processingPower", s.processingPower);
    } else {
        frame.domain = QueryDomain::Network;
        NetworkSolution &s = frame.network;
        if (!size("stages", s.stages) ||
            (doc.find("processors") != nullptr &&
             !size("processors", s.processors))) {
            return false;
        }
        jsonNumber(doc, "cpu", s.cpu);
        jsonNumber(doc, "network", s.network);
        jsonNumber(doc, "transactionRate", s.transactionRate);
        jsonNumber(doc, "unitRequestRate", s.unitRequestRate);
        jsonNumber(doc, "computeFraction", s.computeFraction);
        jsonNumber(doc, "inputLoad", s.inputLoad);
        jsonNumber(doc, "acceptance", s.acceptance);
        jsonNumber(doc, "cyclesPerInstruction", s.cyclesPerInstruction);
        jsonNumber(doc, "waiting", s.waiting);
        jsonNumber(doc, "processorUtilization", s.processorUtilization);
        jsonNumber(doc, "processingPower", s.processingPower);
    }
    return true;
}

/** Locates one text line; returns NeedMore/BadFrame/Frame. */
DecodeStatus
takeLine(const std::uint8_t *data, std::size_t size,
         std::size_t &consumed, std::string_view &line,
         std::string &error)
{
    const std::size_t window = std::min(size, kMaxJsonLine);
    const void *nl = std::memchr(data, '\n', window);
    if (nl == nullptr) {
        if (size >= kMaxJsonLine) {
            error = "JSON request line exceeds " +
                std::to_string(kMaxJsonLine) + " bytes";
            return DecodeStatus::BadFrame;
        }
        return DecodeStatus::NeedMore;
    }
    std::size_t length = static_cast<std::size_t>(
        static_cast<const std::uint8_t *>(nl) - data);
    consumed = length + 1;
    if (length > 0 && data[length - 1] == '\r') {
        --length;
    }
    line = std::string_view(reinterpret_cast<const char *>(data),
                            length);
    return DecodeStatus::Frame;
}

} // namespace

std::string
formatDouble(double value)
{
    char buffer[40];
    const auto [ptr, ec] =
        std::to_chars(buffer, buffer + sizeof buffer, value);
    if (ec != std::errc()) {
        return "0"; // Cannot happen: the buffer fits any double.
    }
    return std::string(buffer, ptr);
}

void
appendQueryRequest(std::vector<std::uint8_t> &out, const Query &query)
{
    std::uint8_t *payload = appendFrame(
        out, kRequestMagic, static_cast<std::uint8_t>(RequestKind::Query),
        0, kQueryPayload);
    payload[0] = static_cast<std::uint8_t>(query.domain);
    payload[1] = static_cast<std::uint8_t>(query.scheme);
    setU32(payload + 4, query.size);
    setParams(payload + 8, query.params);
}

void
appendControlRequest(std::vector<std::uint8_t> &out, RequestKind kind)
{
    appendFrame(out, kRequestMagic, static_cast<std::uint8_t>(kind), 0, 0);
}

void
appendQueryResponse(std::vector<std::uint8_t> &out,
                    const QueryResult &result, bool json)
{
    if (json) {
        const std::string line = queryResultToJson(result) + "\n";
        out.insert(out.end(), line.begin(), line.end());
        return;
    }
    if (!result.ok) {
        appendTextResponse(out, ResponseStatus::BadRequest,
                           result.error, false);
        return;
    }
    const auto ok = static_cast<std::uint8_t>(ResponseStatus::Ok);
    if (result.domain == QueryDomain::Bus) {
        const BusSolution &s = result.bus;
        std::uint8_t *payload = appendFrame(
            out, kResponseMagic, ok,
            static_cast<std::uint8_t>(PayloadType::BusResult),
            kBusResultPayload);
        payload[0] = static_cast<std::uint8_t>(result.domain);
        setU32(payload + 4, s.processors);
        setF64(payload + 8, s.cpu);
        setF64(payload + 16, s.bus);
        setF64(payload + 24, s.waiting);
        setF64(payload + 32, s.busUtilization);
        setF64(payload + 40, s.busQueueLength);
        setF64(payload + 48, s.processorUtilization);
        setF64(payload + 56, s.processingPower);
        return;
    }
    const NetworkSolution &s = result.network;
    std::uint8_t *payload = appendFrame(
        out, kResponseMagic, ok,
        static_cast<std::uint8_t>(PayloadType::NetworkResult),
        kNetworkResultPayload);
    payload[0] = static_cast<std::uint8_t>(result.domain);
    setU32(payload + 4, s.stages);
    setU32(payload + 8, s.processors);
    setF64(payload + 16, s.cpu);
    setF64(payload + 24, s.network);
    setF64(payload + 32, s.transactionRate);
    setF64(payload + 40, s.unitRequestRate);
    setF64(payload + 48, s.computeFraction);
    setF64(payload + 56, s.inputLoad);
    setF64(payload + 64, s.acceptance);
    setF64(payload + 72, s.cyclesPerInstruction);
    setF64(payload + 80, s.waiting);
    setF64(payload + 88, s.processorUtilization);
    setF64(payload + 96, s.processingPower);
}

void
appendTextResponse(std::vector<std::uint8_t> &out,
                   ResponseStatus status, std::string_view text,
                   bool json)
{
    if (json) {
        std::string line;
        if (status == ResponseStatus::Ok) {
            line.assign(text);
        } else {
            line = "{\"ok\":false,\"error\":\"" +
                obs::jsonEscape(text) + "\"}";
        }
        line += '\n';
        out.insert(out.end(), line.begin(), line.end());
        return;
    }
    const std::size_t length =
        std::min<std::size_t>(text.size(), kMaxResponsePayload);
    std::uint8_t *payload = appendFrame(
        out, kResponseMagic, static_cast<std::uint8_t>(status),
        static_cast<std::uint8_t>(PayloadType::Text),
        static_cast<std::uint32_t>(length));
    std::copy_n(text.data(), length, payload);
}

DecodeStatus
decodeRequest(const std::uint8_t *data, std::size_t size,
              std::size_t &consumed, RequestFrame &frame,
              std::string &error)
{
    consumed = 0;
    frame = RequestFrame{};
    if (size == 0) {
        return DecodeStatus::NeedMore;
    }
    if (data[0] == '{') {
        std::string_view line;
        const DecodeStatus status =
            takeLine(data, size, consumed, line, error);
        if (status != DecodeStatus::Frame) {
            return status;
        }
        parseJsonRequest(line, frame);
        return DecodeStatus::Frame;
    }
    if (data[0] != kRequestMagic) {
        error = "unrecognized request framing (expected binary magic "
                "or a JSON line)";
        return DecodeStatus::BadFrame;
    }
    if (size < kFrameHeader) {
        return DecodeStatus::NeedMore;
    }
    if (data[1] != kProtocolVersion) {
        error = "unsupported protocol version " +
            std::to_string(int{data[1]});
        return DecodeStatus::BadFrame;
    }
    const std::uint32_t length = getU32(data + 4);
    if (length > kMaxRequestPayload) {
        error = "request length prefix " + std::to_string(length) +
            " exceeds the " + std::to_string(kMaxRequestPayload) +
            "-byte limit";
        return DecodeStatus::BadFrame;
    }
    if (size < kFrameHeader + length) {
        return DecodeStatus::NeedMore;
    }
    consumed = kFrameHeader + length;
    const std::uint8_t kind = data[2];
    const std::uint8_t *payload = data + kFrameHeader;
    switch (kind) {
      case static_cast<std::uint8_t>(RequestKind::Query): {
        frame.kind = RequestKind::Query;
        if (length != kQueryPayload) {
            frame.fieldError = "query payload must be " +
                std::to_string(kQueryPayload) + " bytes, got " +
                std::to_string(length);
            return DecodeStatus::Frame;
        }
        const std::uint8_t domain = payload[0];
        const std::uint8_t scheme = payload[1];
        if (domain > 1) {
            frame.fieldError = "unknown query domain";
            return DecodeStatus::Frame;
        }
        if (scheme >= kNumSchemes) {
            frame.fieldError = "unknown scheme";
            return DecodeStatus::Frame;
        }
        frame.query.domain = static_cast<QueryDomain>(domain);
        frame.query.scheme = static_cast<Scheme>(scheme);
        frame.query.size = getU32(payload + 4);
        getParams(payload + 8, frame.query.params);
        return DecodeStatus::Frame;
      }
      case static_cast<std::uint8_t>(RequestKind::Ping):
      case static_cast<std::uint8_t>(RequestKind::Scrape):
        frame.kind = static_cast<RequestKind>(kind);
        if (length != 0) {
            frame.fieldError = "control requests carry no payload";
        }
        return DecodeStatus::Frame;
      default:
        frame.fieldError =
            "unknown request kind " + std::to_string(int{kind});
        return DecodeStatus::Frame;
    }
}

DecodeStatus
decodeResponse(const std::uint8_t *data, std::size_t size,
               std::size_t &consumed, ResponseFrame &frame,
               std::string &error)
{
    consumed = 0;
    frame = ResponseFrame{};
    if (size == 0) {
        return DecodeStatus::NeedMore;
    }
    if (data[0] == '{') {
        std::string_view line;
        const DecodeStatus status =
            takeLine(data, size, consumed, line, error);
        if (status != DecodeStatus::Frame) {
            return status;
        }
        return parseJsonResponse(line, frame, error)
            ? DecodeStatus::Frame
            : DecodeStatus::BadFrame;
    }
    if (data[0] != kResponseMagic) {
        error = "unrecognized response framing";
        return DecodeStatus::BadFrame;
    }
    if (size < kFrameHeader) {
        return DecodeStatus::NeedMore;
    }
    if (data[1] != kProtocolVersion) {
        error = "unsupported protocol version";
        return DecodeStatus::BadFrame;
    }
    const std::uint32_t length = getU32(data + 4);
    if (length > kMaxResponsePayload) {
        error = "response length prefix exceeds limit";
        return DecodeStatus::BadFrame;
    }
    if (size < kFrameHeader + length) {
        return DecodeStatus::NeedMore;
    }
    consumed = kFrameHeader + length;
    frame.status = static_cast<ResponseStatus>(data[2]);
    const std::uint8_t type = data[3];
    const std::uint8_t *payload = data + kFrameHeader;
    if (type == static_cast<std::uint8_t>(PayloadType::Text)) {
        frame.text.assign(reinterpret_cast<const char *>(payload),
                          length);
        return DecodeStatus::Frame;
    }
    if (type == static_cast<std::uint8_t>(PayloadType::BusResult)) {
        if (length != kBusResultPayload) {
            error = "bus result payload has the wrong size";
            return DecodeStatus::BadFrame;
        }
        frame.isQueryResult = true;
        frame.domain = QueryDomain::Bus;
        BusSolution &s = frame.bus;
        s.processors = getU32(payload + 4);
        s.cpu = getF64(payload + 8);
        s.bus = getF64(payload + 16);
        s.waiting = getF64(payload + 24);
        s.busUtilization = getF64(payload + 32);
        s.busQueueLength = getF64(payload + 40);
        s.processorUtilization = getF64(payload + 48);
        s.processingPower = getF64(payload + 56);
        return DecodeStatus::Frame;
    }
    if (type == static_cast<std::uint8_t>(PayloadType::NetworkResult)) {
        if (length != kNetworkResultPayload) {
            error = "network result payload has the wrong size";
            return DecodeStatus::BadFrame;
        }
        frame.isQueryResult = true;
        frame.domain = QueryDomain::Network;
        NetworkSolution &s = frame.network;
        s.stages = getU32(payload + 4);
        s.processors = getU32(payload + 8);
        s.cpu = getF64(payload + 16);
        s.network = getF64(payload + 24);
        s.transactionRate = getF64(payload + 32);
        s.unitRequestRate = getF64(payload + 40);
        s.computeFraction = getF64(payload + 48);
        s.inputLoad = getF64(payload + 56);
        s.acceptance = getF64(payload + 64);
        s.cyclesPerInstruction = getF64(payload + 72);
        s.waiting = getF64(payload + 80);
        s.processorUtilization = getF64(payload + 88);
        s.processingPower = getF64(payload + 96);
        return DecodeStatus::Frame;
    }
    error = "unknown response payload type";
    return DecodeStatus::BadFrame;
}

std::string
queryToJson(const Query &query)
{
    std::string out = "{\"domain\":\"";
    out += domainName(query.domain);
    out += "\",\"scheme\":\"";
    out += schemeName(query.scheme);
    out += "\",\"";
    out += query.domain == QueryDomain::Bus ? "cpus" : "stages";
    out += "\":" + std::to_string(query.size) + ",\"params\":{";
    const WorkloadParams &p = query.params;
    appendJsonDouble(out, "ls", p.ls);
    out += ',';
    appendJsonDouble(out, "msdat", p.msdat);
    out += ',';
    appendJsonDouble(out, "mains", p.mains);
    out += ',';
    appendJsonDouble(out, "md", p.md);
    out += ',';
    appendJsonDouble(out, "shd", p.shd);
    out += ',';
    appendJsonDouble(out, "wr", p.wr);
    out += ',';
    appendJsonDouble(out, "apl", p.apl);
    out += ',';
    appendJsonDouble(out, "mdshd", p.mdshd);
    out += ',';
    appendJsonDouble(out, "oclean", p.oclean);
    out += ',';
    appendJsonDouble(out, "opres", p.opres);
    out += ',';
    appendJsonDouble(out, "nshd", p.nshd);
    out += "}}";
    return out;
}

} // namespace swcc::service
