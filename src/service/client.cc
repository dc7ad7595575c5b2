#include "service/client.hh"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/obs/json.hh"

namespace swcc::service
{

namespace
{

int
connectOnce(const std::string &path)
{
    sockaddr_un addr{};
    if (path.empty() || path.size() >= sizeof addr.sun_path) {
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return -1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

ServiceClient::~ServiceClient()
{
    close();
}

void
ServiceClient::connect(const std::string &socketPath)
{
    close();
    fd_ = connectOnce(socketPath);
    if (fd_ < 0) {
        throw std::runtime_error("cannot connect to swccd at " +
                                 socketPath);
    }
}

bool
ServiceClient::waitForServer(const std::string &socketPath,
                             int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const int fd = connectOnce(socketPath);
        if (fd >= 0) {
            ::close(fd);
            return true;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    inbuf_.clear();
    offset_ = 0;
}

void
ServiceClient::sendRaw(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw std::runtime_error("swccd connection write failed");
        }
        sent += static_cast<std::size_t>(n);
    }
}

void
ServiceClient::sendQuery(const Query &query)
{
    if (json_) {
        std::string line = queryToJson(query);
        line += '\n';
        sendRaw(line.data(), line.size());
        return;
    }
    std::vector<std::uint8_t> out;
    appendQueryRequest(out, query);
    sendRaw(out.data(), out.size());
}

bool
ServiceClient::fillMore()
{
    std::uint8_t chunk[16 * 1024];
    for (;;) {
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n > 0) {
            inbuf_.insert(inbuf_.end(), chunk, chunk + n);
            return true;
        }
        if (n == 0) {
            return false;
        }
        if (errno == EINTR) {
            continue;
        }
        return false;
    }
}

bool
ServiceClient::pollReadable(int timeout_ms)
{
    if (offset_ < inbuf_.size()) {
        return true;
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    return ::poll(&pfd, 1, timeout_ms) > 0;
}

ResponseFrame
ServiceClient::recvResponse()
{
    for (;;) {
        ResponseFrame frame;
        std::string error;
        std::size_t consumed = 0;
        const DecodeStatus status =
            decodeResponse(inbuf_.data() + offset_,
                           inbuf_.size() - offset_, consumed, frame,
                           error);
        if (status == DecodeStatus::Frame) {
            offset_ += consumed;
            if (offset_ > 64 * 1024 || offset_ == inbuf_.size()) {
                inbuf_.erase(inbuf_.begin(),
                             inbuf_.begin() +
                                 static_cast<std::ptrdiff_t>(offset_));
                offset_ = 0;
            }
            return frame;
        }
        if (status == DecodeStatus::BadFrame) {
            throw std::runtime_error("swccd sent a malformed frame: " +
                                     error);
        }
        if (!fillMore()) {
            throw std::runtime_error(
                "swccd closed the connection mid-response");
        }
    }
}

QueryResult
ServiceClient::recvResult()
{
    const ResponseFrame frame = recvResponse();
    QueryResult result;
    result.domain = frame.domain;
    if (frame.isQueryResult && frame.status == ResponseStatus::Ok) {
        result.ok = true;
        result.bus = frame.bus;
        result.network = frame.network;
    } else {
        result.error = frame.text.empty()
            ? std::string("request failed")
            : frame.text;
    }
    return result;
}

QueryResult
ServiceClient::query(const Query &query)
{
    sendQuery(query);
    return recvResult();
}

std::string
ServiceClient::ping()
{
    if (json_) {
        const std::string line = "{\"cmd\":\"ping\"}\n";
        sendRaw(line.data(), line.size());
    } else {
        std::vector<std::uint8_t> out;
        appendControlRequest(out, RequestKind::Ping);
        sendRaw(out.data(), out.size());
    }
    return recvResponse().text;
}

std::string
ServiceClient::scrape()
{
    if (json_) {
        const std::string line = "{\"cmd\":\"scrape\"}\n";
        sendRaw(line.data(), line.size());
    } else {
        std::vector<std::uint8_t> out;
        appendControlRequest(out, RequestKind::Scrape);
        sendRaw(out.data(), out.size());
    }
    const std::string text = recvResponse().text;
    if (!json_) {
        return text;
    }
    const obs::JsonValue doc = obs::parseJson(text);
    if (!doc.isObject()) {
        throw std::runtime_error(
            "malformed scrape response: not a JSON object");
    }
    const obs::JsonValue *field = doc.find("scrape");
    if (field == nullptr || !field->isString()) {
        throw std::runtime_error(
            "scrape response missing \"scrape\" field");
    }
    return field->string;
}

} // namespace swcc::service
