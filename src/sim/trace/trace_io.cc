#include "sim/trace/trace_io.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/campaign/atomic_file.hh"
#include "core/obs/log.hh"

namespace swcc
{

namespace
{

constexpr std::array<char, 8> kMagic = {
    'S', 'W', 'C', 'C', 'T', 'R', 'C', '1',
};

/** Bytes every codec moves per stream call. */
constexpr std::size_t kBlockBytes = 64 * 1024;

/** One binary event: the address, then cpu | type << 16, both u64 LE. */
constexpr std::size_t kRecordBytes = 16;

/** Room for the longest text event, "65534 s ffffffffffffffff\n". */
constexpr std::size_t kMaxTextEventBytes = 32;

[[noreturn]] void
fail(const std::string &what)
{
    SWCC_LOG_WARN(what);
    throw std::runtime_error(what);
}

// Spelled out byte by byte so the compiler merges each into one
// 8-byte access on a little-endian host (a loop is left as 8 steps).
char *
storeU64(char *out, std::uint64_t value)
{
    const auto byte = [value](int i) {
        return static_cast<char>((value >> (8 * i)) & 0xffu);
    };
    out[0] = byte(0);
    out[1] = byte(1);
    out[2] = byte(2);
    out[3] = byte(3);
    out[4] = byte(4);
    out[5] = byte(5);
    out[6] = byte(6);
    out[7] = byte(7);
    return out + 8;
}

std::uint64_t
loadU64(const char *in)
{
    const auto byte = [in](int i) {
        return static_cast<std::uint64_t>(static_cast<std::uint8_t>(in[i]))
            << (8 * i);
    };
    return byte(0) | byte(1) | byte(2) | byte(3) | byte(4) | byte(5) |
        byte(6) | byte(7);
}

/**
 * Lines from the read position of @p is to its end (its newlines plus
 * one, as the last line needs none), read through once and rewound;
 * nullopt when the stream cannot report its position.
 */
std::optional<std::size_t>
remainingLines(std::istream &is)
{
    const auto here = is.tellg();
    if (here == std::istream::pos_type(-1)) {
        is.clear();
        return std::nullopt;
    }
    std::vector<char> block(kBlockBytes);
    std::size_t lines = 1;
    do {
        is.read(block.data(), static_cast<std::streamsize>(block.size()));
        lines += static_cast<std::size_t>(
            std::count(block.data(), block.data() + is.gcount(), '\n'));
    } while (is);
    is.clear();
    is.seekg(here);
    return lines;
}

/** Writes the filled head of @p block; returns the block's start. */
char *
drain(std::ostream &os, std::vector<char> &block, const char *out)
{
    os.write(block.data(), out - block.data());
    return block.data();
}

RefType
refTypeFromChar(char c, std::size_t line_no)
{
    switch (c) {
      case 'i': return RefType::IFetch;
      case 'l': return RefType::Load;
      case 's': return RefType::Store;
      case 'f': return RefType::Flush;
      default:
        fail("bad reference type '" + std::string(1, c) + "' on line " +
             std::to_string(line_no));
    }
}

/**
 * Parses a cpu token: decimal digits only, with no sign, and at most
 * kMaxTraceCpu, so a wrapped "-1" or "70000" cannot alias another
 * processor or wrap numCpus().
 */
CpuId
parseCpu(std::string_view token, std::size_t line_no)
{
    unsigned value = 0;
    const char *last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, value);
    if (ec != std::errc{} || ptr != last || value > kMaxTraceCpu) {
        fail("bad cpu id '" + std::string(token) + "' on line " +
             std::to_string(line_no) + " (expected decimal 0.." +
             std::to_string(kMaxTraceCpu) + ")");
    }
    return static_cast<CpuId>(value);
}

/**
 * Parses a full hex address token, rejecting signs, trailing garbage,
 * and overflow — std::stoull would silently accept "1f2zz" (as 0x1f2)
 * and wrap "-1" to 2^64-1. An optional 0x/0X prefix is tolerated.
 */
Addr
parseHexAddr(std::string_view token, std::size_t line_no)
{
    const char *first = token.data();
    const char *last = token.data() + token.size();
    if (last - first > 2 && first[0] == '0' &&
        (first[1] == 'x' || first[1] == 'X')) {
        first += 2;
    }
    Addr value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value, 16);
    if (ec != std::errc{} || ptr != last || first == last) {
        fail("bad address '" + std::string(token) + "' on line " +
             std::to_string(line_no) + " (expected hex)");
    }
    return value;
}

char
refTypeToChar(RefType type)
{
    switch (type) {
      case RefType::IFetch: return 'i';
      case RefType::Load:   return 'l';
      case RefType::Store:  return 's';
      case RefType::Flush:  return 'f';
    }
    return '?';
}

/** Space, tab, CR, VT and FF: C-locale whitespace other than '\n'. */
bool
isSeparator(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * The next token of [pos, end), advancing @p pos past it; empty at
 * the end of the line.
 */
std::string_view
nextToken(const char *&pos, const char *end)
{
    while (pos != end && isSeparator(*pos)) {
        ++pos;
    }
    const char *start = pos;
    while (pos != end && !isSeparator(*pos)) {
        ++pos;
    }
    return {start, static_cast<std::size_t>(pos - start)};
}

/** Decodes one text line, without its '\n', into @p trace. */
void
parseLine(std::string_view line, std::size_t line_no, TraceBuffer &trace)
{
    if (line.empty() || line.front() == '#') {
        return;
    }
    const char *pos = line.data();
    const char *end = pos + line.size();
    const std::string_view cpu_token = nextToken(pos, end);
    const std::string_view type_token = nextToken(pos, end);
    const std::string_view addr_token = nextToken(pos, end);
    if (addr_token.empty() || type_token.size() != 1) {
        fail("malformed trace line " + std::to_string(line_no) + ": '" +
             std::string(line) + "'");
    }
    const CpuId cpu = parseCpu(cpu_token, line_no);
    const RefType type = refTypeFromChar(type_token.front(), line_no);
    trace.append(cpu, type, parseHexAddr(addr_token, line_no));
}

} // namespace

void
writeBinaryTrace(const TraceBuffer &trace, std::ostream &os)
{
    std::vector<char> block(kBlockBytes);
    const char *const limit = block.data() + block.size() - kRecordBytes;
    char *out = std::copy(kMagic.begin(), kMagic.end(), block.data());
    out = storeU64(out, trace.size());
    for (const TraceEvent &event : trace) {
        if (out > limit) {
            out = drain(os, block, out);
        }
        out = storeU64(out, event.addr);
        out = storeU64(out, static_cast<std::uint64_t>(event.cpu) |
                                (static_cast<std::uint64_t>(event.type)
                                 << 16));
    }
    drain(os, block, out);
    if (!os) {
        throw std::runtime_error("failed to write binary trace");
    }
}

TraceBuffer
readBinaryTrace(std::istream &is)
{
    std::array<char, 8> word{};
    is.read(word.data(), word.size());
    if (!is || word != kMagic) {
        fail("not a SWCC binary trace (bad magic)");
    }
    is.read(word.data(), word.size());
    if (!is) {
        fail("truncated trace: expected 8 bytes");
    }
    const std::uint64_t count = loadU64(word.data());

    // Bound the header count by what the stream can actually hold (16
    // bytes per event) before reserving: a corrupt or truncated file
    // must raise the truncation error, not a multi-GB allocation.
    std::uint64_t reservable = count;
    const auto here = is.tellg();
    if (here != std::istream::pos_type(-1)) {
        is.seekg(0, std::ios::end);
        const auto end = is.tellg();
        is.seekg(here);
        if (end != std::istream::pos_type(-1) && end >= here) {
            const auto remaining =
                static_cast<std::uint64_t>(end - here);
            if (count > remaining / kRecordBytes) {
                fail("truncated trace: header claims " +
                     std::to_string(count) + " events but only " +
                     std::to_string(remaining) + " bytes remain");
            }
        }
    } else {
        // Unseekable stream: cap the reserve; the block loop below
        // still reports truncation the moment the stream runs dry.
        is.clear();
        reservable = std::min<std::uint64_t>(count, 1u << 20);
    }
    TraceBuffer trace;
    trace.reserve(static_cast<std::size_t>(reservable));

    // Whole blocks of records, never past the last event, so the
    // stream is left just after the trace.
    std::vector<char> block(kBlockBytes);
    for (std::uint64_t first = 0; first < count;) {
        const auto wanted = static_cast<std::size_t>(std::min<std::uint64_t>(
            count - first, kBlockBytes / kRecordBytes));
        is.read(block.data(),
                static_cast<std::streamsize>(wanted * kRecordBytes));
        // Decode every complete record that arrived before reporting a
        // cut, so the first bad event is the one named.
        const std::size_t arrived =
            static_cast<std::size_t>(is.gcount()) / kRecordBytes;
        for (std::size_t r = 0; r < arrived; ++r) {
            const char *record = block.data() + r * kRecordBytes;
            const std::uint64_t meta = loadU64(record + 8);
            const auto cpu = static_cast<CpuId>(meta & 0xffffu);
            const auto type_bits = static_cast<std::uint8_t>(meta >> 16);
            if (type_bits > static_cast<std::uint8_t>(RefType::Flush)) {
                fail("bad reference type in binary trace (event " +
                     std::to_string(first + r) + ")");
            }
            if (cpu > kMaxTraceCpu) {
                fail("bad cpu id " + std::to_string(cpu) +
                     " in binary trace (event " +
                     std::to_string(first + r) + ")");
            }
            trace.append(TraceEvent{loadU64(record), cpu,
                                    static_cast<RefType>(type_bits)});
        }
        if (arrived < wanted) {
            fail("truncated trace: header claims " + std::to_string(count) +
                 " events but the stream ends inside event " +
                 std::to_string(first + arrived));
        }
        first += wanted;
    }
    return trace;
}

void
writeTextTrace(const TraceBuffer &trace, std::ostream &os)
{
    os << "# swcc trace: cpu type addr(hex); " << trace.size()
       << " events, " << trace.numCpus() << " cpus\n";
    std::vector<char> block(kBlockBytes);
    char *const end = block.data() + block.size();
    const char *const limit = end - kMaxTextEventBytes;
    char *out = block.data();
    for (const TraceEvent &event : trace) {
        if (out > limit) {
            out = drain(os, block, out);
        }
        out = std::to_chars(out, end, event.cpu).ptr;
        *out++ = ' ';
        *out++ = refTypeToChar(event.type);
        *out++ = ' ';
        out = std::to_chars(out, end, event.addr, 16).ptr;
        *out++ = '\n';
    }
    drain(os, block, out);
    if (!os) {
        throw std::runtime_error("failed to write text trace");
    }
}

TraceBuffer
readTextTrace(std::istream &is)
{
    TraceBuffer trace;
    // Every event has a line of its own, so the lines left bound the
    // events, and one reserve replaces the doublings and their copies.
    // Counting costs one more read of the stream. A bound from the
    // byte count alone (6 bytes for "0 i 0\n") reserves 2.2 times a
    // generated trace's events, and raised the replay benchmark's peak
    // RSS from 49 to 63 MiB though the extra pages were never touched.
    if (is) {
        if (const auto lines = remainingLines(is)) {
            trace.reserve(*lines);
        }
    }
    std::vector<char> block(kBlockBytes);
    // The head of a line cut by the end of a block; a line longer
    // than a block is assembled here whole.
    std::string carry;
    std::size_t line_no = 0;
    while (is) {
        is.read(block.data(), static_cast<std::streamsize>(block.size()));
        const char *pos = block.data();
        const char *const end = pos + is.gcount();
        for (;;) {
            const auto *newline = static_cast<const char *>(
                std::memchr(pos, '\n', static_cast<std::size_t>(end - pos)));
            if (newline == nullptr) {
                break;
            }
            if (carry.empty()) {
                parseLine({pos, static_cast<std::size_t>(newline - pos)},
                          ++line_no, trace);
            } else {
                carry.append(pos, newline);
                parseLine(carry, ++line_no, trace);
                carry.clear();
            }
            pos = newline + 1;
        }
        carry.append(pos, end);
    }
    // The last line needs no newline.
    if (!carry.empty()) {
        parseLine(carry, ++line_no, trace);
    }
    return trace;
}

void
saveTrace(const TraceBuffer &trace, const std::string &path)
{
    // Atomic (temp + fsync + rename): a run killed mid-save can never
    // leave a truncated trace that a later campaign mistakes for a
    // complete one.
    const bool binary = path.ends_with(".swcc");
    campaign::atomicWriteFile(
        path,
        [&](std::ostream &os) {
            if (binary) {
                writeBinaryTrace(trace, os);
            } else {
                writeTextTrace(trace, os);
            }
        },
        binary);
}

TraceBuffer
loadTrace(const std::string &path)
{
    const bool binary = path.ends_with(".swcc");
    std::ifstream is(path, binary ? std::ios::binary : std::ios::in);
    if (!is) {
        throw std::runtime_error("cannot open " + path + " for reading");
    }
    return binary ? readBinaryTrace(is) : readTextTrace(is);
}

} // namespace swcc
