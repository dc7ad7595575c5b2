/**
 * @file
 * Robustness tests for trace serialization: malformed, truncated, and
 * adversarial inputs must fail cleanly, never crash or mis-parse.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/obs/log.hh"
#include "sim/synth/rng.hh"
#include "sim/trace/trace_io.hh"

namespace swcc
{
namespace
{

std::string
binaryBytes(const TraceBuffer &trace)
{
    std::ostringstream os;
    writeBinaryTrace(trace, os);
    return os.str();
}

/** A read-only stream buffer that cannot seek, like a pipe's. */
class UnseekableBuf : public std::streambuf
{
  public:
    explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes))
    {
        setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
    }

  private:
    std::string bytes_;
};

/** The what() of the runtime_error that decoding @p is throws. */
std::string
errorOf(std::istream &is, bool binary)
{
    try {
        if (binary) {
            readBinaryTrace(is);
        } else {
            readTextTrace(is);
        }
    } catch (const std::runtime_error &error) {
        return error.what();
    }
    return "no error";
}

TraceBuffer
sampleTrace()
{
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, 0x1000);
    trace.append(1, RefType::Load, 0x8000'0000);
    trace.append(2, RefType::Store, 0x8000'0010);
    trace.append(0, RefType::Flush, 0x8000'0000);
    return trace;
}

TEST(TraceRobustnessTest, TruncationAtEveryPrefixFailsCleanly)
{
    const std::string bytes = binaryBytes(sampleTrace());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::istringstream is(bytes.substr(0, cut));
        EXPECT_THROW(readBinaryTrace(is), std::runtime_error)
            << "cut at " << cut;
    }
    // The complete stream still parses.
    std::istringstream whole(bytes);
    EXPECT_EQ(readBinaryTrace(whole).size(), sampleTrace().size());
}

TEST(TraceRobustnessTest, CorruptTypeBitsAreRejected)
{
    std::string bytes = binaryBytes(sampleTrace());
    // The first event's meta word starts at offset 8 (magic) + 8
    // (count) + 8 (addr); its third byte holds the type.
    bytes[8 + 8 + 8 + 2] = '\x7f';
    std::istringstream is(bytes);
    EXPECT_THROW(readBinaryTrace(is), std::runtime_error);
}

TEST(TraceRobustnessTest, DishonestCountIsATruncationError)
{
    std::string bytes = binaryBytes(sampleTrace());
    // Inflate the little-endian count at offset 8.
    bytes[8] = '\x7f';
    std::istringstream is(bytes);
    EXPECT_THROW(readBinaryTrace(is), std::runtime_error);
}

TEST(TraceRobustnessTest, EmptyTraceRoundTrips)
{
    const TraceBuffer empty;
    std::stringstream binary;
    writeBinaryTrace(empty, binary);
    EXPECT_EQ(readBinaryTrace(binary).size(), 0u);

    std::stringstream text;
    writeTextTrace(empty, text);
    EXPECT_EQ(readTextTrace(text).size(), 0u);
}

/** One event's fields, held apart from TraceEvent's own layout. */
struct Fields
{
    Addr addr;
    CpuId cpu;
    RefType type;
};

void
expectFields(const TraceEvent &event, const Fields &want,
             const std::string &where)
{
    EXPECT_EQ(static_cast<Addr>(event.addr), want.addr) << where;
    EXPECT_EQ(event.cpu, want.cpu) << where;
    EXPECT_EQ(event.type, want.type) << where;
}

void
expectTrace(const TraceBuffer &trace, const std::vector<Fields> &want,
            const std::string &where)
{
    ASSERT_EQ(trace.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectFields(trace[i], want[i],
                     where + " [" + std::to_string(i) + "]");
    }
    std::size_t i = 0;
    for (const TraceEvent &event : trace) {
        expectFields(event, want[i],
                     where + " iterated " + std::to_string(i));
        ++i;
    }
    EXPECT_EQ(i, want.size()) << where;
}

TEST(TraceRobustnessTest, ExtremeFieldValuesSurvive)
{
    // A record is 12 bytes with its address first, so an odd-indexed
    // event's address sits at 4 mod 8. Each extreme address goes at an
    // even index and at the odd one after it, beside extreme cpu ids
    // and every type.
    const Addr addrs[] = {0,           1,         0xffff'ffffull,
                          1ull << 32,  1ull << 63, ~0ull};
    const CpuId cpus[] = {0, 1, 255, 256, 65'000, kMaxTraceCpu};
    std::vector<Fields> want;
    TraceBuffer trace;
    for (std::size_t i = 0; i < 2 * std::size(addrs); ++i) {
        const Fields fields{addrs[i / 2], cpus[(i * 5) % std::size(cpus)],
                            static_cast<RefType>(i % 4)};
        want.push_back(fields);
        trace.append(fields.cpu, fields.type, fields.addr);
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&trace[i].addr) % 8,
                  i % 2 * 4)
            << i;
    }
    expectTrace(trace, want, "appended");

    // == compares every byte of the address, the cpu and the type.
    for (std::size_t i = 0; i < want.size(); ++i) {
        const Fields &f = want[i];
        EXPECT_TRUE(trace[i] == (TraceEvent{f.addr, f.cpu, f.type})) << i;
        for (unsigned byte = 0; byte < 8; ++byte) {
            const Addr other = f.addr ^ (Addr{1} << (8 * byte));
            EXPECT_FALSE(trace[i] == (TraceEvent{other, f.cpu, f.type}))
                << i << " byte " << byte;
        }
        EXPECT_FALSE(trace[i] ==
                     (TraceEvent{f.addr, static_cast<CpuId>(f.cpu ^ 1),
                                 f.type}))
            << i;
        EXPECT_FALSE(trace[i] ==
                     (TraceEvent{f.addr, f.cpu,
                                 static_cast<RefType>(
                                     (static_cast<unsigned>(f.type) + 1) %
                                     4)}))
            << i;
    }
    const TraceBuffer copy = trace;
    EXPECT_TRUE(copy.events() == trace.events());

    // Restriction repacks the survivors, moving some addresses from
    // one alignment to the other.
    std::vector<Fields> low;
    for (const Fields &f : want) {
        if (f.cpu < 256) {
            low.push_back(f);
        }
    }
    expectTrace(trace.restrictedToCpus(256), low, "restricted");
    expectTrace(trace.restrictedToCpus(kMaxTraceCpu + 1), want,
                "unrestricted");

    // The binary record on disk stays 16 bytes, whatever the size of
    // the in-memory one.
    const std::string bytes = binaryBytes(trace);
    EXPECT_EQ(bytes.size(), 8 + 8 + 16 * want.size());
    std::istringstream binary(bytes);
    const TraceBuffer loaded = readBinaryTrace(binary);
    expectTrace(loaded, want, "binary");
    EXPECT_TRUE(loaded.events() == trace.events());

    std::stringstream text;
    writeTextTrace(trace, text);
    const TraceBuffer from_text = readTextTrace(text);
    expectTrace(from_text, want, "text");
    EXPECT_TRUE(from_text.events() == trace.events());
}

TEST(TraceRobustnessTest, TextTrailingGarbageOnLineIsIgnoredFields)
{
    // istream-based parsing stops at whitespace; extra columns after
    // the triple are tolerated (forward compatibility), but garbage in
    // place of required fields is not.
    std::stringstream ok("0 l 10 extra-column\n");
    EXPECT_EQ(readTextTrace(ok).size(), 1u);

    std::stringstream missing_addr("0 l\n");
    EXPECT_THROW(readTextTrace(missing_addr), std::runtime_error);

    std::stringstream long_type("0 load 10\n");
    EXPECT_THROW(readTextTrace(long_type), std::runtime_error);
}

TEST(TraceRobustnessTest, AddressWithTrailingGarbageIsRejected)
{
    // std::stoull would silently parse "1f2zz" as 0x1f2; the full
    // token must be valid hex.
    std::stringstream is("0 l 1f2zz\n");
    EXPECT_THROW(readTextTrace(is), std::runtime_error);
}

TEST(TraceRobustnessTest, NegativeAddressIsRejected)
{
    // std::stoull would wrap "-1" to 2^64-1.
    std::stringstream is("0 l -1\n");
    EXPECT_THROW(readTextTrace(is), std::runtime_error);
}

TEST(TraceRobustnessTest, BadAddressErrorsCarryTheLineNumber)
{
    for (const char *body : {"0 l zz\n", "0 l 1f2zz\n", "0 l -1\n"}) {
        std::stringstream is(std::string("# header\n0 i 10\n") + body);
        try {
            readTextTrace(is);
            FAIL() << "expected a parse error for " << body;
        } catch (const std::runtime_error &error) {
            EXPECT_NE(std::string(error.what()).find("line 3"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(TraceRobustnessTest, HexPrefixedAddressesStillParse)
{
    std::stringstream is("0 l 0x1f\n1 s 0X20\n");
    const TraceBuffer trace = readTextTrace(is);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].addr, 0x1fu);
    EXPECT_EQ(trace[1].addr, 0x20u);
    std::stringstream bare_prefix("0 l 0x\n");
    EXPECT_THROW(readTextTrace(bare_prefix), std::runtime_error);
}

TEST(TraceRobustnessTest, HugeHeaderCountFailsFastWithoutAllocating)
{
    // A corrupt count must hit the truncation error before reserve():
    // previously 2^56 events meant a multi-GB allocation attempt.
    std::string bytes = "SWCCTRC1";
    for (int i = 0; i < 7; ++i) {
        bytes.push_back('\0');
    }
    bytes.push_back('\x7f'); // count = 0x7f00'0000'0000'0000
    std::istringstream is(bytes);
    try {
        readBinaryTrace(is);
        FAIL() << "expected a truncation error";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("truncated"),
                  std::string::npos)
            << error.what();
    }
}

TEST(TraceRobustnessTest, HugeHeaderCountOnAPipeFailsAsTruncated)
{
    // Unseekable: the count cannot be checked up front, so the reserve
    // is capped and the block loop reports the cut.
    std::string bytes = binaryBytes(sampleTrace());
    bytes[8 + 7] = '\x7f';
    UnseekableBuf buf(bytes);
    std::istream pipe(&buf);
    const std::string what = errorOf(pipe, true);
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

TEST(TraceRobustnessTest, CutInsideSecondBlockIsTruncated)
{
    // 4096 records fill the first block; cut 100 bytes into the second.
    TraceBuffer trace;
    for (unsigned i = 0; i < 5'000; ++i) {
        trace.append(static_cast<CpuId>(i % 7), RefType::Load, 16 * i);
    }
    const std::string whole = binaryBytes(trace);
    const std::string cut = whole.substr(0, 16 + 4096 * 16 + 100);
    std::istringstream seekable(cut);
    const std::string counted = errorOf(seekable, true);
    EXPECT_NE(counted.find("truncated"), std::string::npos) << counted;

    UnseekableBuf buf(cut);
    std::istream pipe(&buf);
    const std::string what = errorOf(pipe, true);
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    // 100 bytes are six whole records, so event 4102 is cut.
    EXPECT_NE(what.find("event 4102"), std::string::npos) << what;

    UnseekableBuf full(whole);
    std::istream whole_pipe(&full);
    EXPECT_EQ(readBinaryTrace(whole_pipe).events(), trace.events());
}

TEST(TraceRobustnessTest, TextReadsTheSameFromAnyStartAndFromAPipe)
{
    // A seekable stream is counted ahead and rewound to where the
    // reader found it; a pipe cannot be, and is read as it comes.
    std::ostringstream os;
    writeTextTrace(sampleTrace(), os);
    const std::string text = os.str();

    std::istringstream after_prefix("not a trace line\n" + text);
    std::string prefix;
    std::getline(after_prefix, prefix);
    EXPECT_EQ(readTextTrace(after_prefix).events(), sampleTrace().events());

    UnseekableBuf buf(text);
    std::istream pipe(&buf);
    EXPECT_EQ(readTextTrace(pipe).events(), sampleTrace().events());
}

TEST(TraceRobustnessTest, TextCpuIdsAreStrictDecimalBelow65535)
{
    // Each was read as some cpu before: -1 as 65535 (wrapping numCpus
    // to 0), 70000 as 4464, "5l" as 5 and "+7" as 7.
    const struct
    {
        const char *input;
        const char *line;
    } rejected[] = {
        {"0 i 1000\n-1 l 80000000\n", "line 2"},
        {"70000 l 80000000\n", "line 1"},
        {"65535 l 80000000\n", "line 1"},
        {"5l 80000000\n", "line 1"},
        {"5l x 80000000\n", "line 1"},
        {"+7 l 80000000\n", "line 1"},
        {"0x1 l 80000000\n", "line 1"},
        {"# c\n1 i 10\n99999999999 l 10\n", "line 3"},
    };
    for (const auto &c : rejected) {
        std::istringstream is(c.input);
        const std::string what = errorOf(is, false);
        EXPECT_NE(what.find(c.line), std::string::npos)
            << c.input << " -> " << what;
    }

    std::istringstream top("65534 l 80000000\n007 s 10\n");
    const TraceBuffer trace = readTextTrace(top);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].cpu, kMaxTraceCpu);
    EXPECT_EQ(trace[1].cpu, 7);
    EXPECT_EQ(trace.numCpus(), 65535u);
}

TEST(TraceRobustnessTest, BinaryCpu65535IsRejected)
{
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, 0x1000);
    trace.append(kMaxTraceCpu, RefType::Load, 0x8000'0000);
    std::string bytes = binaryBytes(trace);
    std::istringstream top(bytes);
    EXPECT_EQ(readBinaryTrace(top).numCpus(), 65535u);

    // Event 1's cpu field is the low 16 bits of its meta word.
    bytes[16 + 16 + 8] = '\xff';
    bytes[16 + 16 + 9] = '\xff';
    std::istringstream is(bytes);
    const std::string what = errorOf(is, true);
    EXPECT_NE(what.find("cpu"), std::string::npos) << what;
    EXPECT_NE(what.find("event 1"), std::string::npos) << what;
}

TEST(TraceRobustnessTest, TextLineNumbersAppearInErrors)
{
    std::stringstream is("# fine\n0 i 10\n0 q 10\n");
    try {
        readTextTrace(is);
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("3"),
                  std::string::npos)
            << error.what();
    }
}

/** A valid trace of about 200 events to mutate. */
TraceBuffer
fuzzSeedTrace()
{
    Rng rng(8);
    TraceBuffer trace;
    for (int i = 0; i < 200; ++i) {
        trace.append(static_cast<CpuId>(rng.below(6)),
                     static_cast<RefType>(rng.below(4)),
                     rng.below(2) ? 0x8000'0000 + 16 * rng.below(64)
                                  : rng.next() >> rng.below(64));
    }
    return trace;
}

/** Applies one random mutation to an encoded trace. */
void
mutate(std::string &bytes, Rng &rng, bool binary)
{
    static constexpr char kInserts[] = "0123456789abcdefxX \t\r\n#-+";
    const auto at = [&](std::size_t extra) {
        return static_cast<std::size_t>(rng.below(bytes.size() + extra));
    };
    switch (rng.below(6)) {
      case 0:
        if (!bytes.empty()) {
            bytes[at(0)] ^= static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at(1)),
                     kInserts[rng.below(sizeof(kInserts) - 1)]);
        break;
      case 2:
        if (!bytes.empty()) {
            const std::size_t pos = at(0);
            bytes.erase(pos, 1 + rng.below(8));
        }
        break;
      case 3:
        bytes.resize(at(1));
        break;
      case 4:
        if (!bytes.empty()) {
            bytes[at(0)] = static_cast<char>(rng.below(256));
        }
        break;
      default:
        // A cpu field of 65535: a binary record's low meta bytes, or
        // the first token of a text line.
        if (binary && bytes.size() >= 32) {
            const std::size_t record = rng.below((bytes.size() - 16) / 16);
            bytes[16 + 16 * record + 8] = '\xff';
            bytes[16 + 16 * record + 9] = '\xff';
        } else if (!binary && !bytes.empty()) {
            const std::size_t line = bytes.find('\n', at(0)) + 1;
            const std::size_t space = bytes.find(' ', line);
            if (line != 0 && space != std::string::npos) {
                bytes.replace(line, space - line, "65535");
            }
        }
        break;
    }
}

/**
 * Decodes one mutant and returns whether it decoded. It must throw
 * std::runtime_error (any other exception fails the test) or give a
 * trace whose cpus are all below numCpus() and which both formats
 * re-encode and re-decode unchanged. A binary mutant decodes the same
 * from an unseekable stream.
 */
bool
checkMutant(const std::string &bytes, bool binary)
{
    std::optional<TraceBuffer> decoded;
    try {
        std::istringstream is(bytes);
        decoded = binary ? readBinaryTrace(is) : readTextTrace(is);
    } catch (const std::runtime_error &) {
    }
    if (binary) {
        UnseekableBuf buf(bytes);
        std::istream pipe(&buf);
        try {
            const TraceBuffer piped = readBinaryTrace(pipe);
            EXPECT_TRUE(decoded.has_value()) << "only the pipe decoded";
            EXPECT_TRUE(decoded && piped.events() == decoded->events());
        } catch (const std::runtime_error &) {
            EXPECT_FALSE(decoded.has_value()) << "only the pipe threw";
        }
    }
    if (!decoded) {
        return false;
    }
    for (const TraceEvent &event : *decoded) {
        EXPECT_LT(event.cpu, decoded->numCpus());
    }
    std::stringstream text;
    writeTextTrace(*decoded, text);
    const TraceBuffer from_text = readTextTrace(text);
    EXPECT_EQ(from_text.events(), decoded->events());
    EXPECT_EQ(from_text.numCpus(), decoded->numCpus());
    std::stringstream bin;
    writeBinaryTrace(*decoded, bin);
    EXPECT_EQ(readBinaryTrace(bin).events(), decoded->events());
    return true;
}

/** Runs @p mutants seeded mutants of the seed trace in one format. */
void
fuzzDecoder(bool binary, int mutants)
{
    // Thousands of rejected mutants would each log a warning.
    const obs::LogLevel level = obs::logLevel();
    obs::setLogLevel(obs::LogLevel::Off);
    std::ostringstream os;
    if (binary) {
        writeBinaryTrace(fuzzSeedTrace(), os);
    } else {
        writeTextTrace(fuzzSeedTrace(), os);
    }
    const std::string seed = os.str();
    const Rng root(binary ? 0xb1 : 0x7e);
    int decoded = 0;
    for (int m = 0; m < mutants; ++m) {
        Rng rng = root.split(static_cast<std::uint64_t>(m));
        std::string bytes = seed;
        const std::uint64_t edits = 1 + rng.below(4);
        for (std::uint64_t e = 0; e < edits; ++e) {
            mutate(bytes, rng, binary);
        }
        decoded += checkMutant(bytes, binary);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "stopped at mutant " << m;
            break;
        }
    }
    obs::setLogLevel(level);
    // Both outcomes must be common, or the mutations miss a decoder.
    EXPECT_GT(decoded, mutants / 10);
    EXPECT_LT(decoded, mutants - mutants / 10);
}

TEST(TraceFuzzTest, TextMutantsThrowOrRoundTrip)
{
    fuzzDecoder(false, 4'000);
}

TEST(TraceFuzzTest, BinaryMutantsThrowOrRoundTrip)
{
    fuzzDecoder(true, 4'000);
}

} // namespace
} // namespace swcc
