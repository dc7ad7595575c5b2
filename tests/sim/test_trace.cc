/**
 * @file
 * Unit tests for trace buffers and serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/synth/rng.hh"
#include "sim/trace/trace_buffer.hh"
#include "sim/trace/trace_io.hh"

namespace swcc
{
namespace
{

TraceBuffer
sampleTrace()
{
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, 0x1000);
    trace.append(0, RefType::Load, 0x8000'0010);
    trace.append(1, RefType::IFetch, 0x2000);
    trace.append(1, RefType::Store, 0x8000'0010);
    trace.append(2, RefType::IFetch, 0x3000);
    trace.append(0, RefType::Flush, 0x8000'0010);
    return trace;
}

TEST(TraceBufferTest, TracksSizeAndCpus)
{
    const TraceBuffer trace = sampleTrace();
    EXPECT_EQ(trace.size(), 6u);
    EXPECT_EQ(trace.numCpus(), 3u);
    EXPECT_FALSE(trace.empty());
}

TEST(TraceBufferTest, CountsByType)
{
    const TraceBuffer trace = sampleTrace();
    EXPECT_EQ(trace.countType(RefType::IFetch), 3u);
    EXPECT_EQ(trace.countType(RefType::Load), 1u);
    EXPECT_EQ(trace.countType(RefType::Store), 1u);
    EXPECT_EQ(trace.countType(RefType::Flush), 1u);
}

TEST(TraceBufferTest, RestrictionKeepsOrderAndDropsOtherCpus)
{
    const TraceBuffer restricted = sampleTrace().restrictedToCpus(2);
    EXPECT_EQ(restricted.size(), 5u);
    EXPECT_EQ(restricted.numCpus(), 2u);
    for (const TraceEvent &event : restricted) {
        EXPECT_LT(event.cpu, 2);
    }
}

TEST(TraceBufferTest, ClearResets)
{
    TraceBuffer trace = sampleTrace();
    trace.clear();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.numCpus(), 0u);
}

TEST(TraceIoTest, BinaryRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    writeBinaryTrace(original, stream);
    const TraceBuffer loaded = readBinaryTrace(stream);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i], original[i]) << "event " << i;
    }
}

TEST(TraceIoTest, TextRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    writeTextTrace(original, stream);
    const TraceBuffer loaded = readTextTrace(stream);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i], original[i]) << "event " << i;
    }
}

TEST(TraceIoTest, BinaryRejectsBadMagic)
{
    std::stringstream stream;
    stream << "NOTATRACE-AT-ALL";
    EXPECT_THROW(readBinaryTrace(stream), std::runtime_error);
}

TEST(TraceIoTest, TextRejectsMalformedLines)
{
    std::stringstream stream("0 x 1000\n");
    EXPECT_THROW(readTextTrace(stream), std::runtime_error);

    std::stringstream missing("0\n");
    EXPECT_THROW(readTextTrace(missing), std::runtime_error);
}

TEST(TraceIoTest, TextSkipsCommentsAndBlankLines)
{
    std::stringstream stream("# header\n\n0 i 1f00\n");
    const TraceBuffer trace = readTextTrace(stream);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].addr, 0x1f00u);
    EXPECT_EQ(trace[0].type, RefType::IFetch);
}

TEST(TraceIoTest, FixedTraceEncodesToLiteralText)
{
    std::ostringstream os;
    writeTextTrace(sampleTrace(), os);
    EXPECT_EQ(os.str(),
              "# swcc trace: cpu type addr(hex); 6 events, 3 cpus\n"
              "0 i 1000\n"
              "0 l 80000010\n"
              "1 i 2000\n"
              "1 s 80000010\n"
              "2 i 3000\n"
              "0 f 80000010\n");
}

TEST(TraceIoTest, FixedTraceEncodesToLiteralBytes)
{
    // Magic, u64 LE count, then per event the u64 LE address and the
    // u64 LE word cpu | type << 16 (i, l, s, f = 0..3).
    const unsigned char expected[] = {
        'S', 'W', 'C', 'C', 'T', 'R', 'C', '1', 6, 0, 0, 0, 0, 0, 0, 0,
        0x00, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0x10, 0x00, 0x00, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
        0x00, 0x20, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        0x10, 0x00, 0x00, 0x80, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0,
        0x00, 0x30, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
        0x10, 0x00, 0x00, 0x80, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0,
    };
    const std::string bytes(std::begin(expected), std::end(expected));
    std::ostringstream os;
    writeBinaryTrace(sampleTrace(), os);
    EXPECT_EQ(os.str(), bytes);
    std::istringstream is(bytes);
    EXPECT_EQ(readBinaryTrace(is).events(), sampleTrace().events());
}

/** Enough events for several 64 KiB blocks in either format. */
TraceBuffer
multiBlockTrace()
{
    Rng rng(18);
    TraceBuffer trace;
    for (int i = 0; i < 20'000; ++i) {
        const auto cpu = static_cast<CpuId>(
            i % 97 == 0 ? kMaxTraceCpu : rng.below(64));
        const Addr addr = i % 89 == 0 ? ~Addr{0} : rng.next() >> rng.below(64);
        trace.append(cpu, static_cast<RefType>(rng.below(4)), addr);
    }
    return trace;
}

TEST(TraceIoTest, MultiBlockTracesRoundTripBothFormats)
{
    const TraceBuffer original = multiBlockTrace();
    std::stringstream text;
    writeTextTrace(original, text);
    ASSERT_GT(text.str().size(), 3u * 64 * 1024);
    const TraceBuffer from_text = readTextTrace(text);
    EXPECT_EQ(from_text.events(), original.events());
    EXPECT_EQ(from_text.numCpus(), original.numCpus());

    std::stringstream binary;
    writeBinaryTrace(original, binary);
    ASSERT_GT(binary.str().size(), 3u * 64 * 1024);
    const TraceBuffer from_binary = readBinaryTrace(binary);
    EXPECT_EQ(from_binary.events(), original.events());
    EXPECT_EQ(from_binary.numCpus(), original.numCpus());
}

TEST(TraceIoTest, LinesStraddlingBlockBoundariesDecode)
{
    // Equal-length lines behind a pad of every length from 0 to one
    // line: some pad puts a block boundary at each offset in a line,
    // whatever the block size. The long comment spans a whole block.
    const std::string line = "12 s 8000abcd\n";
    const std::string comment = "#" + std::string(100'000, 'c') + "\n";
    for (std::size_t pad = 0; pad <= line.size(); ++pad) {
        std::string input = "#" + std::string(pad, 'p') + "\n";
        for (int i = 0; i < 6'000; ++i) {
            input += line;
        }
        input += comment;
        for (int i = 0; i < 6'000; ++i) {
            input += line;
        }
        input += "3 q 10\n";
        std::istringstream is(input);
        try {
            readTextTrace(is);
            FAIL() << "expected a bad type on the last line, pad " << pad;
        } catch (const std::runtime_error &error) {
            EXPECT_NE(std::string(error.what()).find("line 12003"),
                      std::string::npos)
                << error.what();
        }
        input.resize(input.size() - 7);
        std::istringstream good(input);
        const TraceBuffer trace = readTextTrace(good);
        ASSERT_EQ(trace.size(), 12'000u) << "pad " << pad;
        for (const TraceEvent &event : trace) {
            ASSERT_EQ(event, (TraceEvent{0x8000abcd, 12, RefType::Store}))
                << "pad " << pad;
        }
    }
}

TEST(TraceIoTest, TextAcceptsEveryLineShape)
{
    std::istringstream is("0 i 1000\r\n"           // CRLF
                          "1\tl\t\t80000010\n"     // tabs
                          "2   s    ABCDEF\n"      // space runs, upper hex
                          "  3 f 0XdeadBEEF\n"     // leading blanks, 0X
                          "4 l 10 extra columns\n" // ignored columns
                          "5 i 0x20");             // no final newline
    const TraceBuffer trace = readTextTrace(is);
    const std::vector<TraceEvent> expected = {
        {0x1000, 0, RefType::IFetch},
        {0x8000'0010, 1, RefType::Load},
        {0xabcdef, 2, RefType::Store},
        {0xdeadbeef, 3, RefType::Flush},
        {0x10, 4, RefType::Load},
        {0x20, 5, RefType::IFetch},
    };
    EXPECT_EQ(trace.events(), expected);
    EXPECT_EQ(trace.numCpus(), 6u);
}

TEST(TraceIoTest, WhitespaceOnlyLineIsAnError)
{
    for (const char *blank : {" ", "\t", "\r", " \t\r "}) {
        std::istringstream is(std::string("0 i 10\n") + blank + "\n");
        try {
            readTextTrace(is);
            FAIL() << "expected an error for a line of separators";
        } catch (const std::runtime_error &error) {
            EXPECT_NE(std::string(error.what()).find("line 2"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(TraceIoTest, FileRoundTripBothFormats)
{
    const TraceBuffer original = sampleTrace();
    const std::string binary_path =
        ::testing::TempDir() + "/trace_roundtrip.swcc";
    const std::string text_path =
        ::testing::TempDir() + "/trace_roundtrip.txt";
    saveTrace(original, binary_path);
    saveTrace(original, text_path);
    EXPECT_EQ(loadTrace(binary_path).size(), original.size());
    EXPECT_EQ(loadTrace(text_path).size(), original.size());
}

TEST(TraceIoTest, MissingFileThrows)
{
    EXPECT_THROW(loadTrace("/nonexistent/path/trace.swcc"),
                 std::runtime_error);
}

TEST(RefTypeTest, Helpers)
{
    EXPECT_TRUE(isData(RefType::Load));
    EXPECT_TRUE(isData(RefType::Store));
    EXPECT_FALSE(isData(RefType::IFetch));
    EXPECT_FALSE(isData(RefType::Flush));
    EXPECT_EQ(refTypeName(RefType::Flush), "flush");
}

} // namespace
} // namespace swcc
