/**
 * @file
 * Unit tests for the swcc command-line tool.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/commands.hh"
#include "core/parallel.hh"
#include "core/workload.hh"
#include "cli/options.hh"
#include "sim/trace/trace_io.hh"

namespace swcc::cli
{
namespace
{

int
runCli(std::initializer_list<std::string> args, std::string *output)
{
    std::ostringstream out;
    const int code = run(std::vector<std::string>(args), out);
    if (output != nullptr) {
        *output = out.str();
    }
    return code;
}

TEST(OptionsTest, ParsesValuesFlagsAndPositionals)
{
    const Options options = Options::parse(
        {"trace.swcc", "--scheme", "dragon", "--network", "--cpus",
         "16"});
    EXPECT_EQ(options.positional().size(), 1u);
    EXPECT_EQ(options.positional().front(), "trace.swcc");
    EXPECT_EQ(options.valueOr("scheme", ""), "dragon");
    EXPECT_TRUE(options.has("network"));
    EXPECT_FALSE(options.value("network").has_value());
    EXPECT_EQ(options.unsignedOr("cpus", 0), 16u);
    EXPECT_EQ(options.unsignedOr("missing", 7), 7u);
}

TEST(OptionsTest, NumberParsingIsStrict)
{
    const Options options = Options::parse({"--x", "abc", "--y", "1.5"});
    EXPECT_THROW(options.numberOr("x", 0.0), std::invalid_argument);
    EXPECT_DOUBLE_EQ(options.numberOr("y", 0.0), 1.5);
    EXPECT_THROW(options.unsignedOr("y", 0), std::invalid_argument);
}

TEST(OptionsTest, UnsignedRejectsValuesAboveUintMax)
{
    // Casting a double above UINT_MAX to unsigned is UB; the parser
    // must range-check first and report a clear error.
    const Options options = Options::parse(
        {"--events", "5e9", "--edge", "4294967295", "--over",
         "4294967296", "--neg", "-3", "--inf", "inf"});
    EXPECT_THROW(options.unsignedOr("events", 0),
                 std::invalid_argument);
    EXPECT_EQ(options.unsignedOr("edge", 0), 4294967295u);
    EXPECT_THROW(options.unsignedOr("over", 0), std::invalid_argument);
    EXPECT_THROW(options.unsignedOr("neg", 0), std::invalid_argument);
    EXPECT_THROW(options.unsignedOr("inf", 0), std::invalid_argument);
    try {
        options.unsignedOr("events", 0);
        FAIL() << "expected an out-of-range error";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("out of range"),
                  std::string::npos)
            << error.what();
    }
}

TEST(OptionsTest, RejectsEmptyAndUnknownOptions)
{
    EXPECT_THROW(Options::parse({"--"}), std::invalid_argument);
    const Options options = Options::parse({"--known", "1", "--oops"});
    EXPECT_THROW(options.requireKnown({"known"}), std::invalid_argument);
    EXPECT_NO_THROW(options.requireKnown({"known", "oops"}));
}

TEST(CliTest, NoArgsPrintsUsage)
{
    std::string output;
    EXPECT_EQ(runCli({}, &output), 2);
    EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds)
{
    std::string output;
    EXPECT_EQ(runCli({"help"}, &output), 0);
    EXPECT_NE(output.find("commands:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails)
{
    std::string output;
    EXPECT_EQ(runCli({"frobnicate"}, &output), 2);
    EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(CliTest, ThreadsOptionIsAcceptedEverywhereAndDeterministic)
{
    std::string serial, parallel;
    EXPECT_EQ(runCli({"sensitivity", "--cpus", "8", "--threads", "1"},
                     &serial),
              0);
    EXPECT_EQ(runCli({"sensitivity", "--cpus", "8", "--threads", "4"},
                     &parallel),
              0);
    // The determinism guarantee, observed end to end: identical bytes.
    EXPECT_EQ(serial, parallel);

    std::string output;
    EXPECT_EQ(runCli({"eval", "--cpus", "4", "--threads", "2"},
                     &output),
              0);

    EXPECT_EQ(runCli({"eval", "--threads", "0"}, &output), 2);
    EXPECT_NE(output.find("positive"), std::string::npos);
    // Above the bound: rejected before the lane count changes, so no
    // pool of that size exists; the --threads 2 above still holds.
    EXPECT_EQ(runCli({"eval", "--threads", "4097"}, &output), 2);
    EXPECT_NE(output.find("at most 4096"), std::string::npos);
    EXPECT_EQ(configuredThreads(), 2u);

    setThreadCount(0); // Back to the default for the other tests.
}

TEST(CliTest, EvalBusPrintsEveryScheme)
{
    std::string output;
    ASSERT_EQ(runCli({"eval", "--cpus", "8", "--shd", "0.2"}, &output),
              0);
    EXPECT_NE(output.find("Base"), std::string::npos);
    EXPECT_NE(output.find("Dragon"), std::string::npos);
    EXPECT_NE(output.find("Software-Flush"), std::string::npos);
    EXPECT_NE(output.find("No-Cache"), std::string::npos);
    EXPECT_NE(output.find("MESI"), std::string::npos);
    EXPECT_NE(output.find("MESIF"), std::string::npos);
    EXPECT_NE(output.find("MOESI"), std::string::npos);
    EXPECT_NE(output.find("Adaptive-Hybrid"), std::string::npos);
}

TEST(CliTest, SimParsesEveryProtocolFamilyScheme)
{
    const std::string path = ::testing::TempDir() + "/cli_family.swcc";
    std::string output;
    ASSERT_EQ(runCli({"gen", "--profile", "pops-like", "--cpus", "2",
                      "--instructions", "5000", "--out", path},
                     &output),
              0);
    for (const char *scheme :
         {"mesi", "mesif", "moesi", "adaptive-hybrid"}) {
        ASSERT_EQ(runCli({"sim", path, "--scheme", scheme}, &output),
                  0)
            << scheme;
        EXPECT_NE(output.find("processing power"), std::string::npos)
            << scheme;
    }
    std::remove(path.c_str());
}

TEST(CliTest, EvalNetworkIncludesDirectoryExtension)
{
    std::string output;
    ASSERT_EQ(runCli({"eval", "--network", "--stages", "8"}, &output),
              0);
    EXPECT_NE(output.find("Directory"), std::string::npos);
    EXPECT_EQ(output.find("Dragon"), std::string::npos);
}

TEST(CliTest, EvalRejectsBadParameterValue)
{
    std::string output;
    EXPECT_EQ(runCli({"eval", "--shd", "1.7"}, &output), 2);
    EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST(CliTest, EvalRejectsUnknownOption)
{
    std::string output;
    EXPECT_EQ(runCli({"eval", "--nonsense", "1"}, &output), 2);
    EXPECT_NE(output.find("unknown option"), std::string::npos);
}

TEST(CliTest, GenStatSimRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/cli_trace.swcc";

    std::string output;
    ASSERT_EQ(runCli({"gen", "--profile", "pops-like", "--cpus", "2",
                      "--instructions", "20000", "--flushes", "--out",
                      path},
                     &output),
              0);
    EXPECT_NE(output.find("wrote"), std::string::npos);

    ASSERT_EQ(runCli({"stat", path}, &output), 0);
    EXPECT_NE(output.find("ls"), std::string::npos);
    EXPECT_NE(output.find("apl"), std::string::npos);

    ASSERT_EQ(runCli({"sim", path, "--scheme", "software-flush"},
                     &output),
              0);
    EXPECT_NE(output.find("processing power"), std::string::npos);

    std::remove(path.c_str());
}

TEST(CliTest, Cpu65535TracesAreRejectedNotSimulated)
{
    // Cpu 65535 used to wrap numCpus() to 0: stat printed "cpus 0" and
    // sim crashed.
    const std::string text = ::testing::TempDir() + "/cli_cpu65535.trace";
    {
        std::ofstream os(text);
        os << "0 i 1000\n-1 l 80000000\n";
    }
    const std::string binary = ::testing::TempDir() + "/cli_cpu65535.swcc";
    {
        TraceBuffer trace;
        trace.append(0, RefType::IFetch, 0x1000);
        trace.append(kMaxTraceCpu, RefType::Load, 0x8000'0000);
        saveTrace(trace, binary);
        // Event 1's cpu field: after the 16-byte header, one record
        // and that record's 8-byte address.
        std::fstream patch(binary,
                           std::ios::in | std::ios::out | std::ios::binary);
        patch.seekp(16 + 16 + 8);
        patch.write("\xff\xff", 2);
    }
    for (const auto &[path, where] :
         {std::pair{text, "line 2"}, std::pair{binary, "event 1"}}) {
        std::string output;
        EXPECT_EQ(runCli({"stat", path}, &output), 2);
        EXPECT_NE(output.find(where), std::string::npos) << output;
        EXPECT_EQ(runCli({"sim", path, "--scheme", "dragon"}, &output), 2);
        EXPECT_NE(output.find(where), std::string::npos) << output;
        std::remove(path.c_str());
    }
}

TEST(CliTest, GenAndValidateRejectMoreCpusThanTheGeneratorHolds)
{
    // CPU 64's private segment would overlap the shared one.
    const std::string path = ::testing::TempDir() + "/cli_cpus65.swcc";
    std::remove(path.c_str());
    std::string output;
    EXPECT_EQ(runCli({"gen", "--cpus", "65", "--instructions", "100",
                      "--out", path},
                     &output),
              2);
    EXPECT_NE(output.find("numCpus must be at most 64"),
              std::string::npos)
        << output;
    EXPECT_FALSE(std::ifstream(path).good());

    // 65537 would wrap to 1 as a CpuId.
    for (const char *cpus : {"65", "65537"}) {
        EXPECT_EQ(runCli({"validate", "--cpus", cpus, "--instructions",
                          "100"},
                         &output),
                  2);
        EXPECT_NE(output.find("--cpus must be at most 64"),
                  std::string::npos)
            << output;
    }
}

TEST(CliTest, SimRejectsOneByteBlocks)
{
    // With 1-byte blocks the top address would alias the cache's
    // invalid tag: Base would count a cold load as a hit, and Dragon
    // and MESI would throw.
    const std::string path = ::testing::TempDir() + "/cli_block1.trace";
    {
        std::ofstream os(path);
        os << "0 l ffffffffffffffff\n0 s ffffffffffffffff\n";
    }
    for (const char *scheme : {"base", "dragon", "mesi"}) {
        std::string output;
        EXPECT_EQ(runCli({"sim", path, "--scheme", scheme, "--block",
                          "1", "--cache", "1024"},
                         &output),
                  2)
            << scheme;
        EXPECT_NE(output.find("block size must be at least 2 bytes"),
                  std::string::npos)
            << output;
    }
    std::remove(path.c_str());
}

TEST(CliTest, StatWithoutFileFails)
{
    std::string output;
    EXPECT_EQ(runCli({"stat"}, &output), 2);
    EXPECT_NE(output.find("trace file"), std::string::npos);
}

TEST(CliTest, SimUnknownSchemeFails)
{
    std::string output;
    EXPECT_EQ(runCli({"sim", "x.swcc", "--scheme", "mosi"}, &output), 2);
    EXPECT_NE(output.find("unknown scheme"), std::string::npos);
}

TEST(CliTest, ValidateRunsEndToEnd)
{
    std::string output;
    ASSERT_EQ(runCli({"validate", "--profile", "thor-like", "--scheme",
                      "base", "--cpus", "2", "--instructions",
                      "20000"},
                     &output),
              0);
    EXPECT_NE(output.find("model power"), std::string::npos);
    EXPECT_NE(output.find("error %"), std::string::npos);
}

TEST(CliTest, SweepProducesRequestedPoints)
{
    std::string output;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--from", "0.1",
                      "--to", "0.3", "--points", "3", "--cpus", "8"},
                     &output),
              0);
    EXPECT_NE(output.find("0.1"), std::string::npos);
    EXPECT_NE(output.find("0.3"), std::string::npos);
}

TEST(CliTest, SweepAplUsesAplAxis)
{
    std::string output;
    ASSERT_EQ(runCli({"sweep", "--param", "apl", "--from", "1", "--to",
                      "64", "--points", "4"},
                     &output),
              0);
    EXPECT_NE(output.find("apl"), std::string::npos);
    EXPECT_NE(output.find("64"), std::string::npos);
}

TEST(CliTest, NetworkComparesDisciplines)
{
    std::string output;
    ASSERT_EQ(runCli({"network", "--stages", "6"}, &output), 0);
    EXPECT_NE(output.find("circuit power"), std::string::npos);
    EXPECT_NE(output.find("packet power"), std::string::npos);
    EXPECT_NE(output.find("Directory"), std::string::npos);
}

TEST(CliTest, NetworkWithWideSwitches)
{
    std::string output;
    ASSERT_EQ(runCli({"network", "--stages", "8", "--switch", "4"},
                     &output),
              0);
    EXPECT_NE(output.find("4x4"), std::string::npos);
    EXPECT_EQ(runCli({"network", "--switch", "1"}, &output), 2);
}

TEST(CliTest, SensitivityPrintsEveryParameter)
{
    std::string output;
    ASSERT_EQ(runCli({"sensitivity", "--cpus", "8"}, &output), 0);
    for (ParamId id : kAllParams) {
        EXPECT_NE(output.find(std::string(paramName(id))),
                  std::string::npos)
            << paramName(id);
    }
}

TEST(CliTest, SweepNeedsParam)
{
    std::string output;
    EXPECT_EQ(runCli({"sweep", "--from", "0", "--to", "1"}, &output), 2);
    EXPECT_NE(output.find("--param"), std::string::npos);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(CliCampaignTest, ResumeNeedsJournal)
{
    std::string output;
    EXPECT_EQ(runCli({"sweep", "--param", "shd", "--resume"}, &output),
              2);
    EXPECT_NE(output.find("--journal"), std::string::npos);
}

TEST(CliCampaignTest, InterruptedSweepResumesByteIdentically)
{
    const std::string dir = ::testing::TempDir();
    const std::string journal = dir + "/cli_sweep.journal";
    const std::string fresh_csv = dir + "/cli_fresh.csv";
    const std::string resumed_csv = dir + "/cli_resumed.csv";
    std::remove(journal.c_str());
    std::remove(fresh_csv.c_str());
    std::remove(resumed_csv.c_str());

    // Reference: one uninterrupted run.
    std::string output;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--points", "7",
                      "--cpus", "8", "--csv-out", fresh_csv},
                     &output),
              0);

    // The same sweep killed mid-campaign by an injected task kill:
    // exit code 3, a journal with the completed cells, and no CSV.
    const std::string partial_csv = dir + "/cli_partial.csv";
    std::remove(partial_csv.c_str());
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--points", "7",
                      "--cpus", "8", "--journal", journal,
                      "--csv-out", partial_csv, "--fault-inject",
                      "task-kill:1@2"},
                     &output),
              3);
    EXPECT_NE(output.find("--resume"), std::string::npos);
    EXPECT_FALSE(std::ifstream(partial_csv).good())
        << "an interrupted campaign must not leave a CSV artifact";

    // Resume: recomputes only the missing cells; the CSV (and stdout
    // table) must be byte-identical to the uninterrupted run.
    std::string fresh_stdout;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--points", "7",
                      "--cpus", "8"},
                     &fresh_stdout),
              0);
    std::string resumed_stdout;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--points", "7",
                      "--cpus", "8", "--journal", journal, "--resume",
                      "--csv-out", resumed_csv},
                     &resumed_stdout),
              0);
    EXPECT_EQ(resumed_stdout, fresh_stdout);
    EXPECT_EQ(readFile(resumed_csv), readFile(fresh_csv));
    EXPECT_FALSE(readFile(resumed_csv).empty());

    std::remove(journal.c_str());
    std::remove(fresh_csv.c_str());
    std::remove(resumed_csv.c_str());
}

TEST(CliCampaignTest, FailingCellFailsTheSweep)
{
    // shd 1.5 and 2.0 are out of range: the campaign stops at the
    // first of them with exit 2, names the error, prints no table and
    // writes no CSV.
    const std::string csv = ::testing::TempDir() + "/cli_failing.csv";
    std::remove(csv.c_str());
    std::string output;
    EXPECT_EQ(runCli({"sweep", "--param", "shd", "--from", "0.5", "--to",
                      "2", "--points", "4", "--cpus", "8", "--threads",
                      "1", "--csv-out", csv},
                     &output),
              2);
    setThreadCount(0);
    EXPECT_NE(output.find("campaign cell 2"), std::string::npos)
        << output;
    EXPECT_NE(output.find("shd must lie in [0, 1]"), std::string::npos)
        << output;
    EXPECT_EQ(output.find("nan"), std::string::npos) << output;
    EXPECT_FALSE(std::ifstream(csv).good())
        << "a failed campaign must not leave a CSV artifact";
}

TEST(CliCampaignTest, FailedSweepResumesOnceTheRangeIsFixed)
{
    // The failing sweep journals its two in-range cells (shd 0.5 and
    // 1.0) before shd 1.5 fails. The fixed range names the same two
    // cells, so its resume computes nothing and prints the table of a
    // fresh run.
    const std::string dir = ::testing::TempDir();
    const std::string journal = dir + "/cli_fixed.journal";
    const std::string csv = dir + "/cli_fixed.csv";
    std::remove(journal.c_str());
    std::remove(csv.c_str());
    std::string output;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--from", "0.5", "--to",
                      "2", "--points", "4", "--cpus", "8", "--threads",
                      "1", "--journal", journal},
                     &output),
              2);
    setThreadCount(0);

    std::string fresh;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--from", "0.5", "--to",
                      "1", "--points", "2", "--cpus", "8"},
                     &fresh),
              0);
    std::string resumed;
    ::testing::internal::CaptureStderr();
    const int code = runCli({"sweep", "--param", "shd", "--from", "0.5",
                             "--to", "1", "--points", "2", "--cpus", "8",
                             "--journal", journal, "--resume",
                             "--csv-out", csv},
                            &resumed);
    const std::string summary = ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(code, 0) << resumed;
    EXPECT_NE(summary.find("2 cells (2 from journal, 0 executed)"),
              std::string::npos)
        << summary;
    EXPECT_EQ(resumed, fresh);
    EXPECT_FALSE(readFile(csv).empty());
    std::remove(journal.c_str());
    std::remove(csv.c_str());
}

TEST(CliCampaignTest, OtherFaultSitesExitTwoBeforeAnyCellRuns)
{
    // task-kill is the only fault site: any other spec is a usage
    // error, reported before the journal is opened.
    const std::string journal =
        ::testing::TempDir() + "/cli_bad_spec.journal";
    for (const char *spec : {"solver-bus:1", "trace-io:1", "task-timeout:1",
                             "task-kill:50%"}) {
        std::remove(journal.c_str());
        std::string output;
        EXPECT_EQ(runCli({"sweep", "--param", "shd", "--points", "2",
                          "--journal", journal, "--fault-inject", spec},
                         &output),
                  2)
            << spec;
        EXPECT_NE(output.find(std::string("error: fault spec '") + spec),
                  std::string::npos)
            << output;
        EXPECT_FALSE(std::ifstream(journal).good())
            << spec << " opened the journal";
    }
}

TEST(CliCampaignTest, RetryOptionsAreGone)
{
    for (const char *flag : {"--task-retries", "--task-timeout-ms",
                             "--backoff-ms", "--campaign-seed"}) {
        std::string output;
        EXPECT_EQ(runCli({"sweep", "--param", "shd", "--points", "2",
                          flag, "5"},
                         &output),
                  2)
            << flag;
        EXPECT_NE(output.find(std::string("unknown option ") + flag),
                  std::string::npos)
            << output;
    }
}

} // namespace
} // namespace swcc::cli
