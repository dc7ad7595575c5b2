/**
 * @file
 * Unit tests for the swcc command-line tool, and for the scheme and
 * profile names it shares with proto_check and swccd.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include <sys/wait.h>

#include "cli/commands.hh"
#include "core/obs/metrics.hh"
#include "core/parallel.hh"
#include "core/workload.hh"
#include "cli/options.hh"
#include "service/protocol.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/trace/trace_io.hh"

namespace swcc::cli
{
namespace
{

/** Runs swcc in-process; stdout goes to @p output, stderr to @p errors. */
int
runCli(std::initializer_list<std::string> args, std::string *output,
       std::string *errors = nullptr)
{
    std::ostringstream out;
    std::ostringstream err;
    const int code = run(std::vector<std::string>(args), out, err);
    if (output != nullptr) {
        *output = out.str();
    }
    if (errors != nullptr) {
        *errors = err.str();
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
    std::string errors;
    EXPECT_EQ(runCli({}, &output, &errors), 2);
    EXPECT_NE(errors.find("usage:"), std::string::npos);
    EXPECT_TRUE(output.empty()) << output;
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
    std::string errors;
    EXPECT_EQ(runCli({"frobnicate"}, &output, &errors), 2);
    EXPECT_NE(errors.find("unknown command"), std::string::npos);
    EXPECT_NE(errors.find("usage:"), std::string::npos);
    EXPECT_TRUE(output.empty()) << output;
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

    std::string errors;
    EXPECT_EQ(runCli({"eval", "--threads", "0"}, &output, &errors), 2);
    EXPECT_NE(errors.find("positive"), std::string::npos);
    // Above the bound: rejected before the lane count changes, so no
    // pool of that size exists; the --threads 2 above still holds.
    EXPECT_EQ(runCli({"eval", "--threads", "4097"}, &output, &errors), 2);
    EXPECT_NE(errors.find("at most 4096"), std::string::npos);
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
    std::string errors;
    EXPECT_EQ(runCli({"eval", "--shd", "1.7"}, &output, &errors), 2);
    EXPECT_NE(errors.find("error:"), std::string::npos);
}

TEST(CliTest, EvalRejectsUnknownOption)
{
    std::string output;
    std::string errors;
    EXPECT_EQ(runCli({"eval", "--nonsense", "1"}, &output, &errors), 2);
    EXPECT_NE(errors.find("unknown option"), std::string::npos);
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
        std::string errors;
        EXPECT_EQ(runCli({"stat", path}, &output, &errors), 2);
        EXPECT_NE(errors.find(where), std::string::npos) << errors;
        EXPECT_EQ(
            runCli({"sim", path, "--scheme", "dragon"}, &output, &errors),
            2);
        EXPECT_NE(errors.find(where), std::string::npos) << errors;
        std::remove(path.c_str());
    }
}

TEST(CliTest, GenAndValidateRejectMoreCpusThanTheGeneratorHolds)
{
    // CPU 64's private segment would overlap the shared one.
    const std::string path = ::testing::TempDir() + "/cli_cpus65.swcc";
    std::remove(path.c_str());
    std::string output;
    std::string errors;
    EXPECT_EQ(runCli({"gen", "--cpus", "65", "--instructions", "100",
                      "--out", path},
                     &output, &errors),
              2);
    EXPECT_NE(errors.find("numCpus must be at most 64"),
              std::string::npos)
        << errors;
    EXPECT_FALSE(std::ifstream(path).good());

    // 65537 would wrap to 1 as a CpuId; 0 would print an empty table.
    const std::pair<const char *, const char *> cases[] = {
        {"65", "error: --cpus must be at most 64"},
        {"65537", "error: --cpus must be at most 64"},
        {"0", "error: maxCpus must be positive"},
    };
    for (const auto &[cpus, message] : cases) {
        EXPECT_EQ(runCli({"validate", "--cpus", cpus, "--instructions",
                          "100"},
                         &output, &errors),
                  2)
            << cpus;
        EXPECT_NE(errors.find(message), std::string::npos) << errors;
        EXPECT_EQ(output, "") << cpus;
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
        std::string errors;
        EXPECT_EQ(runCli({"sim", path, "--scheme", scheme, "--block",
                          "1", "--cache", "1024"},
                         &output, &errors),
                  2)
            << scheme;
        EXPECT_NE(errors.find("block size must be at least 2 bytes"),
                  std::string::npos)
            << errors;
    }
    std::remove(path.c_str());
}

TEST(CliTest, StatWithoutFileFails)
{
    std::string output;
    std::string errors;
    EXPECT_EQ(runCli({"stat"}, &output, &errors), 2);
    EXPECT_NE(errors.find("trace file"), std::string::npos);
}

TEST(CliTest, SimUnknownSchemeFails)
{
    std::string output;
    std::string errors;
    EXPECT_EQ(
        runCli({"sim", "x.swcc", "--scheme", "mosi"}, &output, &errors),
        2);
    EXPECT_NE(errors.find("unknown scheme"), std::string::npos);
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
    std::string errors;
    EXPECT_EQ(
        runCli({"sweep", "--from", "0", "--to", "1"}, &output, &errors),
        2);
    EXPECT_NE(errors.find("--param"), std::string::npos);
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
    std::string errors;
    EXPECT_EQ(runCli({"sweep", "--param", "shd", "--resume"}, &output,
                     &errors),
              2);
    EXPECT_NE(errors.find("--journal"), std::string::npos);
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
    std::string errors;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--points", "7",
                      "--cpus", "8", "--journal", journal,
                      "--csv-out", partial_csv, "--fault-inject",
                      "task-kill:1@2"},
                     &output, &errors),
              3);
    EXPECT_NE(errors.find("--resume"), std::string::npos);
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
    // first of them with exit 2, names the error on the error stream,
    // prints nothing on stdout and writes no CSV.
    const std::string csv = ::testing::TempDir() + "/cli_failing.csv";
    std::remove(csv.c_str());
    std::string output;
    std::string errors;
    EXPECT_EQ(runCli({"sweep", "--param", "shd", "--from", "0.5", "--to",
                      "2", "--points", "4", "--cpus", "8", "--threads",
                      "1", "--csv-out", csv},
                     &output, &errors),
              2);
    setThreadCount(0);
    EXPECT_NE(errors.find("error: campaign cell 2"), std::string::npos)
        << errors;
    EXPECT_NE(errors.find("shd must lie in [0, 1]"), std::string::npos)
        << errors;
    EXPECT_EQ(errors.find("nan"), std::string::npos) << errors;
    EXPECT_TRUE(output.empty()) << output;
    EXPECT_FALSE(std::ifstream(csv).good())
        << "a failed campaign must not leave a CSV artifact";
}

TEST(CliCampaignTest, FailedSweepStillWritesItsMetrics)
{
    // The run that fails at cell 2 on one thread has executed cells 0
    // and 1; its --metrics-out file says so.
    const std::string path =
        ::testing::TempDir() + "/cli_failing.metrics.json";
    std::remove(path.c_str());
    obs::metrics().resetForTest();
    std::string output;
    EXPECT_EQ(runCli({"sweep", "--param", "shd", "--from", "0.5", "--to",
                      "2", "--points", "4", "--cpus", "8", "--threads",
                      "1", "--metrics-out", path},
                     &output),
              2);
    setThreadCount(0);
    const std::string metrics = readFile(path);
    EXPECT_NE(metrics.find("{\"name\":\"campaign.cells_executed\","
                           "\"kind\":\"counter\",\"value\":2}"),
              std::string::npos)
        << metrics;
    std::remove(path.c_str());
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
    std::string summary;
    const int code = runCli({"sweep", "--param", "shd", "--from", "0.5",
                             "--to", "1", "--points", "2", "--cpus", "8",
                             "--journal", journal, "--resume",
                             "--csv-out", csv},
                            &resumed, &summary);
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
        std::string errors;
        EXPECT_EQ(runCli({"sweep", "--param", "shd", "--points", "2",
                          "--journal", journal, "--fault-inject", spec},
                         &output, &errors),
                  2)
            << spec;
        EXPECT_NE(errors.find(std::string("error: fault spec '") + spec),
                  std::string::npos)
            << errors;
        EXPECT_FALSE(std::ifstream(journal).good())
            << spec << " opened the journal";
    }
}

TEST(CliCampaignTest, RetryOptionsAreGone)
{
    for (const char *flag : {"--task-retries", "--task-timeout-ms",
                             "--backoff-ms", "--campaign-seed"}) {
        std::string output;
        std::string errors;
        EXPECT_EQ(runCli({"sweep", "--param", "shd", "--points", "2",
                          flag, "5"},
                         &output, &errors),
                  2)
            << flag;
        EXPECT_NE(errors.find(std::string("unknown option ") + flag),
                  std::string::npos)
            << errors;
    }
}

/** Runs the proto_check binary; returns its exit code and stdout. */
int
runProtoCheck(const std::string &args, std::string *output)
{
    const std::string command =
        std::string(SWCC_PROTO_CHECK) + " " + args + " 2>/dev/null";
    FILE *pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) {
        return -1;
    }
    output->clear();
    char buffer[256];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
        *output += buffer;
    }
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The scheme a JSON query naming @p name decodes to, if any. */
std::optional<Scheme>
decodeJsonScheme(const std::string &name)
{
    const std::string line =
        "{\"domain\":\"bus\",\"scheme\":\"" + name + "\",\"cpus\":4}\n";
    service::RequestFrame frame;
    std::string error;
    std::size_t consumed = 0;
    const auto status = service::decodeRequest(
        reinterpret_cast<const std::uint8_t *>(line.data()), line.size(),
        consumed, frame, error);
    if (status != service::DecodeStatus::Frame ||
        !frame.fieldError.empty()) {
        return std::nullopt;
    }
    return frame.query.scheme;
}

TEST(NameAliasTest, EverySchemeAliasParsesAlikeInEveryFrontEnd)
{
    // swcc (sim), proto_check and swccd's JSON decoder share one
    // case-insensitive parser, so each name means the same scheme in
    // all three, and a name none accepts is rejected by all three.
    const std::string trace = ::testing::TempDir() + "/cli_alias.swcc";
    std::string output;
    ASSERT_EQ(runCli({"gen", "--profile", "pops-like", "--cpus", "2",
                      "--instructions", "200", "--out", trace},
                     &output),
              0);
    const std::pair<const char *, Scheme> aliases[] = {
        {"base", Scheme::Base},
        {"BASE", Scheme::Base},
        {"no-cache", Scheme::NoCache},
        {"nocache", Scheme::NoCache},
        {"software-flush", Scheme::SoftwareFlush},
        {"softwareflush", Scheme::SoftwareFlush},
        {"sw-flush", Scheme::SoftwareFlush},
        {"swflush", Scheme::SoftwareFlush},
        {"flush", Scheme::SoftwareFlush},
        {"Flush", Scheme::SoftwareFlush},
        {"dragon", Scheme::Dragon},
        {"Dragon", Scheme::Dragon},
        {"mesi", Scheme::Mesi},
        {"MESIF", Scheme::Mesif},
        {"moesi", Scheme::Moesi},
        {"adaptive-hybrid", Scheme::Hybrid},
        {"hybrid", Scheme::Hybrid},
        {"Hybrid", Scheme::Hybrid},
    };
    for (const auto &[alias, scheme] : aliases) {
        SCOPED_TRACE(alias);
        const std::string name(schemeName(scheme));
        EXPECT_EQ(parseScheme(alias), scheme);

        std::string want;
        ASSERT_EQ(runCli({"sim", trace, "--scheme", name}, &want), 0);
        ASSERT_EQ(runCli({"sim", trace, "--scheme", alias}, &output), 0);
        EXPECT_EQ(output, want);

        EXPECT_EQ(runProtoCheck(std::string("--scheme-a ") + alias +
                                    " --scheme-b base --cpus 1 "
                                    "--instructions 100",
                                &output),
                  0);
        EXPECT_EQ(output.rfind("proto_check: " + name + " vs Base on ", 0),
                  0u)
            << output;

        EXPECT_EQ(decodeJsonScheme(alias), scheme);
    }
    EXPECT_EQ(parseScheme(""), std::nullopt);
    for (const char *unknown : {"mosi", "flushed", "sw_flush"}) {
        SCOPED_TRACE(unknown);
        EXPECT_EQ(parseScheme(unknown), std::nullopt);
        std::string errors;
        EXPECT_EQ(runCli({"sim", trace, "--scheme", unknown}, &output,
                         &errors),
                  2);
        EXPECT_NE(errors.find("unknown scheme"), std::string::npos);
        EXPECT_EQ(runProtoCheck(std::string("--scheme-a ") + unknown +
                                    " --scheme-b base",
                                &output),
                  2);
        EXPECT_EQ(decodeJsonScheme(unknown), std::nullopt);
    }
    std::remove(trace.c_str());
}

TEST(NameAliasTest, EveryProfileAliasParsesAlikeInEveryFrontEnd)
{
    // swcc gen and proto_check share one case-insensitive profile
    // parser: an alias writes the same trace, and checks the same
    // events, as the full name.
    const std::string dir = ::testing::TempDir();
    const std::pair<const char *, AppProfile> aliases[] = {
        {"pops-like", AppProfile::PopsLike},
        {"pops", AppProfile::PopsLike},
        {"POPS-Like", AppProfile::PopsLike},
        {"thor-like", AppProfile::ThorLike},
        {"thor", AppProfile::ThorLike},
        {"pero-like", AppProfile::PeroLike},
        {"pero", AppProfile::PeroLike},
        {"Pero", AppProfile::PeroLike},
    };
    for (const auto &[alias, profile] : aliases) {
        SCOPED_TRACE(alias);
        const std::string name(profileName(profile));
        EXPECT_EQ(parseProfile(alias), profile);

        const std::string want_path = dir + "/cli_profile_want.swcc";
        const std::string got_path = dir + "/cli_profile_got.swcc";
        std::string output;
        ASSERT_EQ(runCli({"gen", "--profile", name, "--cpus", "2",
                          "--instructions", "200", "--out", want_path},
                         &output),
                  0);
        ASSERT_EQ(runCli({"gen", "--profile", alias, "--cpus", "2",
                          "--instructions", "200", "--out", got_path},
                         &output),
                  0);
        EXPECT_EQ(readFile(got_path), readFile(want_path));
        std::remove(want_path.c_str());
        std::remove(got_path.c_str());

        const std::string check =
            " --scheme-a base --scheme-b dragon --cpus 2 "
            "--instructions 200";
        std::string want;
        EXPECT_EQ(runProtoCheck("--profile " + name + check, &want), 0);
        EXPECT_EQ(
            runProtoCheck(std::string("--profile ") + alias + check,
                          &output),
            0);
        EXPECT_EQ(output, want);
    }
    EXPECT_EQ(parseProfile(""), std::nullopt);
    for (const char *unknown : {"pops-lik", "popslike"}) {
        SCOPED_TRACE(unknown);
        EXPECT_EQ(parseProfile(unknown), std::nullopt);
        std::string output;
        std::string errors;
        EXPECT_EQ(runCli({"gen", "--profile", unknown, "--out",
                          dir + "/cli_profile_unknown.swcc"},
                         &output, &errors),
                  2);
        EXPECT_NE(errors.find("unknown profile"), std::string::npos);
        EXPECT_EQ(runProtoCheck(std::string("--profile ") + unknown +
                                    " --scheme-a base --scheme-b base",
                                &output),
                  2);
    }
}

} // namespace
} // namespace swcc::cli
