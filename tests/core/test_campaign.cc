/**
 * @file
 * Unit tests for the campaign engine: cell hashing, atomic artifact
 * writes, the checksummed journal, the task-kill hook, and runCells()'s
 * resume and fail-fast contract. Every suite name starts with
 * "Campaign" so the tsan preset's test filter picks the whole file up.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign/atomic_file.hh"
#include "core/campaign/campaign.hh"
#include "core/campaign/cell_hash.hh"
#include "core/campaign/journal.hh"
#include "core/obs/metrics.hh"
#include "core/parallel.hh"
#include "core/sensitivity.hh"
#include "core/sweep.hh"
#include "core/workload.hh"
#include "sim/mp/validation.hh"

namespace swcc
{
namespace
{

namespace fs = std::filesystem;

std::string
freshPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    fs::remove(path);
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

bool
sameBits(double a, double b)
{
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

// ---------------------------------------------------------------------
// Cell identity hashing.

TEST(CampaignCellKeyTest, SameFieldsSameHash)
{
    const std::uint64_t a = campaign::CellKey("sweep")
        .add("shd").add(0.25).add(std::uint64_t{16}).hash();
    const std::uint64_t b = campaign::CellKey("sweep")
        .add("shd").add(0.25).add(std::uint64_t{16}).hash();
    EXPECT_EQ(a, b);
}

TEST(CampaignCellKeyTest, FieldOrderAndValuesMatter)
{
    const std::uint64_t base = campaign::CellKey("sweep")
        .add("shd").add(0.25).hash();
    EXPECT_NE(base,
              campaign::CellKey("sweep").add(0.25).add("shd").hash());
    EXPECT_NE(base,
              campaign::CellKey("sweep").add("shd").add(0.26).hash());
    EXPECT_NE(base,
              campaign::CellKey("other").add("shd").add(0.25).hash());
    // Field framing: ("ab", "c") must not collide with ("a", "bc").
    EXPECT_NE(campaign::CellKey("d").add("ab").add("c").hash(),
              campaign::CellKey("d").add("a").add("bc").hash());
}

TEST(CampaignCellKeyTest, DoublesAreCanonicalised)
{
    // -0.0 and +0.0 compare equal, so they must hash equal; any NaN
    // collapses to one canonical bit pattern.
    EXPECT_EQ(campaign::CellKey("k").add(-0.0).hash(),
              campaign::CellKey("k").add(0.0).hash());
    const double nan1 = std::numeric_limits<double>::quiet_NaN();
    const double nan2 = std::nan("0x5");
    EXPECT_EQ(campaign::CellKey("k").add(nan1).hash(),
              campaign::CellKey("k").add(nan2).hash());
}

TEST(CampaignCellKeyTest, WorkloadParamsChangeTheHash)
{
    WorkloadParams a = middleParams();
    WorkloadParams b = middleParams();
    EXPECT_EQ(campaign::CellKey("k").add(a).hash(),
              campaign::CellKey("k").add(b).hash());
    b.shd += 0.01;
    EXPECT_NE(campaign::CellKey("k").add(a).hash(),
              campaign::CellKey("k").add(b).hash());

    // Two apl values with one reciprocal are different workloads.
    WorkloadParams c = middleParams();
    c.apl = 7.692307692307693;
    WorkloadParams d = c;
    d.apl = std::nextafter(c.apl, 8.0);
    ASSERT_EQ(getParam(c, ParamId::InvApl), getParam(d, ParamId::InvApl));
    EXPECT_NE(campaign::CellKey("k").add(c).hash(),
              campaign::CellKey("k").add(d).hash());
}

TEST(CampaignCellKeyTest, JournalKeysArePinned)
{
    // A journal must resume under any later build on any host: pin the
    // keys one validate, one sweep and one Table 8 cell write today.
    campaign::CampaignOptions options;
    options.journalPath = freshPath("pinned_keys.journal");
    options.resume = true; // Each campaign appends to the one journal.
    ValidationConfig validation;
    validation.profile = AppProfile::PopsLike;
    validation.scheme = Scheme::Dragon;
    validation.maxCpus = 1;
    validation.instructionsPerCpu = 2'000;
    validation.seed = 7;
    validate(validation, options);
    sweepPowerGrid(ParamId::Shd, false, {0.25}, middleParams(), 16,
                   {Scheme::Dragon}, options);
    sensitivityTable(SensitivityConfig{}, options);

    const auto keys = campaign::Journal::load(options.journalPath);
    EXPECT_EQ(keys.size(), 2 + kNumParams * kNumPaperSchemes);
    EXPECT_EQ(keys.count(0xe8b4b66be662332aull), 1u); // validate
    // The sweep key holds apl by its own bits, not 1/apl.
    EXPECT_EQ(keys.count(0xc1f9bfa90f91422dull), 1u); // sweep
    // Table 8's first cell: (ls, Software-Flush) at 16 processors.
    EXPECT_EQ(keys.count(0xc08d6c811f61dfe7ull), 1u);
}

// ---------------------------------------------------------------------
// Atomic artifact writes.

TEST(CampaignAtomicFileTest, WritesContentAndLeavesNoTempFiles)
{
    const std::string path = freshPath("atomic_basic.txt");
    campaign::atomicWriteFile(
        path, [](std::ostream &os) { os << "hello\nworld\n"; });
    EXPECT_EQ(slurp(path), "hello\nworld\n");
    // Only look for temporaries of *this* destination: the shared
    // temp directory can transiently hold another test's in-flight
    // .tmp. file when ctest runs suites in parallel.
    for (const auto &entry :
         fs::directory_iterator(fs::path(path).parent_path())) {
        EXPECT_EQ(entry.path().string().find("atomic_basic.txt.tmp."),
                  std::string::npos)
            << "leftover temporary: " << entry.path();
    }
}

TEST(CampaignAtomicFileTest, CreatesMissingParentDirectories)
{
    const std::string root = freshPath("atomic_tree");
    fs::remove_all(root);
    const std::string path = root + "/a/b/c/nested.txt";
    campaign::atomicWriteFile(
        path, [](std::ostream &os) { os << "deep\n"; });
    EXPECT_EQ(slurp(path), "deep\n");
    // A second write through the now-existing tree also works.
    campaign::atomicWriteFile(
        path, [](std::ostream &os) { os << "deeper\n"; });
    EXPECT_EQ(slurp(path), "deeper\n");
    fs::remove_all(root);
}

TEST(CampaignAtomicFileTest, FailedWriteLeavesDestinationUntouched)
{
    const std::string path = freshPath("atomic_fail.txt");
    campaign::atomicWriteFile(path,
                              [](std::ostream &os) { os << "v1"; });
    EXPECT_THROW(campaign::atomicWriteFile(
                     path,
                     [](std::ostream &os) {
                         os << "partial v2";
                         throw std::runtime_error("writer died");
                     }),
                 std::runtime_error);
    EXPECT_EQ(slurp(path), "v1");
}

// ---------------------------------------------------------------------
// Journal round trips.

TEST(CampaignJournalTest, RoundTripsExactDoubleBits)
{
    const std::string path = freshPath("journal_roundtrip.journal");
    const std::vector<double> values = {
        1.0,
        -0.0,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        -123.456789012345678,
    };
    {
        campaign::Journal journal(path, false);
        journal.append(0xdeadbeefu, values);
    }
    const auto loaded = campaign::Journal::load(path);
    ASSERT_EQ(loaded.size(), 1u);
    const auto it = loaded.find(0xdeadbeefu);
    ASSERT_NE(it, loaded.end());
    ASSERT_EQ(it->second.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_TRUE(sameBits(it->second[i], values[i]))
            << "value " << i << " changed bits across the journal";
    }
}

TEST(CampaignJournalTest, LastRecordWinsForDuplicateKeys)
{
    const std::string path = freshPath("journal_dup.journal");
    {
        campaign::Journal journal(path, false);
        journal.append(7, {1.0});
        journal.append(7, {2.0});
    }
    const auto loaded = campaign::Journal::load(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.at(7).front(), 2.0);
}

TEST(CampaignJournalTest, TornTailRecordIsDropped)
{
    const std::string path = freshPath("journal_torn.journal");
    {
        campaign::Journal journal(path, false);
        journal.append(1, {1.0});
        journal.append(2, {2.0});
    }
    {
        // Simulate a crash mid-append: half a record at the tail.
        std::ofstream os(path, std::ios::app | std::ios::binary);
        os << "00000000000000c8 2 3ff00000000";
    }
    const auto loaded = campaign::Journal::load(path);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(loaded.count(1));
    EXPECT_TRUE(loaded.count(2));
}

TEST(CampaignJournalTest, CorruptionStopsTheScan)
{
    const std::string path = freshPath("journal_corrupt.journal");
    {
        campaign::Journal journal(path, false);
        journal.append(1, {1.0});
        journal.append(2, {2.0});
        journal.append(3, {3.0});
    }
    std::string text = slurp(path);
    // Flip one hex digit inside the second record's value field.
    const std::size_t second = text.find('\n', text.find('\n') + 1) + 1;
    const std::size_t digit = text.find(' ', second) + 3;
    text[digit] = text[digit] == 'f' ? '0' : 'f';
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text;
    }
    // Everything before the damage survives; nothing after is trusted.
    const auto loaded = campaign::Journal::load(path);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.count(1));
}

TEST(CampaignJournalTest, MissingFileLoadsEmpty)
{
    EXPECT_TRUE(
        campaign::Journal::load(freshPath("journal_missing.journal"))
            .empty());
}

// ---------------------------------------------------------------------
// The task-kill hook's spec.

TEST(CampaignFaultsTest, BadSpecsAreRejected)
{
    // task-kill:COUNT[@SKIP] is the only spec; anything else fails
    // before a cell runs.
    for (const char *spec :
         {"bogus-site:1", "solver-bus", "solver-bus:abc",
          "solver-bus:150%", "solver-bus:1", "task-timeout:1",
          "task-kill:50%"}) {
        campaign::CampaignOptions options;
        options.faultSpec = spec;
        EXPECT_THROW(campaign::runCells(
                         1, 1, [](std::size_t) { return std::uint64_t{1}; },
                         [spec](std::size_t) -> std::vector<double> {
                             ADD_FAILURE() << "cell ran under " << spec;
                             return {1.0};
                         },
                         options),
                     std::invalid_argument)
            << spec;
    }
}

TEST(CampaignFaultsTest, CountModeFiresAnExactWindow)
{
    // One lane starts cells in index order: task-kill:2@3 lets starts
    // 0-2 finish and kills start 3. The window is counted per
    // runCells() call, so a second call dies at the same start, and a
    // window past the last start never fires.
    const auto keyOf = [](std::size_t i) {
        return campaign::CellKey("window")
            .add(static_cast<std::uint64_t>(i))
            .hash();
    };
    std::vector<std::size_t> ran;
    const auto eval = [&ran](std::size_t i) {
        ran.push_back(i);
        return std::vector<double>{static_cast<double>(i)};
    };
    campaign::CampaignOptions options;
    options.faultSpec = "task-kill:2@3";
    setThreadCount(1);
    for (int call = 0; call < 2; ++call) {
        ran.clear();
        campaign::CampaignReport report;
        std::string message;
        try {
            campaign::runCells(10, 1, keyOf, eval, options, &report);
            ADD_FAILURE() << "call " << call << " was not killed";
        } catch (const campaign::TaskKilled &kill) {
            message = kill.what();
        }
        EXPECT_NE(message.find("cell start 3"), std::string::npos)
            << "call " << call << ": " << message;
        EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}))
            << "call " << call;
        EXPECT_EQ(report.executed, 3u) << "call " << call;
    }

    options.faultSpec = "task-kill:2@10";
    ran.clear();
    const auto results = campaign::runCells(10, 1, keyOf, eval, options);
    setThreadCount(0);
    EXPECT_EQ(ran.size(), 10u);
    EXPECT_EQ(results.back(), std::vector<double>{9.0});
}

TEST(CampaignFaultsTest, BadSpecLeavesTheJournalUntouched)
{
    // The spec is parsed before the journal opens, so a mistyped spec
    // cannot truncate the journal of an earlier run. The journal is
    // copied to a path no Journal of this process has opened, where
    // opening one without resume would truncate it.
    const std::string written = freshPath("bad_spec_source.journal");
    {
        campaign::Journal journal(written, false);
        journal.append(1, {1.0});
        journal.append(2, {2.0});
    }
    const std::string path = freshPath("bad_spec.journal");
    fs::copy_file(written, path);
    const std::string before = slurp(path);

    campaign::CampaignOptions options;
    options.journalPath = path;
    options.faultSpec = "solver-bus:1";
    EXPECT_THROW(campaign::runCells(
                     2, 1,
                     [](std::size_t i) {
                         return static_cast<std::uint64_t>(i + 1);
                     },
                     [](std::size_t i) {
                         return std::vector<double>{
                             static_cast<double>(i)};
                     },
                     options),
                 std::invalid_argument);
    EXPECT_EQ(slurp(path), before);
    EXPECT_EQ(campaign::Journal::load(path).size(), 2u);
}

/** Sets an environment variable for one scope (null unsets it). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            saved_ = old;
        }
        set(value);
    }

    ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    void
    set(const char *value)
    {
        if (value != nullptr) {
            setenv(name_, value, 1);
        } else {
            unsetenv(name_);
        }
    }

    const char *name_;
    std::optional<std::string> saved_;
};

TEST(CampaignEnvTest, OnlyTheJournalVariablesConfigureACampaign)
{
    // SWCC_JOURNAL_DIR and SWCC_RESUME are the campaign's environment;
    // SWCC_FAULT_INJECT arms nothing.
    {
        ScopedEnv dir("SWCC_JOURNAL_DIR", nullptr);
        ScopedEnv resume("SWCC_RESUME", "1");
        const campaign::CampaignOptions off =
            campaign::envCampaignOptions("fig01");
        EXPECT_TRUE(off.journalPath.empty());
        EXPECT_FALSE(off.resume) << "resume needs a journal";
    }

    ScopedEnv dir("SWCC_JOURNAL_DIR", "journals");
    ScopedEnv fault("SWCC_FAULT_INJECT", "task-kill:1");
    {
        ScopedEnv resume("SWCC_RESUME", "Yes");
        const campaign::CampaignOptions on =
            campaign::envCampaignOptions("fig01");
        EXPECT_EQ(on.journalPath, "journals/fig01.journal");
        EXPECT_TRUE(on.resume);
        EXPECT_TRUE(on.faultSpec.empty());
    }
    {
        ScopedEnv resume("SWCC_RESUME", "0");
        EXPECT_FALSE(campaign::envCampaignOptions("fig01").resume);
    }

    campaign::CampaignReport report;
    const auto results = campaign::runCells(
        3, 1, [](std::size_t i) { return static_cast<std::uint64_t>(i); },
        [](std::size_t i) {
            return std::vector<double>{static_cast<double>(i)};
        },
        campaign::CampaignOptions{}, &report);
    EXPECT_EQ(report.executed, 3u);
    EXPECT_EQ(results.back(), std::vector<double>{2.0});
}

// ---------------------------------------------------------------------
// runCells: resume and fail-fast.

class CampaignRunCellsTest : public ::testing::Test
{
  protected:
    /** Deterministic two-wide cell payload. */
    static std::vector<double>
    payload(std::size_t i)
    {
        const double x = static_cast<double>(i);
        return {x * 1.5 + 0.25, std::sqrt(x + 1.0)};
    }

    /**
     * payload() after a short sleep, so runCells() outlasts the pool's
     * ~1 ms inline prefix and 4 lanes claim chunks of about n / 32.
     */
    static std::vector<double>
    slowPayload(std::size_t i)
    {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        return payload(i);
    }

    static std::uint64_t
    keyOf(std::size_t i)
    {
        return campaign::CellKey("test")
            .add(static_cast<std::uint64_t>(i))
            .hash();
    }
};

TEST_F(CampaignRunCellsTest, ComputesEveryCellWithoutJournal)
{
    campaign::CampaignReport report;
    const auto results = campaign::runCells(
        8, 2, keyOf, [](std::size_t i) { return payload(i); },
        campaign::CampaignOptions{}, &report);
    ASSERT_EQ(results.size(), 8u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], payload(i));
    }
    EXPECT_EQ(report.cells, 8u);
    EXPECT_EQ(report.executed, 8u);
    EXPECT_EQ(report.fromJournal, 0u);
}

TEST_F(CampaignRunCellsTest, ResumeUsesTheJournalInsteadOfEval)
{
    campaign::CampaignOptions options;
    options.journalPath = freshPath("runcells_resume.journal");
    const auto first = campaign::runCells(
        6, 2, keyOf, [](std::size_t i) { return payload(i); }, options);

    options.resume = true;
    campaign::CampaignReport report;
    const auto second = campaign::runCells(
        6, 2, keyOf,
        [](std::size_t i) -> std::vector<double> {
            ADD_FAILURE() << "cell " << i
                          << " recomputed despite a full journal";
            return payload(i);
        },
        options, &report);
    EXPECT_EQ(report.fromJournal, 6u);
    EXPECT_EQ(report.executed, 0u);
    for (std::size_t i = 0; i < 6; ++i) {
        ASSERT_EQ(second[i].size(), first[i].size());
        for (std::size_t j = 0; j < first[i].size(); ++j) {
            EXPECT_TRUE(sameBits(second[i][j], first[i][j]));
        }
    }
}

TEST_F(CampaignRunCellsTest, KillThenResumeIsByteIdentical)
{
    const auto baseline = campaign::runCells(
        10, 2, keyOf, [](std::size_t i) { return payload(i); },
        campaign::CampaignOptions{});

    campaign::CampaignOptions options;
    options.journalPath = freshPath("runcells_kill.journal");
    options.faultSpec = "task-kill:1@4"; // Kill the 5th task started.
    EXPECT_THROW(campaign::runCells(
                     10, 2, keyOf,
                     [](std::size_t i) { return payload(i); }, options),
                 campaign::TaskKilled);

    // "New process": no kill, resume from the journal.
    options.faultSpec.clear();
    options.resume = true;
    campaign::CampaignReport report;
    const auto resumed = campaign::runCells(
        10, 2, keyOf, [](std::size_t i) { return payload(i); },
        options, &report);

    EXPECT_GT(report.fromJournal, 0u);
    EXPECT_EQ(report.fromJournal + report.executed, 10u);
    ASSERT_EQ(resumed.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        ASSERT_EQ(resumed[i].size(), baseline[i].size());
        for (std::size_t j = 0; j < baseline[i].size(); ++j) {
            EXPECT_TRUE(sameBits(resumed[i][j], baseline[i][j]))
                << "cell " << i << " value " << j
                << " differs after resume";
        }
    }
}

TEST_F(CampaignRunCellsTest, FailingCellFailsTheRunAndKeepsEarlierCells)
{
    // One lane runs the cells in order: cells 0-2 finish and are
    // journaled, cell 3 throws, and the run stops there.
    campaign::CampaignOptions options;
    options.journalPath = freshPath("runcells_fail.journal");
    setThreadCount(1);
    campaign::CampaignReport report;
    std::string message;
    try {
        campaign::runCells(
            5, 2, keyOf,
            [](std::size_t i) -> std::vector<double> {
                if (i == 3) {
                    throw std::invalid_argument("shd must lie in [0, 1]");
                }
                return payload(i);
            },
            options, &report);
        ADD_FAILURE() << "a throwing cell must fail the run";
    } catch (const std::exception &error) {
        message = error.what();
    }
    setThreadCount(0);
    EXPECT_NE(message.find("cell 3"), std::string::npos) << message;
    EXPECT_NE(message.find("shd must lie in [0, 1]"), std::string::npos)
        << message;
    char key[17];
    std::snprintf(key, sizeof key, "%016llx",
                  static_cast<unsigned long long>(keyOf(3)));
    EXPECT_NE(message.find(key), std::string::npos) << message;
    EXPECT_EQ(report.cells, 5u);
    EXPECT_EQ(report.executed, 3u);

    const auto journaled = campaign::Journal::load(options.journalPath);
    EXPECT_EQ(journaled.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(journaled.count(keyOf(i)), 1u) << "cell " << i;
        EXPECT_EQ(journaled.at(keyOf(i)), payload(i)) << "cell " << i;
    }
}

TEST_F(CampaignRunCellsTest, NonFiniteJournalRecordIsRecomputed)
{
    // Older builds journaled a failed cell as a row of NaNs; a resume
    // recomputes that cell instead of handing the NaNs back.
    campaign::CampaignOptions options;
    options.journalPath = freshPath("runcells_nan.journal");
    {
        campaign::Journal journal(options.journalPath, false);
        journal.append(keyOf(0), payload(0));
        const double nan = std::numeric_limits<double>::quiet_NaN();
        journal.append(keyOf(1), {nan, nan});
    }
    options.resume = true;
    campaign::CampaignReport report;
    const auto results = campaign::runCells(
        2, 2, keyOf, [](std::size_t i) { return payload(i); }, options,
        &report);
    EXPECT_EQ(report.fromJournal, 1u);
    EXPECT_EQ(report.executed, 1u);
    EXPECT_EQ(results[0], payload(0));
    EXPECT_EQ(results[1], payload(1));
}

TEST_F(CampaignRunCellsTest, FailedRunResumesOnceTheInputIsFixed)
{
    // The failing run journals cells 0-2 before cell 3 throws. Once
    // the cell is fixed, a resume takes those three from the journal
    // and computes only cells 3 and 4.
    campaign::CampaignOptions options;
    options.journalPath = freshPath("runcells_fixed.journal");
    setThreadCount(1);
    EXPECT_THROW(campaign::runCells(
                     5, 2, keyOf,
                     [](std::size_t i) -> std::vector<double> {
                         if (i == 3) {
                             throw std::invalid_argument("bad input");
                         }
                         return payload(i);
                     },
                     options),
                 std::runtime_error);

    options.resume = true;
    std::vector<std::size_t> computed;
    campaign::CampaignReport report;
    const auto results = campaign::runCells(
        5, 2, keyOf,
        [&computed](std::size_t i) {
            computed.push_back(i);
            return payload(i);
        },
        options, &report);
    setThreadCount(0);
    EXPECT_EQ(report.fromJournal, 3u);
    EXPECT_EQ(report.executed, 2u);
    EXPECT_EQ(computed, (std::vector<std::size_t>{3, 4}));
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], payload(i)) << "cell " << i;
    }
}

/** A counter's total so far in this process (0 before first use). */
std::uint64_t
counterValue(const std::string &name)
{
    for (const obs::MetricSnapshot &snap : obs::metrics().snapshot()) {
        if (snap.name == name) {
            return static_cast<std::uint64_t>(snap.value);
        }
    }
    return 0;
}

TEST_F(CampaignRunCellsTest, StoppedRunCountsItsFinishedCells)
{
    // A run stopped by a failing cell or by the kill hook still reports
    // and counts the cells it finished, for the metrics a failed
    // command writes.
    const std::uint64_t cells = counterValue("campaign.cells");
    const std::uint64_t executed = counterValue("campaign.cells_executed");
    campaign::CampaignOptions options;
    campaign::CampaignReport failed;
    campaign::CampaignReport killed;
    setThreadCount(1);
    EXPECT_THROW(campaign::runCells(
                     5, 2, keyOf,
                     [](std::size_t i) -> std::vector<double> {
                         if (i == 3) {
                             throw std::invalid_argument("bad input");
                         }
                         return payload(i);
                     },
                     options, &failed),
                 std::runtime_error);
    options.faultSpec = "task-kill:1@2";
    EXPECT_THROW(campaign::runCells(
                     5, 2, keyOf,
                     [](std::size_t i) { return payload(i); }, options,
                     &killed),
                 campaign::TaskKilled);
    setThreadCount(0);
    EXPECT_EQ(failed.cells, 5u);
    EXPECT_EQ(failed.executed, 3u);
    EXPECT_EQ(killed.cells, 5u);
    EXPECT_EQ(killed.executed, 2u);
    EXPECT_EQ(counterValue("campaign.cells") - cells, 10u);
    EXPECT_EQ(counterValue("campaign.cells_executed") - executed, 5u);
}

// ---------------------------------------------------------------------
// Group-commit journal + batched cells.

TEST(CampaignJournalTest, SyncMakesEarlierAppendsDurable)
{
    const std::string path = freshPath("journal_sync.journal");
    campaign::Journal journal(path, false);
    for (std::uint64_t k = 0; k < 200; ++k) {
        journal.append(k, {static_cast<double>(k) * 0.125, -1.5});
    }
    journal.sync();
    // The journal is still open: sync() alone must have made every
    // earlier append visible to a reader (or a post-crash load).
    const auto loaded = campaign::Journal::load(path);
    ASSERT_EQ(loaded.size(), 200u);
    for (std::uint64_t k = 0; k < 200; ++k) {
        ASSERT_TRUE(loaded.count(k)) << "record " << k << " missing";
        EXPECT_TRUE(sameBits(loaded.at(k)[0],
                             static_cast<double>(k) * 0.125));
    }
}

TEST(CampaignJournalTest, BurstBeyondTheQueueCapacityLosesNoRecord)
{
    // Several times the 1024-slot completion ring in one burst: a
    // producer that finds the ring full must wait for the committer,
    // never drop or reorder a record.
    const std::string path = freshPath("journal_burst.journal");
    constexpr std::uint64_t kRecords = 5000;
    {
        campaign::Journal journal(path, false);
        for (std::uint64_t k = 0; k < kRecords; ++k) {
            journal.append(k, {static_cast<double>(k)});
        }
        // The second write of key 0 comes after every first write, so
        // with FIFO commit it is the one load() keeps.
        journal.append(0, {-1.0});
    }
    const auto loaded = campaign::Journal::load(path);
    ASSERT_EQ(loaded.size(), kRecords);
    EXPECT_EQ(loaded.at(0).front(), -1.0);
    for (std::uint64_t k = 1; k < kRecords; ++k) {
        ASSERT_TRUE(loaded.count(k)) << "record " << k << " missing";
        EXPECT_EQ(loaded.at(k).front(), static_cast<double>(k));
    }
}

TEST(CampaignJournalTest, ConcurrentAppendersAllCommit)
{
    // Pool lanes append from many threads at once; every record of
    // every lane must be durable after one sync().
    const std::string path = freshPath("journal_concurrent.journal");
    constexpr unsigned kLanes = 4;
    constexpr std::uint64_t kPerLane = 800;
    campaign::Journal journal(path, false);
    std::vector<std::thread> lanes;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        lanes.emplace_back([&journal, lane] {
            for (std::uint64_t i = 0; i < kPerLane; ++i) {
                const std::uint64_t key = lane * kPerLane + i;
                journal.append(key, {static_cast<double>(key) * 0.5});
            }
        });
    }
    for (std::thread &t : lanes) {
        t.join();
    }
    journal.sync();
    const auto loaded = campaign::Journal::load(path);
    ASSERT_EQ(loaded.size(), kLanes * kPerLane);
    for (std::uint64_t key = 0; key < kLanes * kPerLane; ++key) {
        ASSERT_TRUE(loaded.count(key)) << "record " << key << " missing";
        EXPECT_TRUE(sameBits(loaded.at(key).front(),
                             static_cast<double>(key) * 0.5));
    }
}

TEST_F(CampaignRunCellsTest, BatchedCellsKillThenResumeIsByteIdentical)
{
    // 640 cells on 4 lanes: chunks of about 20 cells, so the kill
    // lands inside a chunk with batch-mates queued behind it.
    constexpr std::size_t kCells = 640;
    const auto baseline = campaign::runCells(
        kCells, 2, keyOf, payload, campaign::CampaignOptions{});

    campaign::CampaignOptions options;
    options.journalPath = freshPath("runcells_batched_kill.journal");
    options.faultSpec = "task-kill:1@211";
    setThreadCount(4);
    EXPECT_THROW(
        campaign::runCells(kCells, 2, keyOf, slowPayload, options),
        campaign::TaskKilled);

    // Cells that completed before the kill — including ones queued in
    // the committer at unwind time — must be durable in the journal.
    options.faultSpec.clear();
    options.resume = true;
    campaign::CampaignReport report;
    const auto resumed = campaign::runCells(
        kCells, 2, keyOf, slowPayload, options, &report);
    setThreadCount(0);
    EXPECT_GE(report.fromJournal, 211u);
    EXPECT_EQ(report.fromJournal + report.executed, kCells);
    ASSERT_EQ(resumed.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        for (std::size_t j = 0; j < baseline[i].size(); ++j) {
            EXPECT_TRUE(sameBits(resumed[i][j], baseline[i][j]))
                << "cell " << i << " value " << j
                << " differs after batched resume";
        }
    }
}

TEST_F(CampaignRunCellsTest, BatchedCellsFailWithTheFailingCellsIndex)
{
    // 320 cells on 4 lanes run in chunks of about 10. A throw inside a
    // chunk names its own cell, and the journal holds only finished
    // cells, each under its own key with its own payload.
    constexpr std::size_t kCells = 320;
    constexpr std::size_t kBad = 200;
    campaign::CampaignOptions options;
    options.journalPath = freshPath("runcells_batched_fail.journal");
    campaign::CampaignReport report;
    std::string message;
    setThreadCount(4);
    try {
        campaign::runCells(
            kCells, 2, keyOf,
            [](std::size_t i) {
                if (i == kBad) {
                    throw std::domain_error("payload diverged");
                }
                return slowPayload(i);
            },
            options, &report);
        ADD_FAILURE() << "a throwing cell must fail the run";
    } catch (const std::runtime_error &error) {
        message = error.what();
    }
    setThreadCount(0);
    EXPECT_NE(message.find("campaign cell 200 (key "), std::string::npos)
        << message;
    EXPECT_NE(message.find("payload diverged"), std::string::npos)
        << message;

    const auto journaled = campaign::Journal::load(options.journalPath);
    EXPECT_EQ(journaled.count(keyOf(kBad)), 0u);
    EXPECT_EQ(journaled.size(), report.executed);
    EXPECT_LT(report.executed, kCells);
    for (std::size_t i = 0; i < kCells; ++i) {
        const auto it = journaled.find(keyOf(i));
        if (it != journaled.end()) {
            EXPECT_EQ(it->second, payload(i)) << "cell " << i;
        }
    }
}

TEST_F(CampaignRunCellsTest, SweepGridKillThenResumeIsByteIdentical)
{
    const std::vector<Scheme> schemes = {
        Scheme::Base, Scheme::Dragon, Scheme::SoftwareFlush,
        Scheme::NoCache,
    };
    const std::vector<double> values = linspace(0.05, 0.5, 7);
    const WorkloadParams base = middleParams();

    const auto baseline =
        sweepPowerGrid(ParamId::Shd, false, values, base, 16, schemes,
                       campaign::CampaignOptions{});

    campaign::CampaignOptions options;
    options.journalPath = freshPath("sweep_kill.journal");
    options.faultSpec = "task-kill:1@3";
    EXPECT_THROW(sweepPowerGrid(ParamId::Shd, false, values, base, 16,
                                schemes, options),
                 campaign::TaskKilled);

    options.faultSpec.clear();
    options.resume = true;
    campaign::CampaignReport report;
    const auto resumed = sweepPowerGrid(ParamId::Shd, false, values,
                                        base, 16, schemes, options,
                                        &report);
    EXPECT_GT(report.fromJournal, 0u);
    ASSERT_EQ(resumed.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_TRUE(sameBits(resumed[i].value, baseline[i].value));
        ASSERT_EQ(resumed[i].power.size(), baseline[i].power.size());
        for (std::size_t s = 0; s < baseline[i].power.size(); ++s) {
            EXPECT_TRUE(
                sameBits(resumed[i].power[s], baseline[i].power[s]))
                << "row " << i << " scheme " << s;
        }
    }
}

TEST_F(CampaignRunCellsTest, SensitivityResumeMatchesBaseline)
{
    SensitivityConfig config;
    config.processors = 8;

    const auto baseline = sensitivityTable(config);

    campaign::CampaignOptions options;
    options.journalPath = freshPath("sensitivity_kill.journal");
    options.faultSpec = "task-kill:1@10";
    EXPECT_THROW(sensitivityTable(config, options), campaign::TaskKilled);

    options.faultSpec.clear();
    options.resume = true;
    campaign::CampaignReport report;
    const auto resumed = sensitivityTable(config, options, &report);
    EXPECT_GT(report.fromJournal, 0u);
    ASSERT_EQ(resumed.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(resumed[i].param, baseline[i].param);
        EXPECT_EQ(resumed[i].scheme, baseline[i].scheme);
        EXPECT_TRUE(
            sameBits(resumed[i].timeLow, baseline[i].timeLow));
        EXPECT_TRUE(
            sameBits(resumed[i].timeHigh, baseline[i].timeHigh));
        EXPECT_TRUE(sameBits(resumed[i].percentChange,
                             baseline[i].percentChange));
    }
}

} // namespace
} // namespace swcc
