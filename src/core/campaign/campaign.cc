#include "core/campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "core/campaign/journal.hh"
#include "core/obs/log.hh"
#include "core/obs/metrics.hh"
#include "core/obs/trace.hh"
#include "core/parallel.hh"

namespace swcc::campaign
{

namespace
{

std::string
envString(const char *name)
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::string(value) : std::string();
}

/** The kill hook's window: cell starts [skip, skip + count) throw. */
struct KillWindow
{
    std::uint64_t count = 0;
    std::uint64_t skip = 0;
};

std::uint64_t
parseCount(std::string_view text, const std::string &spec)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end) {
        throw std::invalid_argument("fault spec '" + spec +
                                    "': bad count '" +
                                    std::string(text) + "'");
    }
    return value;
}

/** Parses `task-kill:COUNT[@SKIP]`; an empty spec kills nothing. */
KillWindow
parseKillSpec(const std::string &spec)
{
    KillWindow window;
    if (spec.empty()) {
        return window;
    }
    constexpr std::string_view kPrefix = "task-kill:";
    if (!spec.starts_with(kPrefix)) {
        throw std::invalid_argument(
            "fault spec '" + spec +
            "' is not task-kill:COUNT[@SKIP], the only fault site");
    }
    std::string_view tail = std::string_view(spec).substr(kPrefix.size());
    const auto at = tail.find('@');
    if (at != std::string_view::npos) {
        window.skip = parseCount(tail.substr(at + 1), spec);
        tail = tail.substr(0, at);
    }
    window.count = parseCount(tail, spec);
    return window;
}

std::string
keyText(std::uint64_t key)
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(key));
    return text;
}

} // namespace

std::string
CampaignReport::summary() const
{
    return std::to_string(cells) + " cells (" +
        std::to_string(fromJournal) + " from journal, " +
        std::to_string(executed) + " executed)";
}

void
CampaignReport::merge(const CampaignReport &other)
{
    cells += other.cells;
    fromJournal += other.fromJournal;
    executed += other.executed;
}

CampaignOptions
envCampaignOptions(const std::string &tag)
{
    CampaignOptions options;
    const std::string dir = envString("SWCC_JOURNAL_DIR");
    if (!dir.empty()) {
        options.journalPath = dir + "/" + tag + ".journal";
        std::string resume = envString("SWCC_RESUME");
        for (char &c : resume) {
            c = static_cast<char>(std::tolower(c));
        }
        options.resume = resume == "1" || resume == "true" ||
            resume == "yes" || resume == "on";
    }
    return options;
}

std::vector<std::vector<double>>
runCells(std::size_t n, std::size_t width,
         const std::function<std::uint64_t(std::size_t)> &keyOf,
         const std::function<std::vector<double>(std::size_t)> &eval,
         const CampaignOptions &options, CampaignReport *report)
{
    const KillWindow kill = parseKillSpec(options.faultSpec);

    CampaignReport local;
    local.cells = n;

    std::vector<std::vector<double>> results(n);
    std::vector<std::size_t> pending;
    pending.reserve(n);

    // Resolve what the journal already knows.
    if (!options.journalPath.empty() && options.resume) {
        obs::ScopedPhase phase("campaign: load journal");
        const auto known = Journal::load(options.journalPath);
        for (std::size_t i = 0; i < n; ++i) {
            const auto it = known.find(keyOf(i));
            if (it != known.end() && it->second.size() == width &&
                std::all_of(it->second.begin(), it->second.end(),
                            [](double v) { return std::isfinite(v); })) {
                results[i] = it->second;
                ++local.fromJournal;
            } else {
                pending.push_back(i);
            }
        }
        if (local.fromJournal > 0) {
            SWCC_LOG_INFO("campaign: resumed " +
                          std::to_string(local.fromJournal) + "/" +
                          std::to_string(n) + " cells from " +
                          options.journalPath);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            pending.push_back(i);
        }
    }

    // On a throw, the journal's destructor (unwinding with this frame)
    // flushes every completed cell, so `--resume` recovers them.
    std::unique_ptr<Journal> journal;
    if (!options.journalPath.empty()) {
        journal = std::make_unique<Journal>(options.journalPath,
                                            options.resume);
    }

    // Fills the report and the metrics; a stopped campaign reports the
    // cells it finished, for the post-mortem metrics the CLI writes.
    const auto account = [&](std::size_t executed) {
        local.executed = executed;
        obs::MetricsRegistry &registry = obs::metrics();
        registry.counter("campaign.cells").add(local.cells);
        registry.counter("campaign.cells_from_journal")
            .add(local.fromJournal);
        registry.counter("campaign.cells_executed").add(executed);
        if (report != nullptr) {
            *report = local;
        }
    };

    std::atomic<std::uint64_t> starts{0};
    std::atomic<std::size_t> finished{0};
    try {
        obs::ScopedPhase phase("campaign: run cells");
        parallelFor(pending.size(), [&](std::size_t p) {
            const std::size_t idx = pending[p];
            // The kill lands at a cell start, between cells, as a
            // real SIGKILL most often would.
            if (kill.count > 0) {
                const std::uint64_t start =
                    starts.fetch_add(1, std::memory_order_relaxed);
                if (start >= kill.skip && start - kill.skip < kill.count) {
                    throw TaskKilled("injected task kill at cell start " +
                                     std::to_string(start));
                }
            }
            try {
                results[idx] = eval(idx);
            } catch (const std::exception &error) {
                throw std::runtime_error(
                    "campaign cell " + std::to_string(idx) + " (key " +
                    keyText(keyOf(idx)) + "): " + error.what());
            }
            if (journal) {
                journal->append(keyOf(idx), results[idx]);
            }
            finished.fetch_add(1, std::memory_order_relaxed);
        });
    } catch (...) {
        account(finished.load(std::memory_order_relaxed));
        throw;
    }

    // Group-commit barrier: returning from runCells() means every
    // record is durable, preserving the old per-cell-fsync guarantee
    // at the run level.
    if (journal) {
        journal->sync();
    }

    account(pending.size());
    return results;
}

} // namespace swcc::campaign
