#include "core/campaign/campaign.hh"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <memory>

#include "core/campaign/faults.hh"
#include "core/campaign/journal.hh"
#include "core/obs/log.hh"
#include "core/obs/metrics.hh"
#include "core/obs/trace.hh"

namespace swcc::campaign
{

namespace
{

/** Adds this run's campaign accounting to the obs registry. */
void
recordCampaignMetrics(const CampaignReport &report)
{
    obs::MetricsRegistry &registry = obs::metrics();
    registry.counter("campaign.cells").add(report.cells);
    registry.counter("campaign.cells_from_journal")
        .add(report.fromJournal);
    registry.counter("campaign.cells_executed").add(report.executed);
    registry.counter("campaign.retries").add(report.retries);
    registry.counter("campaign.poisoned").add(report.poisoned);
    registry.counter("campaign.timeouts").add(report.timeouts);
}

std::string
envString(const char *name)
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::string(value) : std::string();
}

std::uint64_t
envUnsigned(const char *name, std::uint64_t fallback)
{
    const std::string text = envString(name);
    if (text.empty()) {
        return fallback;
    }
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
        return fallback;
    }
    return parsed;
}

} // namespace

std::string
CampaignReport::summary() const
{
    std::string text = std::to_string(cells) + " cells (" +
        std::to_string(fromJournal) + " from journal, " +
        std::to_string(executed) + " executed";
    if (retries > 0) {
        text += ", " + std::to_string(retries) + " retries";
    }
    if (timeouts > 0) {
        text += ", " + std::to_string(timeouts) + " timeouts";
    }
    if (poisoned > 0) {
        text += ", " + std::to_string(poisoned) + " poisoned";
    }
    return text + ")";
}

void
CampaignReport::merge(const CampaignReport &other)
{
    cells += other.cells;
    fromJournal += other.fromJournal;
    executed += other.executed;
    retries += other.retries;
    poisoned += other.poisoned;
    timeouts += other.timeouts;
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
    options.policy.maxRetries = static_cast<unsigned>(
        envUnsigned("SWCC_TASK_RETRIES", options.policy.maxRetries));
    options.policy.timeoutMs =
        envUnsigned("SWCC_TASK_TIMEOUT_MS", options.policy.timeoutMs);
    options.policy.backoffBaseMs =
        envUnsigned("SWCC_BACKOFF_MS", options.policy.backoffBaseMs);
    options.seed = envUnsigned("SWCC_CAMPAIGN_SEED", options.seed);
    return options;
}

std::vector<std::vector<double>>
runCells(std::size_t n, std::size_t width,
         const std::function<std::uint64_t(std::size_t)> &keyOf,
         const std::function<std::vector<double>(std::size_t)> &eval,
         const CampaignOptions &options, CampaignReport *report)
{
    if (!options.faultSpec.empty()) {
        configureFaults(options.faultSpec, options.seed);
    }

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
            if (it != known.end() && it->second.size() == width) {
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

    std::unique_ptr<Journal> journal;
    if (!options.journalPath.empty()) {
        journal = std::make_unique<Journal>(options.journalPath,
                                            options.resume);
    }

    std::vector<TaskOutcome> outcomes;
    {
        obs::ScopedPhase phase("campaign: run cells");
        try {
            const ResilienceStats stats = parallelForResilient(
                pending.size(),
                [&](std::size_t p) {
                    const std::size_t idx = pending[p];
                    // The kill site sits at task start so an injected
                    // kill lands between cells, like a real SIGKILL
                    // would most often.
                    checkFault(FaultSite::TaskKill);
                    checkFault(FaultSite::TaskTimeout);
                    results[idx] = eval(idx);
                    if (journal) {
                        journal->append(keyOf(idx), results[idx]);
                    }
                },
                options.policy, &outcomes);
            local.retries = stats.retries;
            local.poisoned = stats.poisoned;
            local.timeouts = stats.timeouts;
        } catch (const FatalTaskError &) {
            // Completed cells are enqueued for group commit; the
            // journal's destructor (unwinding with this frame) flushes
            // them, so a `--resume` run recovers every finished cell.
            recordCampaignMetrics(local);
            if (report != nullptr) {
                *report = local;
            }
            throw;
        }
    }

    // Poisoned cells degrade to NaN rows — journaled too, so a
    // resumed run reproduces the same (NaN-guarded) artifacts.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t p = 0; p < pending.size(); ++p) {
        const std::size_t idx = pending[p];
        if (p < outcomes.size() &&
            outcomes[p] == TaskOutcome::Poisoned) {
            results[idx].assign(width, nan);
            if (journal) {
                journal->append(keyOf(idx), results[idx]);
            }
            SWCC_LOG_WARN("campaign: cell " + std::to_string(idx) +
                          " poisoned after retries; emitting NaNs");
        }
        ++local.executed;
    }

    // Group-commit barrier: returning from runCells() means every
    // record (results and NaN rows alike) is durable, preserving the
    // old per-cell-fsync guarantee at the run level.
    if (journal) {
        journal->sync();
    }

    recordCampaignMetrics(local);
    if (report != nullptr) {
        *report = local;
    }
    return results;
}

} // namespace swcc::campaign
