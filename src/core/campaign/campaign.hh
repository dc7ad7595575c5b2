/**
 * @file
 * Resilient, resumable campaign engine.
 *
 * A campaign is an index-addressed set of deterministic cells (the
 * sweeps, sensitivity grids, and validation matrices that regenerate
 * the paper's results). runCells() evaluates them across the thread
 * pool with:
 *
 *  - journaling — each completed cell is durably appended to a
 *    checksummed journal (journal.hh) keyed by its identity hash
 *    (cell_hash.hh), so an interrupted run resumed with
 *    `--resume <journal>` recomputes only the missing cells and its
 *    final CSVs are byte-identical to an uninterrupted run;
 *  - retry / timeout / poisoning — per-cell failures (injected or
 *    real: solver non-convergence, I/O errors) are retried with
 *    exponential backoff and, when exhausted, degrade the cell to a
 *    journaled row of NaNs instead of sinking the campaign
 *    (TaskPolicy, parallel.hh);
 *  - accounting — cells / retries / poisonings / timeouts land in the
 *    obs metrics registry (`campaign.*`) and in the CampaignReport,
 *    and the journal load/run phases appear as spans in the Chrome
 *    trace.
 *
 * Cell results are flat vectors of doubles; each driver (sweep,
 * sensitivity, validation) encodes its result struct to and from that
 * form. Doubles round-trip the journal by bit pattern, which is what
 * makes resumed CSVs byte-identical.
 */

#ifndef SWCC_CORE_CAMPAIGN_CAMPAIGN_HH
#define SWCC_CORE_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/parallel.hh"

namespace swcc::campaign
{

/** How a campaign runs: journaling, resumption, and task policy. */
struct CampaignOptions
{
    /** Journal file; empty disables journaling (and resume). */
    std::string journalPath;
    /** Load the journal first and recompute only missing cells. */
    bool resume = false;
    /** Retry / timeout / poisoning policy for each cell. */
    TaskPolicy policy;
    /** Campaign seed; feeds probabilistic fault injection. */
    std::uint64_t seed = 1;
    /**
     * Fault spec installed before the run (see faults.hh); empty
     * leaves any SWCC_FAULT_INJECT environment config in place.
     */
    std::string faultSpec;
};

/** What one runCells() call did. */
struct CampaignReport
{
    std::size_t cells = 0;       ///< Total cells in the campaign.
    std::size_t fromJournal = 0; ///< Satisfied by the loaded journal.
    std::size_t executed = 0;    ///< Evaluated this run.
    std::uint64_t retries = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t timeouts = 0;

    /** One-line human summary ("12 cells (4 from journal, ...)"). */
    std::string summary() const;

    /** Accumulates @p other (campaigns spanning several runCells). */
    void merge(const CampaignReport &other);
};

/**
 * Campaign options sourced from the environment, for bench harnesses:
 * SWCC_JOURNAL_DIR (journal at <dir>/<tag>.journal), SWCC_RESUME
 * (1/true/yes/on), SWCC_TASK_RETRIES, SWCC_TASK_TIMEOUT_MS,
 * SWCC_BACKOFF_MS, SWCC_CAMPAIGN_SEED. With SWCC_JOURNAL_DIR unset
 * the returned options disable journaling (the benches' default).
 */
CampaignOptions envCampaignOptions(const std::string &tag);

/**
 * Evaluates cells 0..n-1 resiliently (see file comment).
 *
 * @param n       Number of cells.
 * @param width   Doubles per cell result; poisoned cells yield
 *                @p width NaNs.
 * @param keyOf   Cell identity hash (CellKey) — must depend only on
 *                what the cell computes.
 * @param eval    Evaluates one cell; may throw (retried per policy).
 * @param options Journal / resume / policy configuration.
 * @param report  Filled with this run's accounting when non-null.
 * @return One width-sized value vector per cell, in index order.
 *
 * @throws FatalTaskError (e.g. an injected task-kill) after journaling
 *         every cell that completed — the caller should surface
 *         "resume with --resume <journal>".
 */
std::vector<std::vector<double>>
runCells(std::size_t n, std::size_t width,
         const std::function<std::uint64_t(std::size_t)> &keyOf,
         const std::function<std::vector<double>(std::size_t)> &eval,
         const CampaignOptions &options,
         CampaignReport *report = nullptr);

} // namespace swcc::campaign

#endif // SWCC_CORE_CAMPAIGN_CAMPAIGN_HH
