/**
 * @file
 * Resumable campaign engine.
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
 *  - fail-fast cells — every cell is a pure function of its key, so a
 *    cell that throws would throw again: runCells() stops at the first
 *    failure and rethrows it, naming the cell's index and key. Cells
 *    that finished before it are already in the journal, so once the
 *    input is fixed `--resume` continues from them;
 *  - accounting — cells run and cells taken from the journal land in
 *    the obs metrics registry (`campaign.*`) and in the
 *    CampaignReport, and the journal load/run phases appear as spans
 *    in the Chrome trace.
 *
 * Cell results are flat vectors of doubles; each driver (sweep,
 * sensitivity, validation) encodes its result struct to and from that
 * form. Doubles round-trip the journal by bit pattern, which is what
 * makes resumed CSVs byte-identical.
 */

#ifndef SWCC_CORE_CAMPAIGN_CAMPAIGN_HH
#define SWCC_CORE_CAMPAIGN_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace swcc::campaign
{

/** How a campaign runs: journaling, resumption, and the kill hook. */
struct CampaignOptions
{
    /** Journal file; empty disables journaling (and resume). */
    std::string journalPath;
    /** Load the journal first and recompute only missing cells. */
    bool resume = false;
    /**
     * Kill hook for interrupted-run tests: `task-kill:COUNT[@SKIP]`
     * throws TaskKilled at COUNT cell starts after the first SKIP,
     * counted over one runCells() call. Empty disables it.
     */
    std::string faultSpec;
};

/**
 * The kill hook's stand-in for `kill -9`: the campaign stops, and its
 * finished cells stay journaled for `--resume`.
 */
struct TaskKilled : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** What one runCells() call did. */
struct CampaignReport
{
    std::size_t cells = 0;       ///< Total cells in the campaign.
    std::size_t fromJournal = 0; ///< Satisfied by the loaded journal.
    std::size_t executed = 0;    ///< Evaluated this run.

    /** One-line human summary ("12 cells (4 from journal, ...)"). */
    std::string summary() const;

    /** Accumulates @p other (campaigns spanning several runCells). */
    void merge(const CampaignReport &other);
};

/**
 * Campaign options sourced from the environment, for bench harnesses:
 * SWCC_JOURNAL_DIR (journal at <dir>/<tag>.journal) and SWCC_RESUME
 * (1/true/yes/on). With SWCC_JOURNAL_DIR unset the returned options
 * disable journaling (the benches' default).
 */
CampaignOptions envCampaignOptions(const std::string &tag);

/**
 * Evaluates cells 0..n-1 across the pool (see file comment).
 *
 * A journal record holding a non-finite value counts as missing and
 * its cell is recomputed: no cell computes one, and older builds wrote
 * failed cells to the journal as NaN rows.
 *
 * @param n       Number of cells.
 * @param width   Doubles per cell result.
 * @param keyOf   Cell identity hash (CellKey) — must depend only on
 *                what the cell computes.
 * @param eval    Evaluates one cell.
 * @param options Journal / resume / kill-hook configuration.
 * @param report  Filled with this run's accounting when non-null.
 * @return One width-sized value vector per cell, in index order.
 *
 * @throws std::runtime_error "campaign cell I (key K): <what>" when
 *         cell I throws, after journaling every cell that completed.
 * @throws TaskKilled when the kill hook fires, likewise.
 * @throws std::invalid_argument when options.faultSpec is not
 *         `task-kill:COUNT[@SKIP]`, before any cell runs.
 */
std::vector<std::vector<double>>
runCells(std::size_t n, std::size_t width,
         const std::function<std::uint64_t(std::size_t)> &keyOf,
         const std::function<std::vector<double>(std::size_t)> &eval,
         const CampaignOptions &options,
         CampaignReport *report = nullptr);

} // namespace swcc::campaign

#endif // SWCC_CORE_CAMPAIGN_CAMPAIGN_HH
