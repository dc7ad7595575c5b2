/**
 * @file
 * Throttled, TTY-aware progress reporting on stderr.
 *
 * A ProgressReporter tracks completion of a known number of work
 * items and periodically prints one status line with rate and ETA:
 *
 *     validate: 128/832 (15.4%) 412.0/s eta 1.7s
 *
 * When stderr is a terminal the line is redrawn in place with '\r';
 * otherwise full lines are printed at most every few seconds so logs
 * stay readable. Printing is throttled (default 100 ms) and the
 * per-item cost when reporting is disabled is a single branch on a
 * bool captured at construction.
 *
 * Reporting is off unless enabled with setProgressEnabled() (wired to
 * `--progress`). tick() is safe to call from worker threads.
 */

#ifndef SWCC_CORE_OBS_PROGRESS_HH
#define SWCC_CORE_OBS_PROGRESS_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace swcc::obs
{

/** Whether new ProgressReporters are active (default off). */
bool progressEnabled();

/** Enables/disables progress reporting for reporters created later. */
void setProgressEnabled(bool on);

/** Reporting sink override for tests; null restores stderr. */
void setProgressSink(std::ostream *sink);

/** See file comment. */
class ProgressReporter
{
  public:
    /**
     * Starts a reporter for @p total items labelled @p label. Captures
     * progressEnabled() at construction; an inactive reporter's
     * tick() is a single branch.
     */
    ProgressReporter(std::string label, std::uint64_t total);

    /** Prints the final line (see finish()). */
    ~ProgressReporter();

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    /** Records @p n completed items; may redraw the status line. */
    void
    tick(std::uint64_t n = 1)
    {
        if (!active_) {
            return;
        }
        done_.fetch_add(n, std::memory_order_relaxed);
        maybePrint(false);
    }

    /** Prints the 100% line and deactivates (idempotent). */
    void finish();

  private:
    void maybePrint(bool force);

    std::string label_;
    std::uint64_t total_;
    bool active_;
    bool tty_;
    double startUs_;
    std::atomic<std::uint64_t> done_{0};
    /** Last print time in us since start; throttles redraws. */
    std::atomic<std::int64_t> lastPrintUs_{-1'000'000'000};
    std::mutex printMutex_;
};

} // namespace swcc::obs

#endif // SWCC_CORE_OBS_PROGRESS_HH
