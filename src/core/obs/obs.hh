/**
 * @file
 * Umbrella header and run-level configuration for observability.
 *
 * The obs subsystem has three pillars (each usable on its own):
 *
 *  - metrics.hh — counters and gauges, exported to JSON, CSV or
 *    Prometheus text via `--metrics-out`; histogram.hh — the
 *    log-linear distribution type whose snapshots render beside them;
 *  - trace.hh — span tracing emitted as Chrome trace-event JSON via
 *    `--trace-json`, loadable in Perfetto;
 *  - log.hh / progress.hh — leveled stderr logging (`--log-level`)
 *    and throttled progress lines (`--progress`).
 *
 * This header adds the glue every entry point (swcc CLI, bench
 * harnesses) shares: a CliConfig describing the four flags, helpers
 * to source it from the environment and argv, and finalize() which
 * writes the requested artifacts once at process end.
 */

#ifndef SWCC_CORE_OBS_OBS_HH
#define SWCC_CORE_OBS_OBS_HH

#include <functional>
#include <string>

#include "core/obs/histogram.hh"
#include "core/obs/json.hh"
#include "core/obs/log.hh"
#include "core/obs/metrics.hh"
#include "core/obs/progress.hh"
#include "core/obs/trace.hh"

namespace swcc::obs
{

/** The four observability flags shared by every entry point. */
struct CliConfig
{
    std::string metricsOut; ///< `--metrics-out`; empty = no export.
    std::string traceJson;  ///< `--trace-json`; empty = no trace.
    bool progress = false;  ///< `--progress`.
    std::string logLevel;   ///< `--log-level`; empty = keep default.
};

/**
 * A CliConfig sourced from the environment: SWCC_METRICS_OUT,
 * SWCC_TRACE_JSON, SWCC_PROGRESS (1/true/yes/on), SWCC_LOG_LEVEL.
 * Explicit command-line flags should overwrite these fields.
 */
CliConfig envConfig();

/**
 * Applies @p config: sets the log level, enables the tracer and
 * progress reporting, and remembers the output paths for finalize().
 *
 * @throws std::invalid_argument on an unknown log level.
 */
void applyCli(const CliConfig &config);

/**
 * Extracts the observability flags from a main()-style argument
 * vector (both `--flag=value` and `--flag value` forms), leaving all
 * other arguments in place, then applies env config overlaid with the
 * extracted flags. For bench harnesses whose remaining argument
 * parsing is ad hoc.
 *
 * @throws std::invalid_argument on a flag with a missing value or an
 *         unknown log level.
 */
void consumeArgs(int &argc, char **argv);

/**
 * Registers @p hook to run at the start of finalize(), before
 * artifacts are written. Used by subsystems (e.g. the thread pool) to
 * publish their final gauge values without obs depending on them.
 */
void addFinalizeHook(std::function<void()> hook);

/**
 * Writes the artifacts requested by applyCli()/consumeArgs(): the
 * metrics dump and the Chrome trace. Runs finalize hooks first.
 * Idempotent — a second call writes nothing until applyCli() runs
 * again.
 *
 * @throws std::runtime_error if an artifact cannot be written.
 */
void finalize();

} // namespace swcc::obs

#endif // SWCC_CORE_OBS_OBS_HH
