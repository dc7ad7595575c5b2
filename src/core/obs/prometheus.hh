/**
 * @file
 * Prometheus text-exposition rendering for metric snapshots.
 *
 * The renderer works on `MetricSnapshot` values, not on the live
 * registry, so the same code path serves both the process-wide
 * registry export (`--metrics-out foo.prom`) and the swccd scrape
 * endpoint, which mixes registry snapshots with manually sampled
 * daemon gauges and merged per-worker obs::Histogram snapshots
 * (histogram.hh). Everything here is plain string formatting.
 *
 * Naming follows the exposition-format rules: dots and any other
 * character outside [a-zA-Z0-9_:] map to '_', counters gain a
 * `_total` suffix, histograms expand to cumulative `_bucket{le=...}`
 * series plus `_sum`/`_count` with a mandatory `+Inf` bucket.
 */

#ifndef SWCC_CORE_OBS_PROMETHEUS_HH
#define SWCC_CORE_OBS_PROMETHEUS_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/metrics.hh"

namespace swcc::obs
{

/**
 * Sanitizes @p name for the exposition format: '.' and every other
 * character outside [a-zA-Z0-9_:] become '_'; a leading digit is
 * prefixed with '_'.
 */
std::string promMetricName(std::string_view name);

/** Escapes a label value: backslash, double quote, and newline. */
std::string promEscapeLabel(std::string_view value);

/**
 * The metric family name @p snap will be emitted under: the
 * sanitized name, plus "_total" for counters. Used to deduplicate
 * when manual samples and registry snapshots describe the same
 * metric.
 */
std::string promFamilyName(const MetricSnapshot &snap);

/** Appends one snapshot (TYPE line + samples) to @p out. */
void appendPrometheus(std::string &out, const MetricSnapshot &snap);

/** Renders a whole snapshot list in text-exposition format. */
std::string
renderPrometheus(const std::vector<MetricSnapshot> &snaps);

/** Writes the process registry in text-exposition format. */
void writeMetricsPrometheus(std::ostream &os);

} // namespace swcc::obs

#endif // SWCC_CORE_OBS_PROMETHEUS_HH
