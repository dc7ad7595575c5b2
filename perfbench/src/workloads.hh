/**
 * @file
 * The four workloads. Each runs set-up (ending in announceReady()),
 * returns early when opts.setupOnly is set, otherwise runs its timed
 * phase (untraced, or alternating untraced and traced passes when
 * opts.trace is set), checks every output and fills @p result.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>

#include "harness.hh"

namespace perfbench
{

void runValidate(const Options &opts, Result &result);
void runNetval(const Options &opts, Result &result);
void runReplay(const Options &opts, Result &result);
void runService(const Options &opts, Result &result);

/** Counter and gauge values of this process's obs registry. */
std::map<std::string, double> registryValues();

/** b - a for one registry name (0 when absent from both). */
double registryDelta(const std::map<std::string, double> &a,
                     const std::map<std::string, double> &b,
                     const std::string &name);

/**
 * Copies the per-layer metrics a workload measured into @p result;
 * run.py reports the per_layer metrics of layers the workload does
 * not run as 0.
 */
void emitLayerMetrics(const std::map<std::string, double> &layers,
                      Result &result);

/** Prints each span name's total and self time per pass as info. */
void emitSpanTotals(double passes, Result &result);

/**
 * A batch workload's end-to-end metrics from its per-operation medians:
 * run_s is their sum (the wall time of a typical pass), qps the
 * operations of a pass over run_s, and p50_us / p99_us percentiles over
 * the operations; rss_mb as measured.
 */
void emitBatchMetrics(const OpTimes &latency, double rss_mb,
                      Result &result);

/**
 * 100 * (traced - untraced) / untraced over the medians of the pass
 * times of the two kinds of passes. The first untraced pass is left
 * out: it pays first-use costs (page faults, allocator growth) that
 * no traced pass, which always follows it, pays.
 */
double overheadPct(const std::vector<double> &untraced,
                   const std::vector<double> &traced);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
