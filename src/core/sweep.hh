/**
 * @file
 * Parameter sweep utilities producing the data series behind the
 * paper's figures.
 */

#ifndef SWCC_CORE_SWEEP_HH
#define SWCC_CORE_SWEEP_HH

#include <string>
#include <vector>

#include "core/campaign/campaign.hh"
#include "core/types.hh"
#include "core/workload.hh"

namespace swcc
{

/** One (x, y) sample of a figure series. */
struct SeriesPoint
{
    double x = 0.0;
    double y = 0.0;
};

/** A labelled data series (one curve of a figure). */
struct Series
{
    std::string label;
    std::vector<SeriesPoint> points;

    /** Largest y value in the series (0 if empty). */
    double maxY() const;
    /** y at the largest x (0 if empty). */
    double finalY() const;
};

/** @p count evenly spaced values from @p lo to @p hi inclusive. */
std::vector<double> linspace(double lo, double hi, std::size_t count);

/** @p count log-spaced values from @p lo to @p hi inclusive (lo > 0). */
std::vector<double> logspace(double lo, double hi, std::size_t count);

/**
 * Bus processing power vs number of processors (Figures 4-6 curves).
 */
Series busPowerSeries(Scheme scheme, const WorkloadParams &params,
                      unsigned max_processors);

/**
 * The dotted "theoretical upper bound" line of the paper's figures:
 * processing power n for n processors.
 */
Series idealPowerSeries(unsigned max_processors);

/**
 * Bus processing power vs apl at a fixed machine size (Figures 8-9).
 *
 * @param apl_values Values of apl to sweep (each >= 1).
 */
Series aplPowerSeries(Scheme scheme, WorkloadParams params,
                      const std::vector<double> &apl_values,
                      unsigned processors);

/**
 * Network processing power vs processors 2^1..2^max_stages (Figure 10).
 */
Series networkPowerSeries(Scheme scheme, const WorkloadParams &params,
                          unsigned max_stages);

/**
 * Network compute-fraction U vs transaction rate for a fixed message
 * size (one curve of Figure 11).
 *
 * @param message_words Message size in words; network time per message
 *        is message_words + 2 * stages.
 * @param rates Transactions per CPU-busy cycle to sweep.
 */
Series networkUtilizationSeries(unsigned stages, double message_words,
                                const std::vector<double> &rates);

/** One row of a campaign sweep grid: x plus one power per scheme. */
struct SweepRow
{
    double value = 0.0;
    /** Bus processing power, parallel to the schemes argument. */
    std::vector<double> power;
};

/**
 * The `swcc sweep` grid as a resumable campaign: one journaled cell
 * per swept value, each evaluating every scheme in @p schemes.
 *
 * @param param     Parameter to sweep (ignored when @p sweep_apl).
 * @param sweep_apl Sweep apl directly instead of a Table 2 parameter.
 * @param values    Swept parameter values, one cell per value.
 * @param base      Remaining workload parameters.
 * @param processors Bus system size.
 * @param schemes   Schemes evaluated per cell (row width).
 * @param options   Journal / resume configuration (campaign.hh).
 * @param report    Campaign accounting when non-null.
 * @throws std::invalid_argument for zero processors, before any cell
 *         runs or the journal opens.
 */
std::vector<SweepRow>
sweepPowerGrid(ParamId param, bool sweep_apl,
               const std::vector<double> &values,
               const WorkloadParams &base, unsigned processors,
               const std::vector<Scheme> &schemes,
               const campaign::CampaignOptions &options,
               campaign::CampaignReport *report = nullptr);

} // namespace swcc

#endif // SWCC_CORE_SWEEP_HH
