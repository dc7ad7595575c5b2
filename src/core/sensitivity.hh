/**
 * @file
 * Sensitivity analysis (paper Section 4, Table 8): per-parameter impact
 * on execution time.
 */

#ifndef SWCC_CORE_SENSITIVITY_HH
#define SWCC_CORE_SENSITIVITY_HH

#include <vector>

#include "core/campaign/campaign.hh"
#include "core/types.hh"
#include "core/workload.hh"

namespace swcc
{

/**
 * Sensitivity of one scheme to one parameter.
 */
struct SensitivityEntry
{
    Scheme scheme = Scheme::Base;
    ParamId param = ParamId::Ls;
    /** Execution time (cycles/instruction incl. contention) at low. */
    Cycles timeLow = 0.0;
    /** Execution time at the parameter's high value. */
    Cycles timeHigh = 0.0;
    /**
     * Percent change in execution time when the parameter moves from
     * its low to its high value with all others held at middle values
     * (the paper's Table 8 metric).
     */
    double percentChange = 0.0;
};

/**
 * Configuration of the sensitivity analysis.
 */
struct SensitivityConfig
{
    /**
     * Number of processors of the bus system on which execution time
     * is measured. Contention amplifies parameter effects, which is
     * the regime the paper's comparisons target.
     */
    unsigned processors = 16;
    /**
     * If true, average the low->high change over the 3^k grid of the
     * other varying parameters rather than pinning them at middle
     * values (the paper notes effects were "estimated at high, low and
     * middle values of miss rate"). Grid mode restricts the companion
     * grid to {msdat, shd, 1/apl} to stay tractable.
     */
    bool averageOverGrid = false;
};

/**
 * Sensitivity of @p scheme to @p param under @p config.
 */
SensitivityEntry parameterSensitivity(Scheme scheme, ParamId param,
                                      const SensitivityConfig &config);

/**
 * Full Table 8: every (scheme, parameter) pair. Entries are ordered by
 * parameter (Table 2 order) then scheme (Table 8 column order:
 * Software-Flush, No-Cache, Dragon, Base).
 */
std::vector<SensitivityEntry>
sensitivityTable(const SensitivityConfig &config);

/**
 * Table 8 as a resumable campaign: one journaled cell per
 * (parameter, scheme) pair. The parameterless overload delegates here
 * with journaling disabled.
 */
std::vector<SensitivityEntry>
sensitivityTable(const SensitivityConfig &config,
                 const campaign::CampaignOptions &options,
                 campaign::CampaignReport *report = nullptr);

/**
 * Parameters of @p table sorted by decreasing |percentChange| for one
 * scheme — the "which parameters matter" ranking of Section 4.
 */
std::vector<SensitivityEntry>
rankedSensitivities(const std::vector<SensitivityEntry> &table,
                    Scheme scheme);

} // namespace swcc

#endif // SWCC_CORE_SENSITIVITY_HH
