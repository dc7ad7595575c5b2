#include "core/sweep.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/campaign/cell_hash.hh"
#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"

namespace swcc
{

double
Series::maxY() const
{
    // Seed from the first finite point — an all-negative series (e.g.
    // a delta/error series) must not report a phantom maximum of 0,
    // and a NaN point must not poison the whole extremum.
    // Empty (or all-NaN) mirrors finalY's convention of returning 0.
    bool seeded = false;
    double best = 0.0;
    for (const SeriesPoint &p : points) {
        if (!std::isfinite(p.y)) {
            continue;
        }
        best = seeded ? std::max(best, p.y) : p.y;
        seeded = true;
    }
    return best;
}

double
Series::finalY() const
{
    return points.empty() ? 0.0 : points.back().y;
}

std::vector<double>
linspace(double lo, double hi, std::size_t count)
{
    if (count == 0) {
        return {};
    }
    if (count == 1) {
        return {lo};
    }
    std::vector<double> values;
    values.reserve(count);
    const double step = (hi - lo) / static_cast<double>(count - 1);
    for (std::size_t i = 0; i < count; ++i) {
        values.push_back(lo + step * static_cast<double>(i));
    }
    values.back() = hi;
    return values;
}

std::vector<double>
logspace(double lo, double hi, std::size_t count)
{
    if (lo <= 0.0 || hi <= 0.0) {
        throw std::invalid_argument("logspace needs positive bounds");
    }
    std::vector<double> values = linspace(std::log(lo), std::log(hi), count);
    for (double &v : values) {
        v = std::exp(v);
    }
    return values;
}

Series
busPowerSeries(Scheme scheme, const WorkloadParams &params,
               unsigned max_processors)
{
    Series series;
    series.label = std::string(schemeName(scheme));
    for (const BusSolution &sol :
         evaluateBusCurve(scheme, params, max_processors)) {
        series.points.push_back(
            {static_cast<double>(sol.processors), sol.processingPower});
    }
    return series;
}

Series
idealPowerSeries(unsigned max_processors)
{
    Series series;
    series.label = "Ideal";
    for (unsigned n = 1; n <= max_processors; ++n) {
        series.points.push_back(
            {static_cast<double>(n), static_cast<double>(n)});
    }
    return series;
}

Series
aplPowerSeries(Scheme scheme, WorkloadParams params,
               const std::vector<double> &apl_values, unsigned processors)
{
    Series series;
    series.label = std::string(schemeName(scheme));
    series.points = parallelMap(apl_values.size(), [&](std::size_t i) {
        WorkloadParams cell = params;
        cell.apl = apl_values[i];
        const BusSolution sol = evaluateBus(scheme, cell, processors);
        return SeriesPoint{apl_values[i], sol.processingPower};
    });
    return series;
}

Series
networkPowerSeries(Scheme scheme, const WorkloadParams &params,
                   unsigned max_stages)
{
    Series series;
    series.label = std::string(schemeName(scheme)) + " (network)";
    for (const NetworkSolution &sol :
         evaluateNetworkCurve(scheme, params, max_stages)) {
        series.points.push_back(
            {static_cast<double>(sol.processors), sol.processingPower});
    }
    return series;
}

std::vector<SweepRow>
sweepPowerGrid(ParamId param, bool sweep_apl,
               const std::vector<double> &values,
               const WorkloadParams &base, unsigned processors,
               const std::vector<Scheme> &schemes,
               const campaign::CampaignOptions &options,
               campaign::CampaignReport *report)
{
    auto row_params = [&](std::size_t i) {
        WorkloadParams params = base;
        if (sweep_apl) {
            params.apl = values[i];
        } else {
            setParam(params, param, values[i]);
        }
        return params;
    };

    // The cell identity is the fully substituted workload point plus
    // the machine size and scheme list — everything the row computes,
    // nothing about when or where it ran.
    const auto results = campaign::runCells(
        values.size(), schemes.size(),
        [&](std::size_t i) {
            campaign::CellKey key("sweep");
            key.add(row_params(i))
                .add(static_cast<std::uint64_t>(processors));
            for (Scheme scheme : schemes) {
                key.add(schemeName(scheme));
            }
            return key.hash();
        },
        [&](std::size_t i) {
            const WorkloadParams params = row_params(i);
            std::vector<double> row;
            row.reserve(schemes.size());
            for (Scheme scheme : schemes) {
                row.push_back(
                    evaluateBus(scheme, params, processors)
                        .processingPower);
            }
            return row;
        },
        options, report);

    std::vector<SweepRow> rows(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        rows[i].value = values[i];
        rows[i].power = results[i];
    }
    return rows;
}

Series
networkUtilizationSeries(unsigned stages, double message_words,
                         const std::vector<double> &rates)
{
    Series series;
    series.label =
        "msg=" + std::to_string(static_cast<int>(message_words)) + "w";
    const double size = message_words + 2.0 * static_cast<double>(stages);
    std::vector<double> valid;
    valid.reserve(rates.size());
    for (double rate : rates) {
        if (rate > 0.0) {
            valid.push_back(rate);
        }
    }
    series.points = parallelMap(valid.size(), [&](std::size_t i) {
        return SeriesPoint{
            valid[i], solveComputeFraction(valid[i], size, stages)};
    });
    return series;
}

} // namespace swcc
