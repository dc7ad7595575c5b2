#include "service/service_kernel.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <unordered_map>
#include <vector>

#include "core/obs/metrics.hh"
#include "core/obs/trace.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"

namespace swcc::service
{

namespace
{

/** Field names checked before params.validate() (finite-ness). */
const char *
paramFieldName(std::size_t index)
{
    switch (index) {
      case 0: return "ls";
      case 1: return "msdat";
      case 2: return "mains";
      case 3: return "md";
      case 4: return "shd";
      case 5: return "wr";
      case 6: return "apl";
      case 7: return "mdshd";
      case 8: return "oclean";
      case 9: return "opres";
      case 10: return "nshd";
    }
    return "?";
}

double
paramFieldValue(const WorkloadParams &params, std::size_t index)
{
    switch (index) {
      case 0: return params.ls;
      case 1: return params.msdat;
      case 2: return params.mains;
      case 3: return params.md;
      case 4: return params.shd;
      case 5: return params.wr;
      case 6: return params.apl;
      case 7: return params.mdshd;
      case 8: return params.oclean;
      case 9: return params.opres;
      case 10: return params.nshd;
    }
    return 0.0;
}

/** Canonical key of a query's coalescible part (domain+scheme+params). */
SolverCacheKey
groupKey(const Query &query)
{
    return MemoKey(MemoDomain::ServiceGroup)
        .add(std::uint64_t{static_cast<std::uint8_t>(query.domain)})
        .add(query.scheme)
        .add(query.params)
        .key();
}

obs::Counter &
queriesCounter()
{
    static obs::Counter &counter =
        obs::metrics().counter("service.kernel.queries");
    return counter;
}

obs::Counter &
groupsCounter()
{
    static obs::Counter &counter =
        obs::metrics().counter("service.kernel.groups");
    return counter;
}

obs::Counter &
coalescedCounter()
{
    static obs::Counter &counter =
        obs::metrics().counter("service.kernel.coalesced");
    return counter;
}

} // namespace

std::string_view
domainName(QueryDomain domain)
{
    return domain == QueryDomain::Bus ? "bus" : "network";
}

ServiceKernel::ServiceKernel() : ServiceKernel(Limits{}) {}

ServiceKernel::ServiceKernel(Limits limits) : limits_(limits) {}

std::string
ServiceKernel::validate(const Query &query) const
{
    if (query.domain != QueryDomain::Bus &&
        query.domain != QueryDomain::Network) {
        return "unknown query domain";
    }
    switch (query.scheme) {
      case Scheme::Base:
      case Scheme::NoCache:
      case Scheme::SoftwareFlush:
      case Scheme::Dragon:
      case Scheme::Mesi:
      case Scheme::Mesif:
      case Scheme::Moesi:
      case Scheme::Hybrid:
        break;
      default:
        return "unknown scheme";
    }
    for (std::size_t i = 0; i < kNumParams; ++i) {
        const double value = paramFieldValue(query.params, i);
        if (!std::isfinite(value)) {
            return std::string("workload parameter ") +
                paramFieldName(i) + " must be finite";
        }
    }
    try {
        query.params.validate();
    } catch (const std::exception &e) {
        return e.what();
    }
    if (query.size == 0) {
        return "machine size must be at least 1";
    }
    if (query.domain == QueryDomain::Bus) {
        if (query.size > limits_.maxBusProcessors) {
            return "bus processor count exceeds limit (" +
                std::to_string(limits_.maxBusProcessors) + ")";
        }
    } else {
        if (query.size > limits_.maxNetworkStages) {
            return "network stage count exceeds limit (" +
                std::to_string(limits_.maxNetworkStages) + ")";
        }
        if (!schemeWorksOnNetwork(query.scheme)) {
            return "snoopy schemes need a broadcast bus; they cannot "
                   "run on a multistage network";
        }
    }
    return {};
}

QueryResult
ServiceKernel::evaluate(const Query &query) const
{
    QueryResult result;
    result.domain = query.domain;
    result.error = validate(query);
    if (!result.error.empty()) {
        return result;
    }
    queriesCounter().add();
    try {
        if (query.domain == QueryDomain::Bus) {
            result.bus =
                evaluateBus(query.scheme, query.params, query.size);
        } else {
            result.network = evaluateNetwork(query.scheme, query.params,
                                             query.size);
        }
        result.ok = true;
    } catch (const std::exception &e) {
        result.error = e.what();
    }
    return result;
}

void
ServiceKernel::evaluateBatch(const Query *queries, std::size_t count,
                             QueryResult *results) const
{
    static const std::uint32_t span =
        obs::tracer().intern("service.batch");
    obs::ScopedSpan scoped(span);
    // Reject inadmissible queries and bucket the rest by their
    // coalescible identity (domain, scheme, workload).
    std::unordered_map<SolverCacheKey, std::vector<std::size_t>,
                       SolverCacheKeyHash>
        groups;
    groups.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        results[i] = QueryResult{};
        results[i].domain = queries[i].domain;
        results[i].error = validate(queries[i]);
        if (results[i].error.empty()) {
            groups[groupKey(queries[i])].push_back(i);
        }
    }

    for (const auto &[key, members] : groups) {
        (void)key;
        const Query &head = queries[members.front()];
        queriesCounter().add(members.size());
        groupsCounter().add();
        unsigned max_size = 0;
        unsigned min_size = ~0u;
        for (const std::size_t i : members) {
            max_size = std::max(max_size, queries[i].size);
            min_size = std::min(min_size, queries[i].size);
        }
        try {
            if (max_size == min_size) {
                // Nothing to coalesce: one point solve answers all
                // (duplicates share it).
                if (head.domain == QueryDomain::Bus) {
                    const BusSolution sol = evaluateBus(
                        head.scheme, head.params, head.size);
                    for (const std::size_t i : members) {
                        results[i].bus = sol;
                        results[i].ok = true;
                    }
                } else {
                    const NetworkSolution sol = evaluateNetwork(
                        head.scheme, head.params, head.size);
                    for (const std::size_t i : members) {
                        results[i].network = sol;
                        results[i].ok = true;
                    }
                }
                continue;
            }
            // Distinct sizes of one workload: one curve solve of the
            // largest size answers every member bitwise identically to
            // its point solve.
            if (head.domain == QueryDomain::Bus) {
                const std::vector<BusSolution> curve = evaluateBusCurve(
                    head.scheme, head.params, max_size);
                for (const std::size_t i : members) {
                    results[i].bus = curve[queries[i].size - 1];
                    results[i].ok = true;
                }
            } else {
                const std::vector<NetworkSolution> curve =
                    evaluateNetworkCurve(head.scheme, head.params,
                                         max_size);
                for (const std::size_t i : members) {
                    results[i].network = curve[queries[i].size - 1];
                    results[i].ok = true;
                }
            }
            coalescedCounter().add(members.size());
        } catch (const std::exception &e) {
            for (const std::size_t i : members) {
                results[i].ok = false;
                results[i].error = e.what();
            }
        }
    }
}

} // namespace swcc::service
