/**
 * @file
 * ServiceKernel: the stateless, thread-safe query facade shared by the
 * CLI, the benches, and the swccd daemon.
 *
 * A query names an analytical operating point — (domain, scheme,
 * workload parameters, machine size) — and the kernel answers it with
 * the corresponding BusSolution or NetworkSolution, exactly as the
 * single-query evaluateBus()/evaluateNetwork() entry points would.
 *
 * The batch path is the daemon's amortization lever: evaluateBatch()
 * groups the in-flight queries that share (domain, scheme, workload)
 * and answers each group whose members ask for different machine
 * sizes with ONE evaluateBusCurve()/evaluateNetworkCurve() call of
 * the group's largest size — a bus curve computes every size in one
 * O(N) prefix-MVA pass, a network curve solves each stage count once.
 * Curve element i is bitwise identical to the single-point solve by
 * the solver-layer contract, so batching never changes a result;
 * duplicate queries within a group are answered from the same solve.
 * A group of one size takes one point solve. No answer outlives its
 * batch: a query repeated in a later batch is solved again.
 *
 * The kernel holds no mutable state (limits only), so one instance
 * serves any number of threads concurrently.
 */

#ifndef SWCC_SERVICE_SERVICE_KERNEL_HH
#define SWCC_SERVICE_SERVICE_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/bus_model.hh"
#include "core/network_model.hh"
#include "core/types.hh"
#include "core/workload.hh"

namespace swcc::service
{

/** Which contention model a query addresses. */
enum class QueryDomain : std::uint8_t
{
    Bus = 0,
    Network = 1,
};

/** Name of a domain ("bus"/"network"). */
std::string_view domainName(QueryDomain domain);

/** One analytical what-if query. */
struct Query
{
    QueryDomain domain = QueryDomain::Bus;
    Scheme scheme = Scheme::Base;
    /** Processors (bus) or switch stages (network). */
    unsigned size = 1;
    WorkloadParams params;
};

/** Answer to one Query; exactly one of bus/network is meaningful. */
struct QueryResult
{
    bool ok = false;
    /** Human-readable reason when !ok. */
    std::string error;
    QueryDomain domain = QueryDomain::Bus;
    BusSolution bus;
    NetworkSolution network;
};

class ServiceKernel
{
  public:
    /**
     * Admission bounds on machine size: a query past these is rejected
     * up front rather than allowed to monopolize a worker (a curve
     * solve is O(size), so unvalidated sizes would be a cheap DoS).
     */
    struct Limits
    {
        unsigned maxBusProcessors = 1024;
        unsigned maxNetworkStages = 24;
    };

    ServiceKernel();
    explicit ServiceKernel(Limits limits);

    const Limits &limits() const { return limits_; }

    /**
     * Validates @p query against the parameter domains and the size
     * limits. Returns an empty string when admissible, else the
     * reason (non-finite or out-of-range parameter, zero/oversized
     * machine, scheme/domain mismatch).
     */
    std::string validate(const Query &query) const;

    /**
     * Answers one query. Invalid or unsolvable queries return
     * ok=false with the reason; no exception escapes.
     */
    QueryResult evaluate(const Query &query) const;

    /**
     * Answers @p count queries, coalescing same-workload groups into
     * batched curve solves (see file comment). results[i] corresponds
     * to queries[i] and is bitwise identical to evaluate(queries[i]).
     */
    void evaluateBatch(const Query *queries, std::size_t count,
                       QueryResult *results) const;

  private:
    Limits limits_;
};

} // namespace swcc::service

#endif // SWCC_SERVICE_SERVICE_KERNEL_HH
