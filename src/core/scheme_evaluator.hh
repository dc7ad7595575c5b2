/**
 * @file
 * High-level evaluation API: scheme + workload + machine -> performance.
 *
 * This is the library's main entry point; it wires together the system
 * model (cost tables), workload model (operation frequencies), and the
 * appropriate contention model. Points and curves alike are solved on
 * every call: nothing here stores an answer.
 */

#ifndef SWCC_CORE_SCHEME_EVALUATOR_HH
#define SWCC_CORE_SCHEME_EVALUATOR_HH

#include <vector>

#include "core/bus_model.hh"
#include "core/cost_model.hh"
#include "core/network_model.hh"
#include "core/types.hh"
#include "core/workload.hh"

namespace swcc
{

/**
 * Evaluates a scheme's performance on a bus-based multiprocessor.
 *
 * @param scheme The coherence scheme.
 * @param params The workload.
 * @param processors Number of processors on the bus.
 * @param costs Bus system model (defaults to paper Table 1).
 */
BusSolution evaluateBus(Scheme scheme, const WorkloadParams &params,
                        unsigned processors);

/** @copydoc evaluateBus */
BusSolution evaluateBus(Scheme scheme, const WorkloadParams &params,
                        unsigned processors, const BusCostModel &costs);

/**
 * Evaluates a scheme's performance on a circuit-switched multistage
 * network with 2^stages processors.
 *
 * Only Base, No-Cache, and Software-Flush are meaningful here; Dragon
 * requires a snooping bus and is rejected.
 *
 * @throws std::invalid_argument for Scheme::Dragon.
 */
NetworkSolution evaluateNetwork(Scheme scheme,
                                const WorkloadParams &params,
                                unsigned stages);

/**
 * Evaluates a scheme at every processor count 1..max_processors in one
 * pass of the MVA recursion (see solveBusCurve()), on the Table 1 bus.
 * Element i is bitwise identical to evaluateBus(scheme, params, i + 1).
 *
 * @throws std::invalid_argument for max_processors == 0.
 */
std::vector<BusSolution>
evaluateBusCurve(Scheme scheme, const WorkloadParams &params,
                 unsigned max_processors);

/**
 * Evaluates a scheme on networks of 2, 4, ..., 2^max_stages processors,
 * one solveNetwork() call per stage count. Element i is bitwise
 * identical to evaluateNetwork(scheme, params, i + 1).
 *
 * @throws std::invalid_argument for schemes that need a snooping bus,
 *         and for max_stages == 0.
 */
std::vector<NetworkSolution>
evaluateNetworkCurve(Scheme scheme, const WorkloadParams &params,
                     unsigned max_stages);

} // namespace swcc

#endif // SWCC_CORE_SCHEME_EVALUATOR_HH
