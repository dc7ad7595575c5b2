/**
 * @file
 * Umbrella header for the Owicki-Agarwal software cache coherence
 * performance library.
 *
 * Quick start:
 * @code
 * #include "core/swcc.hh"
 *
 * swcc::WorkloadParams params = swcc::middleParams();
 * swcc::BusSolution sol =
 *     swcc::evaluateBus(swcc::Scheme::SoftwareFlush, params, 16);
 * std::cout << sol.processingPower << '\n';
 * @endcode
 */

#ifndef SWCC_CORE_SWCC_HH
#define SWCC_CORE_SWCC_HH

#include "core/breakdown.hh"
#include "core/bus_model.hh"
#include "core/cost_model.hh"
#include "core/frequency_model.hh"
#include "core/directory_model.hh"
#include "core/network_model.hh"
#include "core/packet_network_model.hh"
#include "core/operation.hh"
#include "core/parallel.hh"
#include "core/per_instruction.hh"
#include "core/report.hh"
#include "core/scheme_evaluator.hh"
#include "core/sensitivity.hh"
#include "core/solver_cache.hh"
#include "core/sweep.hh"
#include "core/types.hh"
#include "core/workload.hh"

#endif // SWCC_CORE_SWCC_HH
