/**
 * @file
 * Multistage-network contention model (paper Section 6.2).
 *
 * Implements Patel's analysis of unbuffered circuit-switched banyan
 * (Omega/Delta) networks built from 2x2 crossbars with drop-and-retry
 * flow control, under the unit-request approximation: a processor that
 * would issue transactions of t cycles at a rate of m per cycle is
 * modelled as issuing independent unit-time requests at rate m*t.
 */

#ifndef SWCC_CORE_NETWORK_MODEL_HH
#define SWCC_CORE_NETWORK_MODEL_HH

#include <vector>

#include "core/per_instruction.hh"
#include "core/types.hh"

namespace swcc
{

/**
 * Solution of the network contention model for one operating point.
 */
struct NetworkSolution
{
    /** Number of switch stages n (2^n processors). */
    unsigned stages = 0;
    /** Number of processors, 2^stages. */
    unsigned processors = 0;
    /** c: CPU cycles per instruction without contention. */
    Cycles cpu = 0.0;
    /** t = b: network cycles per instruction (transaction size). */
    Cycles network = 0.0;
    /** m = 1/(c - b): transactions per CPU-busy cycle. */
    double transactionRate = 0.0;
    /** Offered unit-request rate m*t. */
    double unitRequestRate = 0.0;
    /**
     * Fixed-point U of Equations 4-6: the fraction of time a processor
     * computes rather than holding a request at its network port.
     */
    double computeFraction = 0.0;
    /** Request probability at a stage-0 input, m0 = 1 - U. */
    double inputLoad = 0.0;
    /** Probability an offered request is accepted end-to-end, mn/m0. */
    double acceptance = 0.0;
    /** Total cycles per instruction including retries, (c - b)/U. */
    Cycles cyclesPerInstruction = 0.0;
    /** Contention cycles per instruction, cyclesPerInstruction - c. */
    Cycles waiting = 0.0;
    /** Per-processor utilization, 1 / cyclesPerInstruction. */
    double processorUtilization = 0.0;
    /** processors * processorUtilization. */
    double processingPower = 0.0;
};

/**
 * One step of Patel's stage recursion for 2x2 crossbars: given request
 * probability @p m at each input of a stage, the probability of a
 * request at each of its outputs (Equation 5).
 */
double patelStageStep(double m);

/**
 * The k x k crossbar generalisation the paper points to ("the
 * analysis can be extended easily to ... crossbar switches with a
 * larger dimension"): m' = 1 - (1 - m/k)^k.
 *
 * @param m Input request probability.
 * @param k Switch dimension (>= 2).
 */
double patelStageStepK(double m, unsigned k);

/**
 * Compute-fraction fixed point for a network of k x k crossbars with
 * @p stages stages (k^stages processors); k = 2 reduces to
 * solveComputeFraction().
 */
double solveComputeFractionK(double rate, double size, unsigned stages,
                             unsigned k);

/**
 * Smallest stage count of k x k switches covering @p processors,
 * i.e. ceil(log_k(processors)), minimum 1.
 */
unsigned stagesForProcessorsK(unsigned processors, unsigned k);

/**
 * Runs the stage recursion through @p stages stages: the probability of
 * a request arriving at a memory module, given input load @p m0.
 */
double patelNetworkOutput(double m0, unsigned stages);

/** Per-stage loads m_0 .. m_n for diagnostics and tests. */
std::vector<double> patelStageLoads(double m0, unsigned stages);

/**
 * Solves the fixed point of Equations 4-6 for a raw (rate, size) pair.
 *
 * Finds U in (0, 1] with U = P(1 - U) / (m*t) where P maps an input
 * load through the stage recursion. The right-hand side decreases in U
 * while the left increases, so the fixed point is unique; it is located
 * by bisection to ~1e-12.
 *
 * @param rate Transactions per CPU-busy cycle, m > 0.
 * @param size Network cycles per transaction, t > 0.
 * @param stages Number of switch stages >= 1.
 * @return The compute fraction U.
 */
double solveComputeFraction(double rate, double size, unsigned stages);

/**
 * Solves the network model for a workload's per-instruction cost.
 *
 * @param cost c and b computed against a NetworkCostModel of the same
 *             stage count.
 * @param stages Number of switch stages (2^stages processors).
 * @throws std::invalid_argument on non-positive stage count or
 *         inconsistent costs.
 */
NetworkSolution solveNetwork(const PerInstructionCost &cost,
                             unsigned stages);

/**
 * Smallest stage count whose processor count covers @p processors,
 * i.e. ceil(log2(processors)), minimum 1.
 */
unsigned stagesForProcessors(unsigned processors);

} // namespace swcc

#endif // SWCC_CORE_NETWORK_MODEL_HH
