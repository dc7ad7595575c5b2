/**
 * @file
 * google-benchmark timings for the analytical solvers. The paper's
 * argument for an analytical model over simulation is evaluation
 * speed; these benchmarks quantify it (full model evaluations run in
 * microseconds, versus seconds for a trace-driven simulation). The
 * curve and memo benchmarks measure one MVA pass per bus power curve,
 * one fixed-point solve per network stage count, and memoized
 * re-evaluation of repeated operating points. Thread scaling of the
 * campaign engine lives in bench_perf_parallel.
 */

#include <benchmark/benchmark.h>

#include "core/swcc.hh"

namespace
{

using namespace swcc;

void
BM_OperationFrequencies(benchmark::State &state)
{
    const WorkloadParams params = middleParams();
    const Scheme scheme = static_cast<Scheme>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(operationFrequencies(scheme, params));
    }
}
BENCHMARK(BM_OperationFrequencies)->DenseRange(0, 3);

void
BM_BusSolve(benchmark::State &state)
{
    const WorkloadParams params = middleParams();
    const BusCostModel costs;
    const PerInstructionCost cost = perInstructionCost(
        operationFrequencies(Scheme::SoftwareFlush, params), costs);
    const unsigned processors = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(solveBus(cost, processors));
    }
}
BENCHMARK(BM_BusSolve)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_BusSolveCurvePerPoint(benchmark::State &state)
{
    // The old per-point curve: N independent MVA recursions, O(N^2)
    // recursion steps for an N-processor power curve.
    const WorkloadParams params = middleParams();
    const BusCostModel costs;
    const PerInstructionCost cost = perInstructionCost(
        operationFrequencies(Scheme::SoftwareFlush, params), costs);
    const unsigned max = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        for (unsigned n = 1; n <= max; ++n) {
            benchmark::DoNotOptimize(solveBus(cost, n));
        }
    }
}
BENCHMARK(BM_BusSolveCurvePerPoint)->Arg(32)->Arg(256);

void
BM_BusSolveCurve(benchmark::State &state)
{
    // The batched curve kernel: one O(N) recursion for the same curve.
    const WorkloadParams params = middleParams();
    const BusCostModel costs;
    const PerInstructionCost cost = perInstructionCost(
        operationFrequencies(Scheme::SoftwareFlush, params), costs);
    const unsigned max = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(solveBusCurve(cost, max));
    }
}
BENCHMARK(BM_BusSolveCurve)->Arg(32)->Arg(256);

void
BM_NetworkFixedPoint(benchmark::State &state)
{
    const unsigned stages = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            solveComputeFraction(0.03, 12.0, stages));
    }
}
BENCHMARK(BM_NetworkFixedPoint)->Arg(2)->Arg(8)->Arg(12);

void
BM_NetworkCurve(benchmark::State &state)
{
    // A whole machine-size curve: one fixed-point solve per stage
    // count, memo off so every iteration really solves.
    const WorkloadParams params = middleParams();
    const unsigned max_stages = static_cast<unsigned>(state.range(0));
    setSolverCacheEnabled(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluateNetworkCurve(
            Scheme::SoftwareFlush, params, max_stages));
    }
    setSolverCacheEnabled(true);
}
BENCHMARK(BM_NetworkCurve)->Arg(8)->Arg(12);

void
BM_FullBusEvaluation(benchmark::State &state)
{
    const WorkloadParams params = middleParams();
    setSolverCacheEnabled(false);
    for (auto _ : state) {
        for (Scheme scheme : kAllSchemes) {
            benchmark::DoNotOptimize(evaluateBus(scheme, params, 16));
        }
    }
    setSolverCacheEnabled(true);
}
BENCHMARK(BM_FullBusEvaluation);

void
BM_FullBusEvaluationMemoWarm(benchmark::State &state)
{
    // The same evaluations served from the solver memo: what a
    // campaign pays when it revisits an operating point.
    const WorkloadParams params = middleParams();
    setSolverCacheEnabled(true);
    clearSolverCache();
    for (Scheme scheme : kAllSchemes) {
        benchmark::DoNotOptimize(evaluateBus(scheme, params, 16));
    }
    for (auto _ : state) {
        for (Scheme scheme : kAllSchemes) {
            benchmark::DoNotOptimize(evaluateBus(scheme, params, 16));
        }
    }
}
BENCHMARK(BM_FullBusEvaluationMemoWarm);

void
BM_FullNetworkEvaluation(benchmark::State &state)
{
    const WorkloadParams params = middleParams();
    setSolverCacheEnabled(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            evaluateNetwork(Scheme::SoftwareFlush, params, 8));
    }
    setSolverCacheEnabled(true);
}
BENCHMARK(BM_FullNetworkEvaluation);

void
BM_SensitivityTable(benchmark::State &state)
{
    SensitivityConfig config;
    config.averageOverGrid = true;
    setThreadCount(static_cast<unsigned>(state.range(0)));
    setSolverCacheEnabled(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sensitivityTable(config));
    }
    setSolverCacheEnabled(true);
    setThreadCount(0);
}
BENCHMARK(BM_SensitivityTable)->Arg(1)->Arg(0);

} // namespace

BENCHMARK_MAIN();
