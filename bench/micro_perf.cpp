// Micro-benchmarks (google-benchmark) for the numeric substrates: matmul,
// LU solve, coupling-layer forward/inverse, full-flow sampling, MNA AC
// solve, and one g() evaluation of each expensive test-case model. These
// bound the wall-clock cost of a NOFIS run (MEN forward passes + g calls).

#include <benchmark/benchmark.h>

#include "autodiff/ops.hpp"
#include "circuit/ac.hpp"
#include "circuit/charge_pump.hpp"
#include "circuit/opamp.hpp"
#include "estimators/problem.hpp"
#include "flow/coupling_stack.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/lu.hpp"
#include "parallel/thread_pool.hpp"
#include "photonic/ybranch.hpp"
#include "rng/normal.hpp"
#include "testcases/registry.hpp"

namespace {

using namespace nofis;

/// Kernel-variant benches take the flavour as range arg: 0 = scalar
/// (serial reference table), 1 = simd (vectorized table). Both run the
/// same fused value path and produce bitwise-identical results; the ratio
/// is the vectorization speedup.
void apply_kernel_arg(std::int64_t arg) {
    linalg::kernels::set_choice(arg == 0 ? linalg::kernels::Choice::kScalar
                                         : linalg::kernels::Choice::kSimd);
}

void BM_MatMul(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    apply_kernel_arg(state.range(1));
    // Pinned to one lane so the kernel numbers stay comparable across
    // runs; BM_MatMulThreaded measures the parallel scaling.
    parallel::set_num_threads(1);
    rng::Engine eng(1);
    const auto a = rng::standard_normal_matrix(eng, n, n);
    const auto b = rng::standard_normal_matrix(eng, n, n);
    for (auto _ : state) benchmark::DoNotOptimize(a.matmul(b));
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1});

// One full training epoch of the final NOFIS block, shaped like the
// NofisEstimator loop under freeze_previous: frozen blocks transport the
// batch on the pure-value path, the trained block builds the autodiff
// graph, and the loss backward-sweeps it. The frozen transport runs the
// fused tape-free kernels under either flavour; the ratio is what the
// vectorized table buys one train epoch.
void BM_TrainEpoch(benchmark::State& state) {
    apply_kernel_arg(state.range(0));
    parallel::set_num_threads(1);
    rng::Engine eng(11);
    flow::StackConfig cfg;
    cfg.dim = 16;
    cfg.num_blocks = 5;
    cfg.layers_per_block = 8;
    flow::CouplingStack stack(cfg, eng);
    rng::Engine batch_eng(42);
    const auto z0 = rng::standard_normal_matrix(batch_eng, 256, cfg.dim);
    std::vector<double> ld(z0.rows());
    for (auto _ : state) {
        std::fill(ld.begin(), ld.end(), 0.0);
        const auto z_in = stack.transport_range(z0, 0, 4, ld);
        auto fwd = stack.forward_range(autodiff::Var(z_in), 4, 5);
        auto loss = autodiff::neg(autodiff::mean(fwd.log_det));
        loss.backward();
        benchmark::DoNotOptimize(loss.value());
        for (auto& p : stack.params()) p.zero_grad();
    }
    state.SetItemsProcessed(state.iterations() * z0.rows());
}
BENCHMARK(BM_TrainEpoch)->Arg(0)->Arg(1);

// The serving hot path in isolation: batched transport through the whole
// stack on the value path (what sample/log_prob/IS reweighting run).
void BM_TransportValues(benchmark::State& state) {
    apply_kernel_arg(state.range(0));
    parallel::set_num_threads(1);
    rng::Engine eng(12);
    flow::StackConfig cfg;
    cfg.dim = 16;
    cfg.num_blocks = 5;
    cfg.layers_per_block = 8;
    flow::CouplingStack stack(cfg, eng);
    rng::Engine batch_eng(43);
    const auto z0 = rng::standard_normal_matrix(batch_eng, 256, cfg.dim);
    std::vector<double> ld(z0.rows());
    for (auto _ : state) {
        std::fill(ld.begin(), ld.end(), 0.0);
        benchmark::DoNotOptimize(stack.transport_range(z0, 0, 5, ld));
    }
    state.SetItemsProcessed(state.iterations() * z0.rows());
}
BENCHMARK(BM_TransportValues)->Arg(0)->Arg(1);

void BM_MatMulThreaded(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto threads = static_cast<std::size_t>(state.range(1));
    parallel::set_num_threads(threads);
    rng::Engine eng(1);
    const auto a = rng::standard_normal_matrix(eng, n, n);
    const auto b = rng::standard_normal_matrix(eng, n, n);
    for (auto _ : state) benchmark::DoNotOptimize(a.matmul(b));
    state.SetItemsProcessed(state.iterations() * n * n * n);
    parallel::set_num_threads(1);
}
BENCHMARK(BM_MatMulThreaded)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

// Batched g over a block of samples — the training-loop hot path. The
// per-row results are bitwise identical for every thread count; only the
// wall-clock changes.
void BM_BatchGEval(benchmark::State& state) {
    const auto threads = static_cast<std::size_t>(state.range(0));
    parallel::set_num_threads(threads);
    const auto tc = testcases::make_case("Opamp");
    estimators::CountedProblem counted(*tc);
    rng::Engine eng(9);
    const auto x = rng::standard_normal_matrix(eng, 256, tc->dim());
    for (auto _ : state) benchmark::DoNotOptimize(counted.g_rows(x));
    state.SetItemsProcessed(state.iterations() * x.rows());
    parallel::set_num_threads(1);
}
BENCHMARK(BM_BatchGEval)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_LuSolve(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Engine eng(2);
    const auto a = rng::standard_normal_matrix(eng, n, n) +
                   linalg::Matrix::identity(n) * (2.0 * std::sqrt(n));
    std::vector<double> b(n);
    rng::fill_standard_normal(eng, b);
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::LuDecomposition(a).solve(b));
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(32)->Arg(128);

void BM_CouplingForward(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    rng::Engine eng(3);
    flow::StackConfig cfg;
    cfg.dim = dim;
    cfg.num_blocks = 1;
    cfg.layers_per_block = 8;
    flow::CouplingStack stack(cfg, eng);
    const auto z0 = rng::standard_normal_matrix(eng, 100, dim);
    std::vector<double> ld(100);
    for (auto _ : state) {
        std::fill(ld.begin(), ld.end(), 0.0);
        benchmark::DoNotOptimize(stack.transport_range(z0, 0, 1, ld));
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CouplingForward)->Arg(2)->Arg(16)->Arg(62);

void BM_FlowSampleWithLogProb(benchmark::State& state) {
    rng::Engine eng(4);
    flow::StackConfig cfg;
    cfg.dim = 16;
    cfg.num_blocks = 5;
    cfg.layers_per_block = 8;
    flow::CouplingStack stack(cfg, eng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stack.sample(eng, 100, 5));
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FlowSampleWithLogProb);

void BM_FlowInverseLogProb(benchmark::State& state) {
    rng::Engine eng(5);
    flow::StackConfig cfg;
    cfg.dim = 16;
    cfg.num_blocks = 5;
    cfg.layers_per_block = 8;
    flow::CouplingStack stack(cfg, eng);
    const auto s = stack.sample(eng, 100, 5);
    for (auto _ : state) benchmark::DoNotOptimize(stack.log_prob(s.z, 5));
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FlowInverseLogProb);

void BM_OpampGainEval(benchmark::State& state) {
    circuit::OpampModel amp;
    rng::Engine eng(6);
    std::vector<double> x(5);
    for (auto _ : state) {
        rng::fill_standard_normal(eng, x);
        benchmark::DoNotOptimize(amp.gain_db(x));
    }
}
BENCHMARK(BM_OpampGainEval);

void BM_ChargePumpEval(benchmark::State& state) {
    circuit::ChargePumpModel cp;
    rng::Engine eng(7);
    std::vector<double> x(16);
    for (auto _ : state) {
        rng::fill_standard_normal(eng, x);
        benchmark::DoNotOptimize(cp.mismatch_amps(x));
    }
}
BENCHMARK(BM_ChargePumpEval);

void BM_YBranchEval(benchmark::State& state) {
    photonic::YBranchModel yb;
    rng::Engine eng(8);
    std::vector<double> x(26);
    for (auto _ : state) {
        rng::fill_standard_normal(eng, x);
        benchmark::DoNotOptimize(yb.transmission(x));
    }
}
BENCHMARK(BM_YBranchEval);

}  // namespace

BENCHMARK_MAIN();
