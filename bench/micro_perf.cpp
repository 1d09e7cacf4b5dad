// Micro-benchmarks (google-benchmark) for the numeric substrates: matmul,
// the tanh, fused dense-layer and affine-coupling kernels, LU solve,
// coupling-layer forward/inverse, full-flow sampling, MNA AC solve, one g()
// evaluation of each expensive test-case model, and one Y-branch
// finite-difference gradient. These bound the wall-clock cost of a NOFIS
// run (MEN forward passes + g calls). The text codec benches time what
// saving, loading and serving a trained flow spend on numbers.

#include <benchmark/benchmark.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "autodiff/ops.hpp"
#include "circuit/ac.hpp"
#include "circuit/charge_pump.hpp"
#include "circuit/opamp.hpp"
#include "estimators/problem.hpp"
#include "flow/coupling_stack.hpp"
#include "flow/serialize.hpp"
#include "flow/stack_info.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/lu.hpp"
#include "parallel/thread_pool.hpp"
#include "photonic/ybranch.hpp"
#include "rng/normal.hpp"
#include "testcases/registry.hpp"
#include "util/json.hpp"

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

// Matrix::matmul (simd kernels, one lane) at the conditioner products of
// training: Args = {m, k, n}. 1x50x32 and 32x50x32 are weight gradients
// (xᵀ·g over a 50-row batch), 50x1x32 is Leaf's one-column input layer,
// 50x32x2 its output layer and 13x20x32 a YBranch-wide input. Items are
// multiply-adds.
void BM_MatMulShape(benchmark::State& state) {
    linalg::kernels::set_choice(linalg::kernels::Choice::kSimd);
    parallel::set_num_threads(1);
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    rng::Engine eng(10);
    const auto a = rng::standard_normal_matrix(eng, m, k);
    const auto b = rng::standard_normal_matrix(eng, k, n);
    for (auto _ : state) benchmark::DoNotOptimize(a.matmul(b));
    state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulShape)
    ->Args({1, 50, 32})
    ->Args({50, 1, 32})
    ->Args({50, 32, 2})
    ->Args({32, 50, 32})
    ->Args({13, 20, 32});

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

// tanh over 64K values (simd kernels) with Arg = the percent of values on
// the exp branch (|x| ≥ 0.625). Each value picks its branch independently,
// so four-lane vectors mix the branches the way flow pre-activations do.
void BM_EwTanh(benchmark::State& state) {
    linalg::kernels::set_choice(linalg::kernels::Choice::kSimd);
    const double big_frac = static_cast<double>(state.range(0)) / 100.0;
    const std::size_t n = std::size_t{1} << 16;
    rng::Engine eng(5);
    std::vector<double> a(n), out(n);
    for (double& v : a) {
        const double mag = eng.uniform() < big_frac ? eng.uniform(0.625, 4.0)
                                                    : eng.uniform(0.0, 0.625);
        v = eng.uniform() < 0.5 ? -mag : mag;
    }
    for (auto _ : state) {
        linalg::kernels::ew_tanh(a.data(), out.data(), n);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EwTanh)->Arg(0)->Arg(3)->Arg(11)->Arg(24)->Arg(50)->Arg(100);

// One fused dense layer (simd kernels, one lane) at 1000 rows, for the
// conditioner shapes of the Table-1 flows: Args = {in, out}. Layers of
// width 32 are hidden layers and apply tanh; the others are output layers
// with no activation, as in MLP::predict. Items are multiply-adds.
void BM_LinearAct(benchmark::State& state) {
    linalg::kernels::set_choice(linalg::kernels::Choice::kSimd);
    parallel::set_num_threads(1);
    const auto in = static_cast<std::size_t>(state.range(0));
    const auto out = static_cast<std::size_t>(state.range(1));
    const std::size_t rows = 1000;
    rng::Engine eng(9);
    const auto x = rng::standard_normal_matrix(eng, rows, in);
    auto w = rng::standard_normal_matrix(eng, in, out);
    w *= 1.0 / std::sqrt(static_cast<double>(in));
    const auto b = rng::standard_normal_matrix(eng, 1, out);
    linalg::Matrix y(rows, out);
    const auto act = out == 32 ? linalg::kernels::Act::kTanh
                               : linalg::kernels::Act::kNone;
    for (auto _ : state) {
        linalg::kernels::linear_act_rows(x.data(), w.data(), b.data(),
                                         y.data(), 0, rows, in, out, act);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rows * in * out);
}
BENCHMARK(BM_LinearAct)
    ->Args({1, 32})
    ->Args({13, 32})
    ->Args({32, 32})
    ->Args({32, 26})
    ->Args({32, 2})
    ->Args({3, 32})
    ->Args({32, 6})
    ->Args({32, 75});

// One affine coupling (simd kernels, one lane) over 1000 rows: Args =
// {nb, percent of s-values on tanh's exp branch, direction (0 forward,
// 1 inverse)}. nb is the number of transformed columns, half the flow's
// dimension: 1 for Leaf, 13 for YBranch, 20 for Powell.
void BM_Affine(benchmark::State& state) {
    linalg::kernels::set_choice(linalg::kernels::Choice::kSimd);
    const auto nb = static_cast<std::size_t>(state.range(0));
    const double big_frac = static_cast<double>(state.range(1)) / 100.0;
    const auto kernel = state.range(2) == 0 ? linalg::kernels::affine_fwd_rows
                                            : linalg::kernels::affine_inv_rows;
    const std::size_t rows = 1000;
    const std::size_t dim = 2 * nb;
    rng::Engine eng(6);
    const auto x = rng::standard_normal_matrix(eng, rows, dim);
    linalg::Matrix h(rows, 2 * nb);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t j = 0; j < nb; ++j) {
            const double mag = eng.uniform() < big_frac
                                   ? eng.uniform(0.625, 4.0)
                                   : eng.uniform(0.0, 0.625);
            h(r, j) = eng.uniform() < 0.5 ? -mag : mag;
            h(r, nb + j) = eng.uniform(-1.0, 1.0);
        }
    }
    std::vector<std::size_t> idx_b(nb);
    for (std::size_t j = 0; j < nb; ++j) idx_b[j] = nb + j;
    linalg::Matrix y = x;
    std::vector<double> ld(rows, 0.0);
    for (auto _ : state) {
        kernel(x.data(), h.data(), idx_b.data(), nb, 2.0, dim, y.data(),
               ld.data(), 0, rows);
        benchmark::DoNotOptimize(y.data());
        benchmark::DoNotOptimize(ld.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rows * nb);
}
BENCHMARK(BM_Affine)->ArgsProduct({{1, 3, 13, 20, 31}, {0, 20, 100}, {0, 1}});

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

// A YBranch-shaped proposal (26-D, 5 x 8 affine couplings, hidden 32-32:
// 94,480 parameters) with every parameter non-zero, as after training.
flow::CouplingStack ybranch_shaped_stack() {
    flow::StackConfig cfg;
    cfg.dim = 26;
    cfg.num_blocks = 5;
    cfg.layers_per_block = 8;
    rng::Engine eng(7);
    flow::CouplingStack stack(cfg, eng);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.1 * rng::standard_normal(eng);
    return stack;
}

// `.nofisflow` save and load through a string stream, so the disk stays
// out: items are parameters.
void BM_SaveStack(benchmark::State& state) {
    const auto stack = ybranch_shaped_stack();
    for (auto _ : state) {
        std::ostringstream os;
        flow::save_stack(stack, os);
        benchmark::DoNotOptimize(os.str().size());
    }
    state.SetItemsProcessed(state.iterations() *
                            flow::stack_info(stack).param_values);
}
BENCHMARK(BM_SaveStack)->Unit(benchmark::kMillisecond);

void BM_LoadStack(benchmark::State& state) {
    const auto stack = ybranch_shaped_stack();
    std::ostringstream os;
    flow::save_stack(stack, os);
    const std::string text = os.str();
    for (auto _ : state) {
        std::istringstream is(text);
        benchmark::DoNotOptimize(flow::load_stack(is));
    }
    state.SetItemsProcessed(state.iterations() *
                            flow::stack_info(stack).param_values);
}
BENCHMARK(BM_LoadStack)->Unit(benchmark::kMillisecond);

// The JSON document of a served 500-row `sample` on a 26-D model, shaped
// as the scheduler builds it: items are numbers.
util::Json sample_response_doc() {
    rng::Engine eng(8);
    util::Json z = util::Json::array();
    util::Json log_q = util::Json::array();
    for (int r = 0; r < 500; ++r) {
        util::Json row = util::Json::array();
        for (int c = 0; c < 26; ++c)
            row.push_back(util::Json::number(rng::standard_normal(eng)));
        z.push_back(std::move(row));
        log_q.push_back(util::Json::number(-30.0 * eng.uniform()));
    }
    util::Json result = util::Json::object();
    result.set("n", util::Json::number_u64(500));
    result.set("z", std::move(z));
    result.set("log_q", std::move(log_q));
    util::Json doc = util::Json::object();
    doc.set("id", util::Json::number_u64(1));
    doc.set("op", util::Json::string("sample"));
    doc.set("ok", util::Json::boolean(true));
    doc.set("result", std::move(result));
    return doc;
}

void BM_JsonEncode(benchmark::State& state) {
    const auto doc = sample_response_doc();
    for (auto _ : state) benchmark::DoNotOptimize(doc.encode());
    state.SetItemsProcessed(state.iterations() * 500 * 27);
}
BENCHMARK(BM_JsonEncode);

void BM_JsonDecode(benchmark::State& state) {
    const std::string line = sample_response_doc().encode();
    for (auto _ : state) benchmark::DoNotOptimize(util::Json::parse(line));
    state.SetItemsProcessed(state.iterations() * 500 * 27);
}
BENCHMARK(BM_JsonDecode);

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

// Seeded Y-branch inputs, drawn before timing: at a few µs per
// transmission the 26 normal draws would be a visible share of the loop.
std::vector<std::vector<double>> ybranch_inputs() {
    rng::Engine eng(8);
    std::vector<std::vector<double>> pool(64, std::vector<double>(26));
    for (auto& x : pool) rng::fill_standard_normal(eng, x);
    return pool;
}

void BM_YBranchEval(benchmark::State& state) {
    photonic::YBranchModel yb;
    const auto pool = ybranch_inputs();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(yb.transmission(pool[i]));
        i = (i + 1) % pool.size();
    }
}
BENCHMARK(BM_YBranchEval);

// One Y-branch gradient as NOFIS training takes it: the adjoint, one
// recorded transmission plus one reverse pass.
void BM_YBranchGrad(benchmark::State& state) {
    const auto tc = testcases::make_case("YBranch");
    const auto pool = ybranch_inputs();
    std::vector<double> grad(tc->dim());
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tc->g_grad(pool[i], grad));
        benchmark::DoNotOptimize(grad.data());
        benchmark::ClobberMemory();
        i = (i + 1) % pool.size();
    }
}
BENCHMARK(BM_YBranchGrad);

// The central-difference oracle the adjoint is tested against: 2·26 + 1
// transmissions through the base-class g_grad.
void BM_YBranchGradFd(benchmark::State& state) {
    const auto tc = testcases::make_case("YBranch");
    const auto pool = ybranch_inputs();
    std::vector<double> grad(tc->dim());
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tc->estimators::RareEventProblem::g_grad(pool[i], grad));
        benchmark::DoNotOptimize(grad.data());
        benchmark::ClobberMemory();
        i = (i + 1) % pool.size();
    }
}
BENCHMARK(BM_YBranchGradFd);

}  // namespace

BENCHMARK_MAIN();
