// Architecture ablation: RealNVP affine couplings (the paper's backbone)
// versus NICE additive couplings (volume preserving) versus monotone
// rational-quadratic spline couplings (neural spline flows), each with and
// without ActNorm, at the case's fixed Table-1 budget.
//
// Usage: ablation_coupling [--case Leaf] [--repeats 3] [--rqs-bins 8]
//        [--rqs-tail 5]
//
// Multi-modal failure regions (YBranch, DeepNet62) are where the spline's
// extra expressiveness should pay off; Leaf is the sanity baseline.

#include <cmath>

#include "bench_common.hpp"
#include "testcases/registry.hpp"

int main(int argc, char** argv) {
    using namespace nofis;
    using namespace nofis::bench;

    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);

    const auto repeats = size_flag(argc, argv, "--repeats", "3", 1);
    const std::string case_name = arg_value(argc, argv, "--case", "Leaf");
    const auto rqs_bins = size_flag(argc, argv, "--rqs-bins", "8");
    // Rare failure regions live at 4-6σ; the spline is the identity outside
    // [-B, B], so the default box is wider here than the NSF image-data
    // convention of 3.
    const auto rqs_tail = double_flag(argc, argv, "--rqs-tail", "5");

    const auto tc = testcases::make_case(case_name);
    const auto budget = tc->nofis_budget();

    struct Variant {
        const char* name;
        flow::CouplingKind kind;
        bool actnorm;
    };
    const Variant variants[] = {
        {"affine (RealNVP)", flow::CouplingKind::kAffine, false},
        {"affine + ActNorm", flow::CouplingKind::kAffine, true},
        {"additive (NICE)", flow::CouplingKind::kAdditive, false},
        {"additive + ActNorm", flow::CouplingKind::kAdditive, true},
        {"rqs (spline)", flow::CouplingKind::kRqs, false},
        {"rqs + ActNorm", flow::CouplingKind::kRqs, true},
    };

    std::printf("Coupling-architecture ablation on %s — %zu repeat(s), "
                "%zu-call budget\n", case_name.c_str(), repeats,
                budget.total_calls());
    std::printf("%-20s %-10s %-10s %-8s\n", "variant", "log-err", "ess",
                "hits");

    for (const auto& v : variants) {
        core::NofisConfig cfg = nofis_config_from_budget(budget);
        cfg.coupling = v.kind;
        cfg.use_actnorm = v.actnorm;
        cfg.rqs_bins = rqs_bins;
        cfg.rqs_tail = rqs_tail;
        core::NofisEstimator est(cfg,
                                 core::LevelSchedule::manual(budget.levels));
        double err = 0.0;
        double ess = 0.0;
        double hits = 0.0;
        for (std::size_t r = 0; r < repeats; ++r) {
            rng::Engine eng(4321 + 13 * r);
            const auto run = est.run(*tc, eng);
            err += estimators::log_error(run.estimate.p_hat,
                                         tc->golden_pr());
            ess += run.is_diag.effective_sample_size;
            hits += static_cast<double>(run.is_diag.hits);
        }
        const auto dr = static_cast<double>(repeats);
        std::printf("%-20s %-10.3f %-10.1f %-8.0f\n", v.name, err / dr,
                    ess / dr, hits / dr);
        std::fflush(stdout);
    }
    std::printf("\n(Findings: in this few-update training regime the "
                "volume-preserving NICE coupling is often MORE accurate "
                "than RealNVP on unimodal cases —\nwithout exp scalings it "
                "trains more stably. On the multi-modal photonic case "
                "(--case YBranch) the rqs spline's piecewise\nmonotone map "
                "beats the affine baseline at the same g-budget; the spline "
                "is identity outside [-tail, tail], so keep\n--rqs-tail "
                "beyond the case's failure sigma. See EXPERIMENTS.md "
                "§coupling-ablation for measured tables.)\n");
    return 0;
}
