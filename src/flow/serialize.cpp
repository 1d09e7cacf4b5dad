#include "flow/serialize.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "util/atomic_file.hpp"
#include "util/ios_guard.hpp"

namespace nofis::flow {

namespace {
constexpr const char* kMagic = "nofisflow-v1";

// Sanity bounds on the header of a loaded file. A truncated or corrupt
// stream can otherwise hand the architecture constructor absurd sizes and
// trigger huge allocations before any read fails; every real flow in this
// repo is orders of magnitude below these caps.
constexpr std::size_t kMaxDim = 1u << 20;
constexpr std::size_t kMaxBlocks = 4096;
constexpr std::size_t kMaxLayersPerBlock = 4096;
constexpr std::size_t kMaxHiddenLayers = 256;
constexpr std::size_t kMaxHiddenWidth = 1u << 20;

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("flow serialisation: " + what);
}

void check_bound(const char* what, std::size_t value, std::size_t lo,
                 std::size_t hi) {
    if (value < lo || value > hi)
        fail(std::string("implausible ") + what + " " +
             std::to_string(value) + " in header (corrupt file?)");
}
}  // namespace

void save_stack(const CouplingStack& stack, std::ostream& os) {
    const StackConfig& cfg = stack.config();
    os << kMagic << '\n';
    os << cfg.dim << ' ' << cfg.num_blocks << ' ' << cfg.layers_per_block
       << ' ' << cfg.scale_cap << ' ' << coupling_kind_name(cfg.coupling)
       << ' ' << (cfg.use_actnorm ? 1 : 0);
    // The spline header fields ride only on the "rqs" tag, so affine and
    // additive files stay byte-identical to the pre-rqs format (and old
    // readers reject rqs files at the kind token with a clear message).
    if (cfg.coupling == CouplingKind::kRqs) {
        const util::IosStateGuard guard(os);
        os << ' ' << cfg.rqs_bins << ' ' << std::setprecision(17)
           << cfg.rqs_tail;
    }
    os << '\n';
    os << cfg.hidden.size();
    for (auto h : cfg.hidden) os << ' ' << h;
    os << '\n';

    const auto params = stack.params();
    os << params.size() << '\n';
    {
        // Full-precision doubles for the round-trip; the guard keeps the
        // caller's precision/flags from being clobbered past this call.
        const util::IosStateGuard guard(os);
        os << std::setprecision(17);
        for (const auto& p : params) {
            const auto& m = p.value();
            os << m.rows() << ' ' << m.cols();
            for (double v : m.flat()) os << ' ' << v;
            os << '\n';
        }
    }
    if (!os) fail("write error");
}

void save_stack(const CouplingStack& stack, const std::string& path) {
    // Atomic replace (temp + fsync + rename): an interrupted or faulted
    // save can never leave a half-written file where a good proposal was.
    util::AtomicFile file(path);
    save_stack(stack, file.stream());
    file.commit();
}

CouplingStack load_stack(std::istream& is) {
    std::string magic;
    is >> magic;
    if (magic != kMagic) fail("bad magic (expected " + std::string(kMagic) + ")");

    StackConfig cfg;
    std::string kind;
    int actnorm = 0;
    is >> cfg.dim >> cfg.num_blocks >> cfg.layers_per_block >>
        cfg.scale_cap >> kind >> actnorm;
    if (!is) fail("truncated header");
    const auto coupling = parse_coupling_kind(kind);
    if (!coupling) fail("unknown coupling kind '" + kind + "'");
    cfg.coupling = *coupling;
    cfg.use_actnorm = actnorm != 0;
    if (cfg.coupling == CouplingKind::kRqs) {
        is >> cfg.rqs_bins >> cfg.rqs_tail;
        if (!is) fail("truncated rqs header");
        check_bound("rqs bin count", cfg.rqs_bins, 1,
                    linalg::kernels::kMaxRqsBins);
        if (!std::isfinite(cfg.rqs_tail) || cfg.rqs_tail <= 0.0)
            fail("implausible rqs tail bound in header (corrupt file?)");
    }
    check_bound("dim", cfg.dim, 1, kMaxDim);
    check_bound("block count", cfg.num_blocks, 1, kMaxBlocks);
    check_bound("layers per block", cfg.layers_per_block, 1,
                kMaxLayersPerBlock);
    if (!std::isfinite(cfg.scale_cap) || cfg.scale_cap <= 0.0)
        fail("implausible scale cap in header (corrupt file?)");
    std::size_t hidden_count = 0;
    is >> hidden_count;
    if (!is) fail("truncated header");
    check_bound("hidden layer count", hidden_count, 0, kMaxHiddenLayers);
    cfg.hidden.resize(hidden_count);
    for (auto& h : cfg.hidden) {
        is >> h;
        if (is) check_bound("hidden width", h, 1, kMaxHiddenWidth);
    }
    if (!is) fail("truncated header");

    // Architecture is reconstructed, then every parameter is overwritten,
    // so the init engine's seed is irrelevant.
    rng::Engine dummy(0);
    CouplingStack stack(cfg, dummy);

    std::size_t param_count = 0;
    is >> param_count;
    auto params = stack.params();
    if (param_count != params.size())
        fail("parameter count mismatch (file " + std::to_string(param_count) +
             ", architecture " + std::to_string(params.size()) + ")");
    for (auto& p : params) {
        std::size_t rows = 0;
        std::size_t cols = 0;
        is >> rows >> cols;
        if (rows != p.value().rows() || cols != p.value().cols())
            fail("parameter shape mismatch");
        for (double& v : p.mutable_value().flat()) is >> v;
    }
    if (!is) fail("truncated parameters");
    return stack;
}

CouplingStack load_stack(const std::string& path) {
    std::ifstream is(path);
    if (!is) fail("cannot open '" + path + "' for reading");
    return load_stack(is);
}

ParamSnapshot snapshot_params(const CouplingStack& stack) {
    ParamSnapshot snap;
    const auto params = stack.params();
    snap.reserve(params.size());
    for (const auto& p : params) snap.push_back(p.value());
    return snap;
}

void restore_params(CouplingStack& stack, const ParamSnapshot& snapshot) {
    auto params = stack.params();
    if (params.size() != snapshot.size())
        fail("snapshot parameter count mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
        const auto& src = snapshot[i];
        auto& dst = params[i].mutable_value();
        if (src.rows() != dst.rows() || src.cols() != dst.cols())
            fail("snapshot parameter shape mismatch");
        dst = src;
    }
}

}  // namespace nofis::flow
