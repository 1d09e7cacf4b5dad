#include "flow/serialize.hpp"

#include <cstddef>
#include <fstream>
#include <span>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "util/atomic_file.hpp"
#include "util/parse.hpp"

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

// Bounds on what the fields imply together (stack_tally), checked before
// anything is built: each field can pass its own bound while their
// product asks for terabytes. The largest flows the repo trains have 144
// layers (`bench/ablation_coupling --case Cube`: 9 blocks of 8 couplings,
// each behind an ActNorm), 576 parameter matrices (bench/
// ablation_capacity's K = 16 on Leaf) and 1,106,200 values (`--coupling
// rqs` on DeepNet62); each cap is about two orders of magnitude above
// (114x, 114x, 61x). At the value cap the parameters take 512 MiB.
constexpr std::size_t kMaxLayers = 1u << 14;
constexpr std::size_t kMaxParamMatrices = 1u << 16;
constexpr std::size_t kMaxParamValues = 1u << 26;

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("flow serialisation: " + what);
}

void check_bound(const char* what, std::size_t value, std::size_t lo,
                 std::size_t hi) {
    if (value < lo || value > hi)
        fail(std::string("implausible ") + what + " " +
             std::to_string(value) + " in header (corrupt file?)");
}

/// Longest value token load_stack reads; a "%.17g" spelling is at most
/// util::kMaxDoubleChars (24).
constexpr std::size_t kMaxValueToken = 32;

/// Writes each value as ' ' and its "%.17g" spelling, whatever the
/// stream's format state.
void write_doubles(std::ostream& os, std::span<const double> values) {
    char token[1 + util::kMaxDoubleChars] = {' '};
    for (const double v : values)
        os.write(token, util::format_double(v, token + 1) - token);
}

/// Reads the next whitespace-delimited token straight from the stream
/// buffer into a fixed stack buffer and parses it as one finite double;
/// anything else is a structured error naming `where`.
double read_double(std::istream& is, const char* where) {
    using traits = std::istream::traits_type;
    if (!is) fail(std::string("truncated ") + where);
    std::streambuf* sb = is.rdbuf();
    // The C locale's whitespace: ' ' and '\t' through '\r'.
    const auto is_space = [](int ch) {
        return ch == ' ' || (ch >= '\t' && ch <= '\r');
    };
    int c = sb->sgetc();
    while (c != traits::eof() && is_space(c)) c = sb->snextc();
    char token[kMaxValueToken];
    std::size_t n = 0;
    for (; c != traits::eof() && !is_space(c); c = sb->snextc()) {
        if (n == kMaxValueToken)
            fail(std::string("number longer than ") +
                 std::to_string(kMaxValueToken) + " chars in " + where);
        token[n++] = traits::to_char_type(c);
    }
    if (n == 0) fail(std::string("truncated ") + where);
    const std::string_view text(token, n);
    const auto v = util::parse_double(text);
    if (!v)
        fail("malformed number '" + std::string(text) + "' in " + where);
    return *v;
}
}  // namespace

void save_stack(const CouplingStack& stack, std::ostream& os) {
    const StackConfig& cfg = stack.config();
    os << kMagic << '\n';
    os << cfg.dim << ' ' << cfg.num_blocks << ' ' << cfg.layers_per_block;
    write_doubles(os, {&cfg.scale_cap, 1});
    os << ' ' << coupling_kind_name(cfg.coupling) << ' '
       << (cfg.use_actnorm ? 1 : 0);
    // The spline header fields ride only on the "rqs" tag, so affine and
    // additive files stay byte-identical to the pre-rqs format (and old
    // readers reject rqs files at the kind token with a clear message).
    if (cfg.coupling == CouplingKind::kRqs) {
        os << ' ' << cfg.rqs_bins;
        write_doubles(os, {&cfg.rqs_tail, 1});
    }
    os << '\n';
    os << cfg.hidden.size();
    for (auto h : cfg.hidden) os << ' ' << h;
    os << '\n';

    const auto params = stack.params();
    os << params.size() << '\n';
    for (const auto& p : params) {
        const auto& m = p.value();
        os << m.rows() << ' ' << m.cols();
        write_doubles(os, m.flat());
        os << '\n';
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
    is >> cfg.dim >> cfg.num_blocks >> cfg.layers_per_block;
    cfg.scale_cap = read_double(is, "header");
    is >> kind >> actnorm;
    if (!is) fail("truncated header");
    const auto coupling = parse_coupling_kind(kind);
    if (!coupling) fail("unknown coupling kind '" + kind + "'");
    cfg.coupling = *coupling;
    cfg.use_actnorm = actnorm != 0;
    if (cfg.coupling == CouplingKind::kRqs) {
        is >> cfg.rqs_bins;
        cfg.rqs_tail = read_double(is, "rqs header");
        check_bound("rqs bin count", cfg.rqs_bins, 1,
                    linalg::kernels::kMaxRqsBins);
        if (cfg.rqs_tail <= 0.0)
            fail("implausible rqs tail bound in header (corrupt file?)");
    }
    check_bound("dim", cfg.dim, 2, kMaxDim);
    check_bound("block count", cfg.num_blocks, 1, kMaxBlocks);
    check_bound("layers per block", cfg.layers_per_block, 1,
                kMaxLayersPerBlock);
    if (cfg.scale_cap <= 0.0)
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
    const StackTally tally = stack_tally(cfg);
    check_bound("layer count", tally.layers, 1, kMaxLayers);
    check_bound("parameter matrix count", tally.tensors, 1,
                kMaxParamMatrices);
    check_bound("parameter value count", tally.values, 1, kMaxParamValues);

    std::size_t param_count = 0;
    is >> param_count;
    if (param_count != tally.tensors)
        fail("parameter count mismatch (file " + std::to_string(param_count) +
             ", architecture " + std::to_string(tally.tensors) + ")");

    // Architecture is reconstructed, then every parameter is overwritten,
    // so the init engine's seed is irrelevant.
    rng::Engine dummy(0);
    CouplingStack stack(cfg, dummy);
    for (auto& p : stack.params()) {
        std::size_t rows = 0;
        std::size_t cols = 0;
        is >> rows >> cols;
        if (rows != p.value().rows() || cols != p.value().cols())
            fail("parameter shape mismatch");
        for (double& v : p.mutable_value().flat())
            v = read_double(is, "parameters");
    }
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
