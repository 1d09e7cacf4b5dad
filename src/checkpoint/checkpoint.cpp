#include "checkpoint/checkpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "util/atomic_file.hpp"
#include "util/hash.hpp"

namespace nofis::checkpoint {

namespace {

constexpr char kMagic[8] = {'N', 'O', 'F', 'I', 'S', 'C', 'K', 'P'};
constexpr std::uint32_t kVersion = 1;
constexpr const char* kExtension = ".nofisckpt";
constexpr const char* kPrefix = "ckpt-";

// --- encoding ----------------------------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out.append(buf, 8);
}

void put_u8(std::string& out, std::uint8_t v) {
    out.push_back(static_cast<char>(v));
}

void put_f64(std::string& out, double v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out.append(buf, 8);
}

void put_string(std::string& out, const std::string& s) {
    put_u64(out, s.size());
    out.append(s);
}

void put_f64_vec(std::string& out, const std::vector<double>& v) {
    put_u64(out, v.size());
    for (double x : v) put_f64(out, x);
}

void put_string_vec(std::string& out, const std::vector<std::string>& v) {
    put_u64(out, v.size());
    for (const auto& s : v) put_string(out, s);
}

void put_matrix(std::string& out, const linalg::Matrix& m) {
    put_u64(out, m.rows());
    put_u64(out, m.cols());
    for (double x : m.flat()) put_f64(out, x);
}

void put_matrix_vec(std::string& out, const std::vector<linalg::Matrix>& v) {
    put_u64(out, v.size());
    for (const auto& m : v) put_matrix(out, m);
}

void put_fault_report(std::string& out, const estimators::FaultReport& r) {
    put_u64(out, r.counts.size());
    for (std::size_t c : r.counts) put_u64(out, c);
    put_u64(out, r.retry_attempts);
    put_u64(out, r.recovered);
    put_u64(out, r.clamped);
    put_u64(out, r.propagated);
    put_u8(out, r.has_first ? 1 : 0);
    put_u64(out, static_cast<std::uint64_t>(r.first_kind));
    put_string(out, r.first_message);
    put_f64_vec(out, r.first_x);
    put_u64(out, r.first_call_index);
}

void put_stage_record(std::string& out, const StageDiagnostics& s) {
    put_u64(out, s.stage);
    put_f64(out, s.level);
    put_f64_vec(out, s.epoch_loss);
    put_f64(out, s.inside_fraction);
    put_u64(out, s.retries);
    put_string_vec(out, s.retry_reasons);
    put_u64(out, s.skipped_epochs);
}

void put_opt_state(std::string& out, const nn::OptimizerState& s) {
    put_u64(out, static_cast<std::uint64_t>(s.step_count));
    put_matrix_vec(out, s.slots);
}

// --- decoding ----------------------------------------------------------

struct Truncated {};  ///< internal parse failure; never escapes decode

/// Bounds-checked reader over the verified payload.
class Reader {
public:
    Reader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

    std::uint64_t u64() {
        need(8);
        std::uint64_t v;
        std::memcpy(&v, p_, 8);
        p_ += 8;
        return v;
    }
    std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(*p_++);
    }
    double f64() {
        need(8);
        double v;
        std::memcpy(&v, p_, 8);
        p_ += 8;
        return v;
    }
    std::string str() {
        const std::uint64_t n = u64();
        need(n);
        std::string s(p_, n);
        p_ += n;
        return s;
    }
    std::vector<double> f64_vec() {
        const std::uint64_t n = u64();
        need(n * 8);
        std::vector<double> v(n);
        for (auto& x : v) x = f64();
        return v;
    }
    std::vector<std::string> str_vec() {
        const std::uint64_t n = u64();
        if (n > remaining()) throw Truncated{};
        std::vector<std::string> v;
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) v.push_back(str());
        return v;
    }
    linalg::Matrix matrix() {
        const std::uint64_t rows = u64();
        const std::uint64_t cols = u64();
        need(rows * cols * 8);
        linalg::Matrix m(rows, cols);
        for (double& x : m.flat()) x = f64();
        return m;
    }
    std::vector<linalg::Matrix> matrix_vec() {
        const std::uint64_t n = u64();
        if (n > remaining()) throw Truncated{};
        std::vector<linalg::Matrix> v;
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) v.push_back(matrix());
        return v;
    }
    estimators::FaultReport fault_report() {
        estimators::FaultReport r;
        const std::uint64_t kinds = u64();
        if (kinds != r.counts.size()) throw Truncated{};
        for (auto& c : r.counts) c = u64();
        r.retry_attempts = u64();
        r.recovered = u64();
        r.clamped = u64();
        r.propagated = u64();
        r.has_first = u8() != 0;
        const std::uint64_t kind = u64();
        if (kind >= static_cast<std::uint64_t>(
                        estimators::FaultKind::kCount))
            throw Truncated{};
        r.first_kind = static_cast<estimators::FaultKind>(kind);
        r.first_message = str();
        r.first_x = f64_vec();
        r.first_call_index = u64();
        return r;
    }
    StageDiagnostics stage_record() {
        StageDiagnostics s;
        s.stage = u64();
        s.level = f64();
        s.epoch_loss = f64_vec();
        s.inside_fraction = f64();
        s.retries = u64();
        s.retry_reasons = str_vec();
        s.skipped_epochs = u64();
        return s;
    }
    nn::OptimizerState opt_state() {
        nn::OptimizerState s;
        s.step_count = static_cast<long>(u64());
        s.slots = matrix_vec();
        return s;
    }
    bool done() const noexcept { return p_ == end_; }

private:
    std::size_t remaining() const noexcept {
        return static_cast<std::size_t>(end_ - p_);
    }
    void need(std::uint64_t n) const {
        if (n > remaining()) throw Truncated{};
    }
    const char* p_;
    const char* end_;
};

std::uint64_t parse_seq(const std::filesystem::path& file) {
    const std::string name = file.filename().string();
    const std::size_t prefix_len = std::strlen(kPrefix);
    if (name.rfind(kPrefix, 0) != 0) return 0;
    if (name.size() <= prefix_len || file.extension() != kExtension) return 0;
    std::uint64_t seq = 0;
    for (std::size_t i = prefix_len;
         i < name.size() - std::strlen(kExtension); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9') return 0;
        seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return seq;
}

/// Snapshot files in `dir`, newest sequence first.
std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_snapshots(
    const std::string& dir) {
    namespace fs = std::filesystem;
    std::vector<std::pair<std::uint64_t, fs::path>> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::uint64_t seq = parse_seq(entry.path());
        if (seq > 0) files.emplace_back(seq, entry.path());
    }
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    return files;
}

std::atomic<bool> g_stop_requested{false};
std::atomic<bool> g_handlers_installed{false};

void on_stop_signal(int) {
    g_stop_requested.store(true, std::memory_order_relaxed);
}

}  // namespace

double StageDiagnostics::first_finite_loss() const noexcept {
    for (double v : epoch_loss)
        if (std::isfinite(v)) return v;
    return std::numeric_limits<double>::quiet_NaN();
}

double StageDiagnostics::last_finite_loss() const noexcept {
    for (auto it = epoch_loss.rbegin(); it != epoch_loss.rend(); ++it)
        if (std::isfinite(*it)) return *it;
    return std::numeric_limits<double>::quiet_NaN();
}

std::string encode_snapshot(const TrainSnapshot& s) {
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    char vbuf[4];
    std::memcpy(vbuf, &kVersion, 4);
    out.append(vbuf, 4);
    put_u64(out, s.fingerprint);
    put_u64(out, s.next_stage);
    put_matrix_vec(out, s.params);
    put_f64_vec(out, s.scale_caps);
    for (std::uint64_t w : s.rng_state) put_u64(out, w);
    put_u64(out, s.guard_call_index);
    put_fault_report(out, s.guard_report);
    put_u64(out, s.train_g_calls);
    put_u64(out, s.g_grad_calls);
    put_u64(out, s.cached_hits);
    put_u64(out, s.stages.size());
    for (const auto& st : s.stages) put_stage_record(out, st);
    put_u8(out, s.has_partial ? 1 : 0);
    if (s.has_partial) {
        put_u64(out, s.next_epoch);
        put_u64(out, s.attempt);
        put_f64(out, s.attempt_lr);
        put_f64(out, s.attempt_clip);
        put_f64(out, s.stage_lr);
        put_opt_state(out, s.opt_state);
        put_matrix_vec(out, s.stage_start_params);
        put_stage_record(out, s.partial);
    }
    put_u64(out, util::fnv1a64(out.data(), out.size()));
    return out;
}

std::optional<TrainSnapshot> decode_snapshot(const std::string& bytes) {
    constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4;
    if (bytes.size() < kHeaderBytes + 8) return std::nullopt;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return std::nullopt;
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(kMagic), 4);
    if (version != kVersion) return std::nullopt;
    // Trailing checksum covers everything before it; a torn tail or a
    // flipped bit anywhere fails here before any field is trusted.
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + bytes.size() - 8, 8);
    if (stored != util::fnv1a64(bytes.data(), bytes.size() - 8))
        return std::nullopt;

    try {
        Reader r(bytes.data() + kHeaderBytes,
                 bytes.size() - kHeaderBytes - 8);
        TrainSnapshot s;
        s.fingerprint = r.u64();
        s.next_stage = r.u64();
        s.params = r.matrix_vec();
        s.scale_caps = r.f64_vec();
        for (auto& w : s.rng_state) w = r.u64();
        s.guard_call_index = r.u64();
        s.guard_report = r.fault_report();
        s.train_g_calls = r.u64();
        s.g_grad_calls = r.u64();
        s.cached_hits = r.u64();
        const std::uint64_t stage_count = r.u64();
        s.stages.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(stage_count, 4096)));
        for (std::uint64_t i = 0; i < stage_count; ++i)
            s.stages.push_back(r.stage_record());
        s.has_partial = r.u8() != 0;
        if (s.has_partial) {
            s.next_epoch = r.u64();
            s.attempt = r.u64();
            s.attempt_lr = r.f64();
            s.attempt_clip = r.f64();
            s.stage_lr = r.f64();
            s.opt_state = r.opt_state();
            s.stage_start_params = r.matrix_vec();
            s.partial = r.stage_record();
        }
        if (!r.done()) return std::nullopt;
        return s;
    } catch (const Truncated&) {
        return std::nullopt;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

CheckpointDir::CheckpointDir(std::string dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(std::max<std::size_t>(keep, 1)) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (!fs::is_directory(dir_))
        throw std::runtime_error("checkpoint: cannot create directory '" +
                                 dir_ + "'");
    for (const auto& [seq, path] : list_snapshots(dir_)) {
        (void)path;
        next_seq_ = std::max(next_seq_, seq + 1);
    }
}

void CheckpointDir::write(const TrainSnapshot& snapshot) {
    namespace fs = std::filesystem;
    char name[64];
    std::snprintf(name, sizeof(name), "%s%08llu%s", kPrefix,
                  static_cast<unsigned long long>(next_seq_), kExtension);
    const std::string path = (fs::path(dir_) / name).string();
    util::atomic_write_file(path, encode_snapshot(snapshot));
    ++next_seq_;
    ++writes_;

    // Prune: keep the newest `keep_` snapshots. Pruning failures are
    // swallowed — stale snapshots waste space but never correctness.
    const auto files = list_snapshots(dir_);
    for (std::size_t i = keep_; i < files.size(); ++i) {
        std::error_code ec;
        fs::remove(files[i].second, ec);
    }
}

std::optional<TrainSnapshot> CheckpointDir::load_latest(
    std::uint64_t fingerprint) const {
    for (const auto& [seq, path] : list_snapshots(dir_)) {
        (void)seq;
        std::ifstream is(path, std::ios::binary);
        if (!is) continue;
        std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
        auto snapshot = decode_snapshot(bytes);
        if (!snapshot) continue;  // torn/corrupt: fall back to older
        if (snapshot->fingerprint != fingerprint)
            throw std::runtime_error(
                "checkpoint: snapshot '" + path.string() +
                "' belongs to a different run configuration (fingerprint "
                "mismatch) — refusing to resume");
        return snapshot;
    }
    return std::nullopt;
}

FingerprintBuilder& FingerprintBuilder::add(std::uint64_t v) noexcept {
    add_bytes(&v, sizeof(v));
    return *this;
}

FingerprintBuilder& FingerprintBuilder::add(double v) noexcept {
    add_bytes(&v, sizeof(v));
    return *this;
}

FingerprintBuilder& FingerprintBuilder::add(const std::string& s) noexcept {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
    return *this;
}

void FingerprintBuilder::add_bytes(const void* data, std::size_t n) noexcept {
    hash_ = util::fnv1a64(data, n, hash_);
}

void install_stop_handlers() {
    if (g_handlers_installed.exchange(true, std::memory_order_relaxed))
        return;
    std::signal(SIGINT, on_stop_signal);
    std::signal(SIGTERM, on_stop_signal);
}

bool stop_requested() noexcept {
    return g_stop_requested.load(std::memory_order_relaxed);
}

void request_stop() noexcept {
    g_stop_requested.store(true, std::memory_order_relaxed);
}

void reset_stop_request() noexcept {
    g_stop_requested.store(false, std::memory_order_relaxed);
}

}  // namespace nofis::checkpoint
