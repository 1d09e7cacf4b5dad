// Runtime dispatch for the kernel layer: resolves the active flavour from
// set_choice() / the NOFIS_KERNELS environment variable, with `simd`
// resolving to the AVX2 table when the CPU has it and to the portable
// table otherwise. The public kernel entry points in kernels.hpp forward
// through the active table.

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "linalg/kernels/table.hpp"

namespace nofis::linalg::kernels {

namespace detail {

namespace {

struct SimdResolution {
    const Table* table;
    const char* backend;
};

const SimdResolution& simd_resolution() {
    static const SimdResolution r = [] {
        if (const Table* avx2 = avx2_table())
            return SimdResolution{avx2, "avx2"};
        return SimdResolution{&portable_table(), "portable"};
    }();
    return r;
}

Choice env_choice() {
    const char* env = std::getenv("NOFIS_KERNELS");
    if (!env) return Choice::kSimd;
    if (const auto parsed = parse_choice(env))
        return *parsed == Choice::kAuto ? Choice::kSimd : *parsed;
    return Choice::kSimd;  // unknown value: keep the default, don't crash
}

std::atomic<const Table*>& active_table_slot() {
    // First use resolves NOFIS_KERNELS; set_choice overrides afterwards.
    static std::atomic<const Table*> slot{
        env_choice() == Choice::kScalar ? &scalar_table()
                                        : simd_resolution().table};
    return slot;
}

const Table& active_table() noexcept {
    return *active_table_slot().load(std::memory_order_acquire);
}

}  // namespace

const Table& simd_table() { return *simd_resolution().table; }

}  // namespace detail

using detail::active_table;

Choice active() noexcept {
    return &active_table() == &detail::scalar_table() ? Choice::kScalar
                                                      : Choice::kSimd;
}

void set_choice(Choice c) noexcept {
    const detail::Table* t = (c == Choice::kScalar)
                                 ? &detail::scalar_table()
                                 : &detail::simd_table();
    detail::active_table_slot().store(t, std::memory_order_release);
}

std::optional<Choice> parse_choice(const std::string& name) noexcept {
    if (name == "auto") return Choice::kAuto;
    if (name == "scalar") return Choice::kScalar;
    if (name == "simd") return Choice::kSimd;
    return std::nullopt;
}

const char* choice_name() noexcept {
    return active() == Choice::kScalar ? "scalar" : "simd";
}

const char* simd_backend() noexcept {
    return detail::simd_resolution().backend;
}

void linear_act_rows(const double* x, const double* w, const double* b,
                     double* y, std::size_t r0, std::size_t r1,
                     std::size_t in, std::size_t out, Act act) {
    active_table().linear_act_rows(x, w, b, y, r0, r1, in, out, act);
}

void affine_fwd_rows(const double* x, const double* h,
                     const std::size_t* idx_b, std::size_t nb,
                     double scale_cap, std::size_t dim, double* y,
                     double* log_det, std::size_t r0, std::size_t r1) {
    active_table().affine_fwd_rows(x, h, idx_b, nb, scale_cap, dim, y,
                                   log_det, r0, r1);
}

void affine_inv_rows(const double* y, const double* h,
                     const std::size_t* idx_b, std::size_t nb,
                     double scale_cap, std::size_t dim, double* x,
                     double* log_det, std::size_t r0, std::size_t r1) {
    active_table().affine_inv_rows(y, h, idx_b, nb, scale_cap, dim, x,
                                   log_det, r0, r1);
}

void ew_add(const double* a, const double* b, double* out, std::size_t n) {
    active_table().ew_add(a, b, out, n);
}

void ew_sub(const double* a, const double* b, double* out, std::size_t n) {
    active_table().ew_sub(a, b, out, n);
}

void ew_mul(const double* a, const double* b, double* out, std::size_t n) {
    active_table().ew_mul(a, b, out, n);
}

void ew_scale(const double* a, double s, double* out, std::size_t n) {
    active_table().ew_scale(a, s, out, n);
}

void ew_tanh(const double* a, double* out, std::size_t n) {
    active_table().ew_tanh(a, out, n);
}

void ew_exp(const double* a, double* out, std::size_t n) {
    active_table().ew_exp(a, out, n);
}

void ew_tanh_bwd(const double* y, const double* g, double* out,
                 std::size_t n) {
    active_table().ew_tanh_bwd(y, g, out, n);
}

void adam_step(double* p, const double* g, double* m, double* v,
               std::size_t n, const AdamStep& c) {
    active_table().adam_step(p, g, m, v, n, c);
}

}  // namespace nofis::linalg::kernels
