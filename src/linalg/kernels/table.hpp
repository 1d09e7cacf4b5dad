#pragma once

// Internal dispatch plumbing for the kernel layer. Each backend fills a
// Table of function pointers; dispatch.cpp picks the active one. Not part
// of the public API — tests include it to pin individual backends against
// the scalar reference directly.

#include <cstddef>

#include "linalg/kernels/kernels.hpp"

namespace nofis::linalg::kernels::detail {

struct Table {
    void (*matmul_rows)(const double*, const double*, double*, std::size_t,
                        std::size_t, std::size_t, std::size_t) = nullptr;
    void (*linear_act_rows)(const double*, const double*, const double*,
                            double*, std::size_t, std::size_t, std::size_t,
                            std::size_t, Act) = nullptr;
    void (*affine_fwd_rows)(const double*, const double*, const std::size_t*,
                            std::size_t, double, std::size_t, double*,
                            double*, std::size_t, std::size_t) = nullptr;
    void (*affine_inv_rows)(const double*, const double*, const std::size_t*,
                            std::size_t, double, std::size_t, double*,
                            double*, std::size_t, std::size_t) = nullptr;
    void (*scale_shift_rows)(const double*, const double*, const double*,
                             double*, std::size_t, std::size_t,
                             std::size_t) = nullptr;
    void (*rqs_fwd_rows)(const double*, const double*, const std::size_t*,
                         std::size_t, std::size_t, double, std::size_t,
                         double*, double*, std::size_t, std::size_t) = nullptr;
    void (*rqs_inv_rows)(const double*, const double*, const std::size_t*,
                         std::size_t, std::size_t, double, std::size_t,
                         double*, double*, std::size_t, std::size_t) = nullptr;
    void (*rqs_bwd_rows)(const double*, const double*, std::size_t,
                         std::size_t, double, const double*, const double*,
                         double*, double*, std::size_t, std::size_t) = nullptr;
    void (*ew_add)(const double*, const double*, double*,
                   std::size_t) = nullptr;
    void (*ew_sub)(const double*, const double*, double*,
                   std::size_t) = nullptr;
    void (*ew_mul)(const double*, const double*, double*,
                   std::size_t) = nullptr;
    void (*ew_scale)(const double*, double, double*, std::size_t) = nullptr;
    void (*ew_tanh)(const double*, double*, std::size_t) = nullptr;
    void (*ew_exp)(const double*, double*, std::size_t) = nullptr;
    void (*ew_tanh_bwd)(const double*, const double*, double*,
                        std::size_t) = nullptr;
};

/// Serial reference kernels — every slot non-null.
const Table& scalar_table();

/// Portable vectorized kernels — every slot non-null.
const Table& portable_table();

/// Intrinsic AVX2 backend: non-null only when compiled for x86-64 AND the
/// CPU supports AVX2 at runtime. The returned table may leave slots null;
/// dispatch falls back to the portable table per slot.
const Table* avx2_table();

/// The table the `simd` choice resolves to on this machine (portable with
/// any available intrinsic slots spliced in), plus its backend name.
const Table& simd_table();

}  // namespace nofis::linalg::kernels::detail
