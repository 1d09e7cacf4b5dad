#pragma once

// Internal dispatch plumbing for the kernel layer. Each backend fills a
// Table of function pointers; dispatch.cpp picks the active one. Not part
// of the public API — tests include it to pin individual backends against
// the scalar reference directly.

#include <cstddef>

#include "linalg/kernels/kernels.hpp"

namespace nofis::linalg::kernels::detail {

struct Table {
    void (*linear_act_rows)(const double*, const double*, const double*,
                            double*, std::size_t, std::size_t, std::size_t,
                            std::size_t, Act) = nullptr;
    void (*affine_fwd_rows)(const double*, const double*, const std::size_t*,
                            std::size_t, double, std::size_t, double*,
                            double*, std::size_t, std::size_t) = nullptr;
    void (*affine_inv_rows)(const double*, const double*, const std::size_t*,
                            std::size_t, double, std::size_t, double*,
                            double*, std::size_t, std::size_t) = nullptr;
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

// Every table fills every slot. A backend points a slot at the scalar
// kernel where it has nothing to vectorize rather than leave it null. A
// kernel no backend vectorizes (the ActNorm scale-shift, the splines) has
// no slot: it is one function in scalar.cpp that every flavour calls.

/// Serial reference kernels.
const Table& scalar_table();

/// Portable vectorized kernels: the simd flavour on CPUs without AVX2.
const Table& portable_table();

/// Intrinsic AVX2 backend: non-null only when compiled for x86-64 AND the
/// CPU supports AVX2 at runtime.
const Table* avx2_table();

/// The table the `simd` choice resolves to on this machine: the AVX2 table
/// when there is one, else the portable table.
const Table& simd_table();

}  // namespace nofis::linalg::kernels::detail
