#pragma once

#include "simd/simd.hpp"

/// Per-level row kernels of the numerics layer (compiled once per ISA
/// level by row_kernels.cpp; see simd/simd.hpp): the Runge-Kutta axpy
/// and the IGR Jacobi relaxation row. Callers pick the level x width
/// instance with simd::dispatch(kNumericsKernels, &NumericsKernels::...).
namespace mfc {

/// One (j, k) row of the IGR Jacobi relaxation, contiguous along x. The
/// transverse neighbor rows are pre-clamped by the caller (rank ghost at
/// decomposition interfaces, the row itself at global boundaries); the
/// x-neighbors of the two end cells clamp here the same way.
struct JacobiRow {
    const double* s = nullptr;   ///< iterate row, cell (0, j, k)
    const double* sjm = nullptr; ///< transverse neighbor rows
    const double* sjp = nullptr;
    const double* skm = nullptr;
    const double* skp = nullptr;
    const double* src = nullptr; ///< source row
    double* dst = nullptr;       ///< next-iterate row
    int nx = 0;
    bool has_y = false; ///< ny > 1: y-neighbors join the stencil
    bool has_z = false; ///< nz > 1
    bool ifx_lo = false; ///< x faces adjoin another rank: read the ghost
    bool ifx_hi = false;
    double off = 0.0;  ///< neighbor weight
    double diag = 1.0; ///< diagonal
};

/// out[s] = a * va[s] + b * vb[s] + c_dt * vd[s] over s in [lo, hi).
using RkAxpyFn = void (*)(double a, const double* va, double b,
                          const double* vb, double c_dt, const double* vd,
                          double* vo, long long lo, long long hi);
using JacobiRowFn = void (*)(const JacobiRow& row);

struct NumericsKernels {
    simd::ByWidth<RkAxpyFn> rk_axpy;
    simd::ByWidth<JacobiRowFn> igr_jacobi_row;
};

MFC_SIMD_DECLARE_BY_ISA(NumericsKernels, kNumericsKernels);

} // namespace mfc
