#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/field.hpp"
#include "physics/model.hpp"
#include "prof/prof.hpp"
#include "simd/simd.hpp"

/// Pencil staging, divergence and sampled-timing helpers shared by the
/// RHS sweep kernels (rhs_kernels.cpp, compiled once per ISA level) and
/// the reference paths in rhs.cpp. Compiled into every level, so they
/// live in the per-level namespace like the vec_*.hpp kernels.
namespace mfc {
inline namespace MFC_SIMD_NS { // per-level build (simd/simd.hpp)
namespace rhs_rows {

constexpr int kMaxEqns = 16;

// Segment-timing sample stride: every kSampleStride-th pencil row is
// timed and the per-chunk credit scaled by rows/sampled (rows within a
// sweep do identical work). Power of two so the row test is a mask.
constexpr long long kSampleStride = 4;

/// Number of multiples of kSampleStride in [lo, hi), i.e. how many rows
/// of the chunk carry timestamps.
inline long long sampled_rows(long long lo, long long hi) {
    const long long k = kSampleStride;
    return (hi + k - 1) / k - (lo + k - 1) / k;
}

/// Scale a sampled segment total up to the whole chunk, then clamp the
/// estimates so they sum to no more than the chunk's measured wall time:
/// the sampled rows may be slower than average (row 0 is cache-cold), and
/// bulk-crediting children beyond the parent zone's elapsed time would
/// drive the parent's exclusive share negative.
inline void credit_scaled(const char* const* names, std::int64_t* ns,
                          int count, long long chunk_rows, long long sampled,
                          std::int64_t chunk_ns) {
    const double scale =
        static_cast<double>(chunk_rows) / std::max<long long>(1, sampled);
    double sum = 0.0;
    for (int i = 0; i < count; ++i) sum += static_cast<double>(ns[i]) * scale;
    const double cap =
        sum > static_cast<double>(chunk_ns) && sum > 0.0
            ? static_cast<double>(chunk_ns) / sum
            : 1.0;
    for (int i = 0; i < count; ++i) {
        prof::add_child_ns(names[i],
                           static_cast<std::int64_t>(
                               static_cast<double>(ns[i]) * scale * cap),
                           chunk_rows);
    }
}

inline int extent_along(const Extents& e, int dim) {
    return dim == 0 ? e.nx : dim == 1 ? e.ny : e.nz;
}

inline bool active(const Extents& e, int dim) {
    return extent_along(e, dim) > 1;
}

/// (i, j, k) of row-local cell `c` for a sweep along `dim` with
/// transverse indices (t1, t2) — t1 is the fast transverse index.
inline void cell_of(int dim, int c, int t1, int t2, int& i, int& j, int& k) {
    switch (dim) {
    case 0: i = c; j = t1; k = t2; return;
    case 1: i = t1; j = c; k = t2; return;
    default: i = t1; j = t2; k = c; return;
    }
}

// Transverse (y/z) sweeps stage up to exec::tile_rows() x-adjacent
// pencils through one cache-blocked transpose tile per tile of rows
// (compile default MFCPP_TILE_ROWS = 16, runtime-overridable via
// MFC_TILE_ROWS; the bench records the value in its metadata). The fast
// transverse index t1 is x for dims 1 and 2 (see cell_of), so the `b`
// direction below walks unit-stride memory: each transpose step moves a
// contiguous run of tile-height doubles — at the default 16, two full
// 64-byte lines — where the per-row strided gather this replaces used 8
// of every 64 bytes fetched. Any height >= 1 is bitwise-neutral: the
// tile only regroups pure copies.

/// Tile row pitch: round `len` up so every tile row starts 64-byte-
/// aligned within the (aligned) arena block.
inline int tile_pitch(int len) { return (len + 7) / 8 * 8; }

/// Transpose `tb` x-adjacent pencils of a transverse sweep into
/// contiguous tile rows: tile[b * pitch + c] holds row-local cell c of
/// the pencil at (t1 + b, t2), c in [0, len) starting at sweep cell c0.
inline void transpose_in(const Field& src, int dim, int c0, int t1, int t2,
                         int len, int tb, double* tile, int pitch) {
    int i = 0, j = 0, k = 0;
    cell_of(dim, c0, t1, t2, i, j, k);
    const double* p = src.ptr(i, j, k);
    const std::ptrdiff_t s = src.stride(dim);
    for (int c = 0; c < len; ++c) {
        const double* pc = p + c * s;
        for (int b = 0; b < tb; ++b) tile[b * pitch + c] = pc[b];
    }
}

/// Inverse of transpose_in: scatter `tb` contiguous tile rows back into
/// the field, again moving whole unit-stride runs per row cell.
inline void transpose_out(Field& dst, int dim, int c0, int t1, int t2,
                          int len, int tb, const double* tile, int pitch) {
    int i = 0, j = 0, k = 0;
    cell_of(dim, c0, t1, t2, i, j, k);
    double* p = dst.ptr(i, j, k);
    const std::ptrdiff_t s = dst.stride(dim);
    for (int c = 0; c < len; ++c) {
        double* pc = p + c * s;
        for (int b = 0; b < tb; ++b) pc[b] = tile[b * pitch + c];
    }
}

/// Flux divergence + non-conservative sources for cells [c, c+W) of one
/// pencil. `flux` is SoA over faces (flux[q * fstride + f], fstride =
/// n + 1); `rowc` and `dqp` are per-equation pointers to contiguous
/// pencils positioned at sweep cell c_lo — either straight into the
/// field (x-sweeps, unit stride) or into a transpose tile row. Per cell
/// and equation the operation sequence matches the scalar loop exactly:
/// flux difference first (assign via 0.0 - d when `accumulate` is false,
/// preserving the bit pattern of the former fill(0.0)-then-subtract
/// path), then the advection du term, then the six-equation
/// internal-energy term.
template <int W>
inline void divergence_block(const EquationLayout& lay, bool accumulate,
                             int c, int neq, double inv_dx,
                             const double* const* rowc, const double* flux,
                             int fstride, const double* uface,
                             double* const* dqp) {
    using V = simd::vd<W>;
    const V inv(inv_dx);
    for (int q = 0; q < neq; ++q) {
        const double* fq = flux + static_cast<std::size_t>(q) * fstride;
        const V d = (V::load(fq + c + 1) - V::load(fq + c)) * inv;
        double* dst = dqp[q] + c;
        if (accumulate) {
            (V::load(dst) - d).store(dst);
        } else {
            (V(0.0) - d).store(dst);
        }
    }
    const V du = (V::load(uface + c + 1) - V::load(uface + c)) * inv;
    for (int f2 = 0; f2 < lay.num_adv(); ++f2) {
        const int qa = lay.adv(f2);
        const V av = V::load(rowc[qa] + c);
        double* dst = dqp[qa] + c;
        (V::load(dst) + av * du).store(dst);
    }
    if (lay.model() == ModelKind::SixEquation) {
        for (int f2 = 0; f2 < lay.num_fluids(); ++f2) {
            const V a = V::load(rowc[lay.adv(f2)] + c);
            const V p = V::load(rowc[lay.internal_energy(f2)] + c);
            double* dst = dqp[lay.internal_energy(f2)] + c;
            (V::load(dst) - a * p * du).store(dst);
        }
    }
}

/// Divergence over all n cells of a pencil: whole vectors, then a scalar
/// (W = 1) tail over the same template — identical per-cell math.
template <int W>
inline void divergence_cells(const EquationLayout& lay, bool accumulate,
                             int n, int neq, double inv_dx,
                             const double* const* rowc, const double* flux,
                             int fstride, const double* uface,
                             double* const* dqp) {
    int c = 0;
    for (; c + W <= n; c += W) {
        divergence_block<W>(lay, accumulate, c, neq, inv_dx, rowc, flux,
                            fstride, uface, dqp);
    }
    for (; c < n; ++c) {
        divergence_block<1>(lay, accumulate, c, neq, inv_dx, rowc, flux,
                            fstride, uface, dqp);
    }
}

} // namespace rhs_rows
} // inline namespace MFC_SIMD_NS
} // namespace mfc
