#pragma once

#include "simd/simd.hpp"

/// Width-W Runge-Kutta linear combination over a contiguous index range:
///
///     out[s] = a * va[s] + b * vb[s] + c_dt * vd[s],  s in [lo, hi)
///
/// the element-wise axpy of linear_combine() (time_stepper.cpp). Whole
/// vectors run from lo upward; the remainder falls back to the scalar
/// expression — the same tree per element either way, so any width (and
/// any chunking) is bitwise identical to the serial scalar loop.
namespace mfc {
inline namespace MFC_SIMD_NS { // per-level build (simd/simd.hpp)

template <int W>
inline void rk_axpy_rows(double a, const double* va, double b,
                         const double* vb, double c_dt, const double* vd,
                         double* vo, long long lo, long long hi) {
    using V = simd::vd<W>;
    const V av(a), bv(b), cv(c_dt);
    long long s = lo;
    for (; s + W <= hi; s += W) {
        const V r = av * V::load(va + s) + bv * V::load(vb + s) +
                    cv * V::load(vd + s);
        r.store(vo + s);
    }
    for (; s < hi; ++s) {
        const auto i = static_cast<std::size_t>(s);
        vo[i] = a * va[i] + b * vb[i] + c_dt * vd[i];
    }
}

} // inline namespace MFC_SIMD_NS
} // namespace mfc
