#pragma once

#include <vector>

#include "physics/vec_kernels.hpp"
#include "simd/simd.hpp"

/// Width-W replica of the IGR central face flux with Rusanov dissipation
/// (the face loop body of RhsEvaluator::sweep_igr), evaluating W faces at
/// once. `pface` is the centrally interpolated face state with the
/// entropic pressure already added to the energy slot; `pcell_l`/`pcell_r`
/// are the adjacent cell averages supplying the dissipation. Lanes map 1:1
/// to faces and evaluate the identical expression tree as the scalar loop
/// (vmax/vabs carry std::max/std::abs semantics), so results are bitwise
/// equal at any width. Returns the face velocities.
namespace mfc {
inline namespace MFC_SIMD_NS { // per-level build (simd/simd.hpp)

template <int W>
inline vdw<W> igr_face_flux_v(const EquationLayout& lay,
                              const std::vector<StiffenedGas>& fluids,
                              const vdw<W>* pface, const vdw<W>* pcell_l,
                              const vdw<W>* pcell_r, int dir, vdw<W>* flux) {
    using V = vdw<W>;
    constexpr int kMax = 16;
    const int neq = lay.num_eqns();
    MFC_DBG_ASSERT(neq <= kMax);

    physical_flux_v<W>(lay, fluids, pface, dir, flux);

    V cons_l[kMax], cons_r[kMax];
    prim_to_cons_v<W>(lay, fluids, pcell_l, cons_l);
    prim_to_cons_v<W>(lay, fluids, pcell_r, cons_r);
    const V cl = mixture_sound_speed_v<W>(lay, fluids, pcell_l);
    const V cr = mixture_sound_speed_v<W>(lay, fluids, pcell_r);
    const V lam = simd::vmax(simd::vabs(pcell_l[lay.mom(dir)]) + cl,
                             simd::vabs(pcell_r[lay.mom(dir)]) + cr);
    for (int q = 0; q < neq; ++q) {
        flux[q] -= V(0.5) * lam * (cons_r[q] - cons_l[q]);
    }
    return pface[lay.mom(dir)];
}

} // inline namespace MFC_SIMD_NS
} // namespace mfc
