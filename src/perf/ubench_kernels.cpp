// Compiled once per ISA level (mfc_isa_kernels in CMakeLists.txt).
#include "perf/ubench_kernels.hpp"

#include <cstddef>
#include <type_traits>

#include "numerics/vec_igr.hpp"
#include "numerics/vec_riemann.hpp"
#include "numerics/vec_weno.hpp"
#include "physics/vec_kernels.hpp"

namespace mfc::perf {

namespace {

constexpr int kMaxEqns = 16;

/// Per-equation state of one BW-cell block. Zeroed once per call: the
/// kernels index it up to the layout's equation count, and the fill keeps
/// the unused tail defined.
template <int BW> struct Cells {
    using V = simd::vd<BW>;
    V a[kMaxEqns] = {};
    V b[kMaxEqns] = {};
    V c[kMaxEqns] = {};
    V out[kMaxEqns] = {};
};

template <int W>
void prim_convert(const EquationLayout& lay,
                  const std::vector<StiffenedGas>& fluids, const double* cons,
                  double* prim, int cells) {
    const int neq = lay.num_eqns();
    const auto block = [&](auto& st, int i) {
        using BV = typename std::remove_reference_t<decltype(st)>::V;
        for (int q = 0; q < neq; ++q) {
            st.a[q] = BV::load(cons + static_cast<std::size_t>(q) * cells + i);
        }
        cons_to_prim_v<BV::width>(lay, fluids, st.a, st.out);
        for (int q = 0; q < neq; ++q) {
            st.out[q].store(prim + static_cast<std::size_t>(q) * cells + i);
        }
    };
    Cells<W> wide;
    Cells<1> tail;
    int i = 0;
    for (; i + W <= cells; i += W) block(wide, i);
    for (; i < cells; ++i) block(tail, i);
}

template <int W>
void weno(const double* row, int order, double eps, WenoVariant variant,
          double* left, double* right, int cells) {
    const int r = (order - 1) / 2;
    const auto block = [&](auto tag, int i) {
        constexpr int BW = decltype(tag)::value;
        simd::vd<BW> l, rt;
        weno_edges_v<BW>(row + i + r, order, eps, l, rt, variant);
        l.store(left + i);
        rt.store(right + i);
    };
    int i = 0;
    for (; i + W <= cells; i += W) block(std::integral_constant<int, W>{}, i);
    for (; i < cells; ++i) block(std::integral_constant<int, 1>{}, i);
}

template <int W>
void riemann(RiemannSolverKind kind, const EquationLayout& lay,
             const std::vector<StiffenedGas>& fluids, const double* left,
             const double* right, double* flux, double* uface, int cells) {
    const int neq = lay.num_eqns();
    const auto block = [&](auto& st, int f) {
        using BV = typename std::remove_reference_t<decltype(st)>::V;
        for (int q = 0; q < neq; ++q) {
            const auto qo = static_cast<std::size_t>(q) * cells + f;
            st.a[q] = BV::load(left + qo);
            st.b[q] = BV::load(right + qo);
        }
        const BV uf = solve_riemann_v<BV::width>(kind, lay, fluids, st.a,
                                                 st.b, 0, st.out);
        for (int q = 0; q < neq; ++q) {
            st.out[q].store(flux + static_cast<std::size_t>(q) * cells + f);
        }
        uf.store(uface + f);
    };
    Cells<W> wide;
    Cells<1> tail;
    int f = 0;
    for (; f + W <= cells; f += W) block(wide, f);
    for (; f < cells; ++f) block(tail, f);
}

template <int W>
void igr_flux(const EquationLayout& lay,
              const std::vector<StiffenedGas>& fluids, const double* face,
              const double* cell_l, const double* cell_r, double* flux,
              double* uface, int cells) {
    const int neq = lay.num_eqns();
    const auto block = [&](auto& st, int f) {
        using BV = typename std::remove_reference_t<decltype(st)>::V;
        for (int q = 0; q < neq; ++q) {
            const auto qo = static_cast<std::size_t>(q) * cells + f;
            st.a[q] = BV::load(face + qo);
            st.b[q] = BV::load(cell_l + qo);
            st.c[q] = BV::load(cell_r + qo);
        }
        const BV uf = igr_face_flux_v<BV::width>(lay, fluids, st.a, st.b,
                                                 st.c, 0, st.out);
        for (int q = 0; q < neq; ++q) {
            st.out[q].store(flux + static_cast<std::size_t>(q) * cells + f);
        }
        uf.store(uface + f);
    };
    Cells<W> wide;
    Cells<1> tail;
    int f = 0;
    for (; f + W <= cells; f += W) block(wide, f);
    for (; f < cells; ++f) block(tail, f);
}

} // namespace

const UbenchKernels MFC_SIMD_PER_ISA(kUbenchKernels) = {
    MFC_SIMD_BY_WIDTH(prim_convert),
    MFC_SIMD_BY_WIDTH(weno),
    MFC_SIMD_BY_WIDTH(riemann),
    MFC_SIMD_BY_WIDTH(igr_flux),
};

} // namespace mfc::perf
