// Compiled once per ISA level (mfc_isa_kernels in CMakeLists.txt).
#include "numerics/row_kernels.hpp"

#include <type_traits>

#include "numerics/vec_axpy.hpp"

namespace mfc {

namespace {

/// Interior cells [1, nx-1) — whose x-neighbors need no boundary clamp —
/// run W cells per step; the two clamped end cells and the tail reuse the
/// same expressions at W = 1, keeping every width bitwise identical to
/// the serial scalar row.
template <int W> void jacobi_row(const JacobiRow& r) {
    const double* sp = r.s;
    const int nx = r.nx;
    const auto cell_block = [&](auto bwtag, int i) {
        constexpr int BW = decltype(bwtag)::value;
        using BV = simd::vd<BW>;
        BV nb = 0.0;
        if (nx > 1) nb += (BV::load(sp + i - 1) + BV::load(sp + i + 1));
        if (r.has_y) nb += (BV::load(r.sjm + i) + BV::load(r.sjp + i));
        if (r.has_z) nb += (BV::load(r.skm + i) + BV::load(r.skp + i));
        const BV out = (BV::load(r.src + i) + BV(r.off) * nb) / BV(r.diag);
        out.store(r.dst + i);
    };
    const auto scalar_cell = [&](int i) {
        double nb = 0.0;
        if (nx > 1) {
            nb += (i > 0 ? sp[i - 1] : (r.ifx_lo ? sp[-1] : sp[i])) +
                  (i < nx - 1 ? sp[i + 1] : (r.ifx_hi ? sp[nx] : sp[i]));
        }
        if (r.has_y) nb += r.sjm[i] + r.sjp[i];
        if (r.has_z) nb += r.skm[i] + r.skp[i];
        r.dst[i] = (r.src[i] + r.off * nb) / r.diag;
    };

    scalar_cell(0);
    int i = 1;
    for (; i + W <= nx - 1; i += W) {
        cell_block(std::integral_constant<int, W>{}, i);
    }
    for (; i < nx - 1; ++i) cell_block(std::integral_constant<int, 1>{}, i);
    if (nx > 1) scalar_cell(nx - 1);
}

} // namespace

const NumericsKernels MFC_SIMD_PER_ISA(kNumericsKernels) = {
    MFC_SIMD_BY_WIDTH(rk_axpy_rows),
    MFC_SIMD_BY_WIDTH(jacobi_row),
};

} // namespace mfc
