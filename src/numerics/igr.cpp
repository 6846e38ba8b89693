#include "numerics/igr.hpp"

#include "core/error.hpp"
#include "exec/exec.hpp"
#include "numerics/row_kernels.hpp"
#include "prof/prof.hpp"

namespace mfc {

std::string to_string(const IgrParams& p) {
    if (!p.enabled) return "igr=F";
    return "igr=T order=" + std::to_string(p.order) +
           " alf=" + std::to_string(p.alf_factor) +
           " iters=" + std::to_string(p.num_iters) +
           " solver=" + (p.iter_solver == 1 ? std::string("Jacobi")
                                            : std::string("Gauss-Seidel"));
}

void igr_elliptic_solve(const IgrParams& params, const Field& source,
                        double dx, bool warm, Field& sigma,
                        const IgrInterfaceMask& iface,
                        const std::function<void(Field&)>& exchange) {
    PROF_ZONE("igr_elliptic");
    MFC_REQUIRE(params.iter_solver == 1 || params.iter_solver == 2,
                "igr_iter_solver must be 1 (Jacobi) or 2 (Gauss-Seidel)");
    const Extents e = source.extents();
    const double alf = params.alf_factor * dx * dx;
    const double inv_dx2 = 1.0 / (dx * dx);
    // Rank-interface faces read the exchanged ghost; global-boundary faces
    // clamp to the edge cell (homogeneous Neumann, the serial behavior).
    const bool ifx_lo = iface[0][0], ifx_hi = iface[0][1];
    const bool ify_lo = iface[1][0], ify_hi = iface[1][1];
    const bool ifz_lo = iface[2][0], ifz_hi = iface[2][1];

    // Active-dimension neighbor count for the discrete Laplacian.
    const int active = e.dims() == 0 ? 1 : e.dims();
    const double diag = 1.0 + alf * inv_dx2 * 2.0 * active;
    const double off = alf * inv_dx2;

    const int iters = params.num_iters + (warm ? 0 : params.num_warm_start_iters);
    if (!warm) sigma.fill(0.0);

    // One row of the relaxation stencil: reads the iterate `s`, writes
    // `dst`. The Jacobi rows are independent (s != dst) and parallelize;
    // Gauss-Seidel reads and writes sigma in place and must stay serial.
    const auto relax_row = [&](const Field& s, Field& dst, int j, int k) {
        for (int i = 0; i < e.nx; ++i) {
            double nb = 0.0;
            if (e.nx > 1) {
                nb += (i > 0 ? s(i - 1, j, k) : s(i, j, k)) +
                      (i < e.nx - 1 ? s(i + 1, j, k) : s(i, j, k));
            }
            if (e.ny > 1) {
                nb += (j > 0 ? s(i, j - 1, k) : s(i, j, k)) +
                      (j < e.ny - 1 ? s(i, j + 1, k) : s(i, j, k));
            }
            if (e.nz > 1) {
                nb += (k > 0 ? s(i, j, k - 1) : s(i, j, k)) +
                      (k < e.nz - 1 ? s(i, j, k + 1) : s(i, j, k));
            }
            dst(i, j, k) = (source(i, j, k) + off * nb) / diag;
        }
    };

    // Jacobi rows are independent and stream contiguously along x: each
    // runs through the per-level row kernel (row_kernels.cpp), W cells
    // per step and bitwise identical at every level and width.
    // Transverse neighbors come from row pointers pre-clamped per (j, k).
    // Gauss-Seidel reads its own in-flight writes and stays serial and
    // scalar.
    const auto jacobi_row = [&](const Field& s, Field& dst, int j, int k) {
        JacobiRow r;
        r.s = s.ptr(0, j, k);
        r.sjm = s.ptr(0, j > 0 ? j - 1 : (ify_lo ? -1 : j), k);
        r.sjp = s.ptr(0, j < e.ny - 1 ? j + 1 : (ify_hi ? e.ny : j), k);
        r.skm = s.ptr(0, j, k > 0 ? k - 1 : (ifz_lo ? -1 : k));
        r.skp = s.ptr(0, j, k < e.nz - 1 ? k + 1 : (ifz_hi ? e.nz : k));
        r.src = source.ptr(0, j, k);
        r.dst = dst.ptr(0, j, k);
        r.nx = e.nx;
        r.has_y = e.ny > 1;
        r.has_z = e.nz > 1;
        r.ifx_lo = ifx_lo;
        r.ifx_hi = ifx_hi;
        r.off = off;
        r.diag = diag;
        return r;
    };

    Field next = sigma; // Jacobi needs a second buffer
    const long long rows = static_cast<long long>(e.ny) * e.nz;
    for (int it = 0; it < iters; ++it) {
        // Refresh the iterate's rank ghosts so interface cells read the
        // neighbor's previous iterate — exactly the serial stencil.
        if (exchange && params.iter_solver == 1) exchange(sigma);
        if (params.iter_solver == 1) {
            const JacobiRowFn relax = simd::dispatch(
                kNumericsKernels, &NumericsKernels::igr_jacobi_row);
            exec::parallel_for(
                "igr_elliptic", 0, rows, [&](long long lo, long long hi) {
                    for (long long t = lo; t < hi; ++t) {
                        const int j = static_cast<int>(t % e.ny);
                        const int k = static_cast<int>(t / e.ny);
                        relax(jacobi_row(sigma, next, j, k));
                    }
                });
            std::swap(sigma, next);
        } else {
            for (int k = 0; k < e.nz; ++k) {
                for (int j = 0; j < e.ny; ++j) relax_row(sigma, sigma, j, k);
            }
        }
    }
    // The IGR sweeps read sigma's rank ghosts too (face averaging at
    // interface cells) — leave them current with the converged iterate.
    if (exchange) exchange(sigma);
}

} // namespace mfc
