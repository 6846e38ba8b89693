// Compiled once per ISA level (mfc_isa_kernels in CMakeLists.txt): the
// sweep bodies of RhsEvaluator, reached through kRhsKernels.
#include "solver/rhs_kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "exec/exec.hpp"
#include "numerics/vec_igr.hpp"
#include "numerics/vec_riemann.hpp"
#include "numerics/vec_weno.hpp"
#include "physics/vec_kernels.hpp"
#include "prof/prof.hpp"
#include "solver/rhs_rows.hpp"

namespace mfc {

namespace {

using namespace rhs_rows;

template <int W>
void convert_primitives(const RhsContext& ctx, const StateArray& cons,
                        StateArray& prim, const int lo[3], const int hi[3]) {
    const int neq = ctx.lay.num_eqns();

    // Rows along x parallelize over the box's (j, k) plane; within a row
    // the conversion runs W cells per step (scalar tail at W = 1, same
    // kernel template — bitwise identical at any width, and the per-cell
    // conversion is position-independent, so any box partition of the
    // extended domain produces the same values).
    const int x0 = lo[0], y0 = lo[1], z0 = lo[2];
    const int len_x = hi[0] - lo[0];
    const int rows_y = hi[1] - lo[1];
    const long long rows = static_cast<long long>(rows_y) * (hi[2] - lo[2]);
    if (len_x <= 0 || rows <= 0) return;

    exec::parallel_for(rhs_zone::prim_convert, 0, rows,
                       [&](long long row_lo, long long row_hi) {
        simd::vd<W> cv[kMaxEqns];
        simd::vd<W> pv[kMaxEqns];
        simd::vd<1> c1[kMaxEqns];
        simd::vd<1> p1[kMaxEqns];
        const double* src[kMaxEqns];
        double* dst[kMaxEqns];
        for (long long t = row_lo; t < row_hi; ++t) {
            const int j = y0 + static_cast<int>(t % rows_y);
            const int k = z0 + static_cast<int>(t / rows_y);
            for (int q = 0; q < neq; ++q) {
                src[q] = cons.eq(q).ptr(x0, j, k);
                dst[q] = prim.eq(q).ptr(x0, j, k);
            }
            int i = 0;
            for (; i + W <= len_x; i += W) {
                for (int q = 0; q < neq; ++q) {
                    cv[q] = simd::vd<W>::load(src[q] + i);
                }
                cons_to_prim_v<W>(ctx.lay, ctx.fluids, cv, pv);
                for (int q = 0; q < neq; ++q) pv[q].store(dst[q] + i);
            }
            for (; i < len_x; ++i) {
                for (int q = 0; q < neq; ++q) {
                    c1[q] = simd::vd<1>::load(src[q] + i);
                }
                cons_to_prim_v<1>(ctx.lay, ctx.fluids, c1, p1);
                for (int q = 0; q < neq; ++q) p1[q].store(dst[q] + i);
            }
        }
    });
}

/// Rows along x run W cells per step (ghosts make every i±1 read valid);
/// the scalar tail reuses the same expressions at W = 1.
template <int W> void igr_source(const RhsContext& ctx, Field& source) {
    const double alf = ctx.igr.alf_factor * ctx.dx[0] * ctx.dx[0];
    const long long rows = static_cast<long long>(ctx.local.ny) * ctx.local.nz;
    exec::parallel_for(rhs_zone::igr_sigma, 0, rows,
                       [&](long long lo, long long hi) {
        for (long long t = lo; t < hi; ++t) {
            const int j = static_cast<int>(t % ctx.local.ny);
            const int k = static_cast<int>(t / ctx.local.ny);

            const auto block = [&](auto wtag, int i) {
                constexpr int BW = decltype(wtag)::value;
                using BV = simd::vd<BW>;
                BV grad[3][3];
                for (auto& row : grad) {
                    row[0] = 0.0;
                    row[1] = 0.0;
                    row[2] = 0.0;
                }
                for (int a = 0; a < ctx.lay.dims(); ++a) {
                    const Field& u = ctx.prim.eq(ctx.lay.mom(a));
                    if (active(ctx.local, 0)) {
                        const double* ux = u.ptr(0, j, k);
                        grad[a][0] = (BV::load(ux + i + 1) -
                                      BV::load(ux + i - 1)) /
                                     BV(2.0 * ctx.dx[0]);
                    }
                    if (active(ctx.local, 1)) {
                        grad[a][1] = (BV::load(u.ptr(i, j + 1, k)) -
                                      BV::load(u.ptr(i, j - 1, k))) /
                                     BV(2.0 * ctx.dx[1]);
                    }
                    if (active(ctx.local, 2)) {
                        grad[a][2] = (BV::load(u.ptr(i, j, k + 1)) -
                                      BV::load(u.ptr(i, j, k - 1))) /
                                     BV(2.0 * ctx.dx[2]);
                    }
                }
                BV div = 0.0;
                BV contraction = 0.0;
                for (int a = 0; a < 3; ++a) {
                    div += grad[a][a];
                    for (int b = 0; b < 3; ++b) {
                        contraction += grad[a][b] * grad[b][a];
                    }
                }
                BV rho = 0.0;
                for (int f = 0; f < ctx.lay.num_fluids(); ++f) {
                    rho += BV::load(ctx.prim.eq(ctx.lay.cont(f)).ptr(i, j, k));
                }
                const BV out = BV(alf) * rho * (div * div + contraction);
                out.store(source.ptr(i, j, k));
            };

            int i = 0;
            for (; i + W <= ctx.local.nx; i += W) {
                block(std::integral_constant<int, W>{}, i);
            }
            for (; i < ctx.local.nx; ++i) {
                block(std::integral_constant<int, 1>{}, i);
            }
        }
    });
}

template <int W>
void sweep_weno(const RhsContext& ctx, int dim, const SweepSpan& span,
                StateArray& dq, bool accumulate) {
    using V = simd::vd<W>;
    const int n = span.c_hi - span.c_lo;
    const int neq = ctx.lay.num_eqns();
    const int r = (ctx.weno_order - 1) / 2;
    const double inv_dx = 1.0 / ctx.dx[static_cast<std::size_t>(dim)];

    const int span1 = span.t1_hi - span.t1_lo; // fast transverse
    const int span2 = span.t2_hi - span.t2_lo;

    // Pencil geometry: edge reconstruction covers cells
    // [c_lo - 1, c_hi], so each pencil spans cells
    // [c_lo - 1 - r, c_hi + r] — exactly the ghost depth the hyperbolic
    // stencil requested when the span touches the block face. row_at(c)
    // indexes a row-local cell by its *global* (block-local) coordinate.
    // x-sweeps read the pencil in place: field rows are SoA-contiguous
    // along x, so rowp[q] points straight at the backing store and the
    // divergence writes dq the same way — zero gather/scatter. y/z
    // sweeps stage tile_rows() pencils at a time through a transpose tile.
    const int row_len = n + 2 * r + 2;
    const int row0 = span.c_lo - 1 - r;
    const auto row_at = [row0](int c) { return c - row0; };
    // Edge values live in SoA rows over the cell slots [0, n+2) (slot
    // s holds cell c_lo + s - 1) and fluxes in SoA rows over the faces
    // [c_lo, c_hi] (slot f holds face c_lo + f), so reconstruction, the
    // Riemann solve, and the divergence all stream W contiguous slots per
    // step. Scalar tails reuse the same templates at W = 1 — bitwise
    // identical at any width.
    const int ncells = n + 2;
    const int nfaces = n + 1;

    // Per-row scoped zones would breach the profiler's overhead budget
    // (clock reads plus tree bookkeeping per microsecond-scale row), so
    // the row phases are timed manually with shared timestamps and
    // bulk-credited to child zones once per chunk: under the enclosing
    // weno_{x,y,z} zone on the dispatching thread, under the worker's
    // weno_{x,y,z} root zone elsewhere. Rows within a sweep are
    // homogeneous, so only every kSampleStride-th row is timed and the
    // credit is scaled up — four clock reads per row on vectorized rows
    // is itself measurable against the <2% budget.
    const bool timed = MFC_PROF_COMPILED != 0 && prof::enabled();

    const bool direct = dim == 0; // unit-stride: read/write fields in place
    const int tmax = direct ? 1 : exec::tile_rows();
    const int prim_pitch = tile_pitch(row_len);
    const int dq_pitch = tile_pitch(n);

    const long long rows_total = static_cast<long long>(span1) * span2;
    exec::parallel_for(rhs_zone::weno[dim], 0, rows_total,
                       [&](long long lo, long long hi) {
        exec::Arena::Frame frame(exec::scratch_arena());
        // Transpose tiles (transverse sweeps only): equation q's pencil b
        // lives at tile + (q * tmax + b) * pitch.
        double* prim_tile =
            direct ? nullptr
                   : frame.doubles(static_cast<std::size_t>(neq) * tmax *
                                   prim_pitch);
        double* dq_tile =
            direct ? nullptr
                   : frame.doubles(static_cast<std::size_t>(neq) * tmax *
                                   dq_pitch);
        // Edge values at cells [c_lo - 1, c_hi] and fluxes/velocities at
        // the faces [c_lo, c_hi]; face f separates cells f-1 and f.
        double* edge_left =
            frame.doubles(static_cast<std::size_t>(ncells) * neq);
        double* edge_right =
            frame.doubles(static_cast<std::size_t>(ncells) * neq);
        double* flux_row =
            frame.doubles(static_cast<std::size_t>(nfaces) * neq);
        double* uface_row = frame.doubles(static_cast<std::size_t>(nfaces));

        std::int64_t recon_ns = 0;
        std::int64_t riemann_ns = 0;
        std::int64_t div_ns = 0;
        std::int64_t chunk_t0 = 0;
        if (timed) chunk_t0 = prof::clock_ns();

        for (long long t = lo; t < hi;) {
            const int t1 = span.t1_lo + static_cast<int>(t % span1);
            const int t2 = span.t2_lo + static_cast<int>(t / span1);
            // Tile height: up to tmax pencils, clipped to the t1
            // line and to this chunk (chunks are partition-independent
            // per-pencil work, so clipping only regroups pure copies).
            const int tb =
                direct ? 1
                       : static_cast<int>(std::min<long long>(
                             std::min<long long>(tmax, span1 - t % span1),
                             hi - t));

            if (!direct) {
                for (int q = 0; q < neq; ++q) {
                    transpose_in(ctx.prim.eq(q), dim, row0, t1, t2, row_len, tb,
                                 prim_tile + static_cast<std::size_t>(q) *
                                                 tmax * prim_pitch,
                                 prim_pitch);
                }
                if (accumulate) {
                    for (int q = 0; q < neq; ++q) {
                        transpose_in(dq.eq(q), dim, span.c_lo, t1, t2, n, tb,
                                     dq_tile + static_cast<std::size_t>(q) *
                                                   tmax * dq_pitch,
                                     dq_pitch);
                    }
                }
            }

            for (int b = 0; b < tb; ++b) {
            const bool sample = timed && (t + b) % kSampleStride == 0;
            std::int64_t t_start = 0;
            std::int64_t t_mid = 0;
            if (sample) t_start = prof::clock_ns();

            // Per-equation pencil pointers: straight into the field for
            // x-sweeps, into the transpose tile for y/z.
            const double* rowp[kMaxEqns];
            double* dqp[kMaxEqns];
            if (direct) {
                int i0 = 0, j0 = 0, k0 = 0;
                cell_of(dim, span.c_lo, t1, t2, i0, j0, k0);
                for (int q = 0; q < neq; ++q) {
                    rowp[q] = ctx.prim.eq(q).ptr(row0, t1, t2);
                    dqp[q] = dq.eq(q).ptr(i0, j0, k0);
                }
            } else {
                for (int q = 0; q < neq; ++q) {
                    rowp[q] = prim_tile +
                              static_cast<std::size_t>(q * tmax + b) *
                                  prim_pitch;
                    dqp[q] = dq_tile + static_cast<std::size_t>(q * tmax + b) *
                                           dq_pitch;
                }
            }

            // Edge reconstruction for cells [c_lo - 1, c_hi] (slots
            // [0, ncells)), W cells per step straight off the contiguous
            // pencil: slot s is cell c_lo + s - 1, whose stencil center
            // sits at row index s + r.
            for (int q = 0; q < neq; ++q) {
                const double* rq = rowp[q];
                double* el = edge_left + static_cast<std::size_t>(q) * ncells;
                double* er = edge_right + static_cast<std::size_t>(q) * ncells;
                int s = 0;
                for (; s + W <= ncells; s += W) {
                    V l, rt;
                    weno_edges_v<W>(rq + s + r, ctx.weno_order, ctx.weno_eps, l,
                                    rt, ctx.weno_variant);
                    l.store(el + s);
                    rt.store(er + s);
                }
                for (; s < ncells; ++s) {
                    simd::vd<1> l, rt;
                    weno_edges_v<1>(rq + s + r, ctx.weno_order, ctx.weno_eps, l,
                                    rt, ctx.weno_variant);
                    l.store(el + s);
                    rt.store(er + s);
                }
            }

            // Positivity safeguard: at severely under-resolved fronts
            // high-order edge values can undershoot into negative density
            // or pressure; fall back to the (positive) cell average for
            // this cell, preserving design order where the solution is
            // resolved. For stiffened fluids the physical bound is
            // p > -pi_inf of the mixture (c^2 > 0), not p > 0. The
            // scalar if becomes a mask + select per equation.
            const auto positivity_block = [&](auto wtag, int s) {
                constexpr int BW = decltype(wtag)::value;
                using BV = simd::vd<BW>;
                BV rho_l = 0.0, rho_r = 0.0;
                for (int f = 0; f < ctx.lay.num_fluids(); ++f) {
                    const auto co = static_cast<std::size_t>(ctx.lay.cont(f)) *
                                    ncells;
                    rho_l += BV::load(edge_left + co + s);
                    rho_r += BV::load(edge_right + co + s);
                }
                BV eL[kMaxEqns], eR[kMaxEqns];
                for (int f = 0; f < ctx.lay.num_adv(); ++f) {
                    const auto ao = static_cast<std::size_t>(ctx.lay.adv(f)) *
                                    ncells;
                    eL[ctx.lay.adv(f)] = BV::load(edge_left + ao + s);
                    eR[ctx.lay.adv(f)] = BV::load(edge_right + ao + s);
                }
                const auto eo = static_cast<std::size_t>(ctx.lay.energy()) *
                                ncells;
                eL[ctx.lay.energy()] = BV::load(edge_left + eo + s);
                eR[ctx.lay.energy()] = BV::load(edge_right + eo + s);
                const MixtureV<BW> mL =
                    mixture_at_v<BW>(ctx.lay, ctx.fluids, eL);
                const MixtureV<BW> mR =
                    mixture_at_v<BW>(ctx.lay, ctx.fluids, eR);
                const int qe = ctx.lay.energy();
                const auto ok_l = (eL[qe] + mL.pi_inf()) > BV(0.0);
                const auto ok_r = (eR[qe] + mR.pi_inf()) > BV(0.0);
                const auto bad = rho_l <= BV(0.0) || rho_r <= BV(0.0) ||
                                 !ok_l || !ok_r;
                if (!simd::any(bad)) return;
                for (int q = 0; q < neq; ++q) {
                    const BV v = BV::load(rowp[q] + s + r);
                    double* el =
                        edge_left + static_cast<std::size_t>(q) * ncells + s;
                    double* er =
                        edge_right + static_cast<std::size_t>(q) * ncells + s;
                    simd::select(bad, v, BV::load(el)).store(el);
                    simd::select(bad, v, BV::load(er)).store(er);
                }
            };
            {
                int s = 0;
                for (; s + W <= ncells; s += W) {
                    positivity_block(std::integral_constant<int, W>{}, s);
                }
                for (; s < ncells; ++s) {
                    positivity_block(std::integral_constant<int, 1>{}, s);
                }
            }

            std::int64_t t_recon = 0;
            if (sample) {
                t_recon = prof::clock_ns();
                recon_ns += t_recon - t_start;
            }

            // Riemann fluxes at faces [c_lo, c_hi], W faces per step.
            // Face slot f is face c_lo + f, separating cell slots f and
            // f + 1: its left state is the right edge at slot f and its
            // right state the left edge at slot f + 1.
            {
                V pl[kMaxEqns], pr[kMaxEqns], fx[kMaxEqns];
                simd::vd<1> pl1[kMaxEqns], pr1[kMaxEqns], fx1[kMaxEqns];
                int f = 0;
                for (; f + W <= nfaces; f += W) {
                    for (int q = 0; q < neq; ++q) {
                        const auto qo = static_cast<std::size_t>(q) * ncells;
                        pl[q] = V::load(edge_right + qo + f);
                        pr[q] = V::load(edge_left + qo + f + 1);
                    }
                    const V uf = solve_riemann_v<W>(
                        ctx.riemann, ctx.lay, ctx.fluids, pl, pr, dim, fx);
                    for (int q = 0; q < neq; ++q) {
                        fx[q].store(flux_row +
                                    static_cast<std::size_t>(q) * nfaces + f);
                    }
                    uf.store(uface_row + f);
                }
                for (; f < nfaces; ++f) {
                    for (int q = 0; q < neq; ++q) {
                        const auto qo = static_cast<std::size_t>(q) * ncells;
                        pl1[q] = simd::vd<1>::load(edge_right + qo + f);
                        pr1[q] = simd::vd<1>::load(edge_left + qo + f + 1);
                    }
                    const simd::vd<1> uf = solve_riemann_v<1>(
                        ctx.riemann, ctx.lay, ctx.fluids, pl1, pr1, dim, fx1);
                    for (int q = 0; q < neq; ++q) {
                        fx1[q].store(flux_row +
                                     static_cast<std::size_t>(q) * nfaces + f);
                    }
                    uf.store(uface_row + f);
                }
            }
            if (sample) {
                t_mid = prof::clock_ns();
                riemann_ns += t_mid - t_recon;
            }

            // Flux divergence and non-conservative sources, written
            // through the per-equation pencil pointers (contiguous in
            // both the direct and the tiled case).
            {
                const double* rowc[kMaxEqns];
                for (int q = 0; q < neq; ++q) {
                    rowc[q] = rowp[q] + row_at(span.c_lo);
                }
                divergence_cells<W>(ctx.lay, accumulate, n, neq, inv_dx, rowc,
                                    flux_row, nfaces, uface_row, dqp);
            }
            if (sample) div_ns += prof::clock_ns() - t_mid;
            } // for b

            if (!direct) {
                for (int q = 0; q < neq; ++q) {
                    transpose_out(dq.eq(q), dim, span.c_lo, t1, t2, n, tb,
                                  dq_tile + static_cast<std::size_t>(q) *
                                                tmax * dq_pitch,
                                  dq_pitch);
                }
            }
            t += tb;
        }

        if (timed && hi > lo) {
            const char* names[3] = {rhs_zone::weno_recon, rhs_zone::riemann,
                                   rhs_zone::flux_div};
            std::int64_t ns[3] = {recon_ns, riemann_ns, div_ns};
            credit_scaled(names, ns, 3, hi - lo, sampled_rows(lo, hi),
                          prof::clock_ns() - chunk_t0);
        }
    });
}

template <int W>
void sweep_igr(const RhsContext& ctx, int dim, const SweepSpan& span,
               StateArray& dq, bool accumulate) {
    const int n = span.c_hi - span.c_lo;
    const int n_full = extent_along(ctx.local, dim);
    const int neq = ctx.lay.num_eqns();
    const double inv_dx = 1.0 / ctx.dx[static_cast<std::size_t>(dim)];

    const int span1 = span.t1_hi - span.t1_lo;
    const int span2 = span.t2_hi - span.t2_lo;

    // Face interpolation at order >= 5 reaches cells [f-2, f+1] for the
    // faces [c_lo, c_hi]: the gathered pencil spans cells
    // [c_lo - 2, c_hi + 1].
    const int row_len = n + 4;
    const int row0 = span.c_lo - 2;
    const auto row_at = [row0](int c) { return c - row0; };
    const int nfaces = n + 1;

    const bool direct = dim == 0;
    const int tmax = direct ? 1 : exec::tile_rows();
    const int prim_pitch = tile_pitch(row_len);
    const int dq_pitch = tile_pitch(n);

    const long long rows_total = static_cast<long long>(span1) * span2;
    exec::parallel_for(rhs_zone::igr[dim], 0, rows_total,
                       [&](long long lo, long long hi) {
        exec::Arena::Frame frame(exec::scratch_arena());
        double* prim_tile =
            direct ? nullptr
                   : frame.doubles(static_cast<std::size_t>(neq) * tmax *
                                   prim_pitch);
        double* dq_tile =
            direct ? nullptr
                   : frame.doubles(static_cast<std::size_t>(neq) * tmax *
                                   dq_pitch);
        // Sigma at cells [c_lo - 1, c_hi]: clamped to the interior at
        // global boundaries (homogeneous Neumann, consistent with the
        // elliptic solve), read from the exchanged rank ghost at
        // decomposition interfaces — serial and decomposed runs then see
        // the same face averages bitwise.
        double* sig_row = frame.doubles(static_cast<std::size_t>(n + 2));
        double* flux_row =
            frame.doubles(static_cast<std::size_t>(nfaces) * neq);
        double* uface_row = frame.doubles(static_cast<std::size_t>(nfaces));

        for (long long t = lo; t < hi;) {
            const int t1 = span.t1_lo + static_cast<int>(t % span1);
            const int t2 = span.t2_lo + static_cast<int>(t / span1);
            const int tb =
                direct ? 1
                       : static_cast<int>(std::min<long long>(
                             std::min<long long>(tmax, span1 - t % span1),
                             hi - t));

            if (!direct) {
                for (int q = 0; q < neq; ++q) {
                    transpose_in(ctx.prim.eq(q), dim, row0, t1, t2, row_len, tb,
                                 prim_tile + static_cast<std::size_t>(q) *
                                                 tmax * prim_pitch,
                                 prim_pitch);
                }
                if (accumulate) {
                    for (int q = 0; q < neq; ++q) {
                        transpose_in(dq.eq(q), dim, span.c_lo, t1, t2, n, tb,
                                     dq_tile + static_cast<std::size_t>(q) *
                                                   tmax * dq_pitch,
                                     dq_pitch);
                    }
                }
            }

            for (int b = 0; b < tb; ++b) {
            const double* rowp[kMaxEqns];
            double* dqp[kMaxEqns];
            if (direct) {
                int i0 = 0, j0 = 0, k0 = 0;
                cell_of(dim, span.c_lo, t1, t2, i0, j0, k0);
                for (int q = 0; q < neq; ++q) {
                    rowp[q] = ctx.prim.eq(q).ptr(row0, t1, t2);
                    dqp[q] = dq.eq(q).ptr(i0, j0, k0);
                }
            } else {
                for (int q = 0; q < neq; ++q) {
                    rowp[q] = prim_tile +
                              static_cast<std::size_t>(q * tmax + b) *
                                  prim_pitch;
                    dqp[q] = dq_tile + static_cast<std::size_t>(q * tmax + b) *
                                           dq_pitch;
                }
            }
            const int sig_lo = ctx.rank_iface[static_cast<std::size_t>(dim)][0]
                                   ? -1
                                   : 0;
            const int sig_hi = ctx.rank_iface[static_cast<std::size_t>(dim)][1]
                                   ? n_full
                                   : n_full - 1;
            for (int c = span.c_lo - 1; c <= span.c_hi; ++c) {
                int i = 0, j = 0, k = 0;
                cell_of(dim, std::clamp(c, sig_lo, sig_hi), t1 + b, t2, i, j,
                        k);
                sig_row[c - span.c_lo + 1] = ctx.sigma(i, j, k);
            }

            // Face loop, W faces per step (slot f is face c_lo + f):
            // central interpolation of the primitives, entropic pressure
            // on the face energy, then the shared central-flux + Rusanov
            // kernel.
            const auto face_block = [&](auto wtag, int f) {
                constexpr int BW = decltype(wtag)::value;
                using BV = simd::vd<BW>;
                BV pface[kMaxEqns], pl[kMaxEqns], pr[kMaxEqns];
                BV fx[kMaxEqns];
                const BV sig = BV(0.5) * (BV::load(sig_row + f) +
                                          BV::load(sig_row + f + 1));
                const int qe = ctx.lay.energy();
                for (int q = 0; q < neq; ++q) {
                    const double* base = rowp[q] + row_at(span.c_lo + f);
                    if (ctx.igr.order >= 5) {
                        pface[q] = (-BV::load(base - 2) +
                                    BV(7.0) * BV::load(base - 1) +
                                    BV(7.0) * BV::load(base) -
                                    BV::load(base + 1)) /
                                   BV(12.0);
                    } else {
                        pface[q] = BV(0.5) *
                                   (BV::load(base - 1) + BV::load(base));
                    }
                    if (q == qe) pface[q] += sig;
                    pl[q] = BV::load(base - 1);
                    pr[q] = BV::load(base);
                }
                const BV uf = igr_face_flux_v<BW>(ctx.lay, ctx.fluids, pface,
                                                  pl, pr, dim, fx);
                for (int q = 0; q < neq; ++q) {
                    fx[q].store(flux_row +
                                static_cast<std::size_t>(q) * nfaces + f);
                }
                uf.store(uface_row + f);
            };
            {
                int f = 0;
                for (; f + W <= nfaces; f += W) {
                    face_block(std::integral_constant<int, W>{}, f);
                }
                for (; f < nfaces; ++f) {
                    face_block(std::integral_constant<int, 1>{}, f);
                }
            }

            {
                const double* rowc[kMaxEqns];
                for (int q = 0; q < neq; ++q) {
                    rowc[q] = rowp[q] + row_at(span.c_lo);
                }
                divergence_cells<W>(ctx.lay, accumulate, n, neq, inv_dx, rowc,
                                    flux_row, nfaces, uface_row, dqp);
            }
            } // for b

            if (!direct) {
                for (int q = 0; q < neq; ++q) {
                    transpose_out(dq.eq(q), dim, span.c_lo, t1, t2, n, tb,
                                  dq_tile + static_cast<std::size_t>(q) *
                                                tmax * dq_pitch,
                                  dq_pitch);
                }
            }
            t += tb;
        }
    });
}

} // namespace

const RhsKernels MFC_SIMD_PER_ISA(kRhsKernels) = {
    MFC_SIMD_BY_WIDTH(convert_primitives),
    MFC_SIMD_BY_WIDTH(sweep_weno),
    MFC_SIMD_BY_WIDTH(sweep_igr),
    MFC_SIMD_BY_WIDTH(igr_source),
};

} // namespace mfc
