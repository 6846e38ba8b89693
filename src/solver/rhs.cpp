#include "solver/rhs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "exec/exec.hpp"
#include "numerics/riemann.hpp"
#include "numerics/weno.hpp"
#include "physics/characteristics.hpp"
#include "physics/flux.hpp"
#include "prof/prof.hpp"
#include "simd/simd.hpp"
#include "solver/rhs_kernels.hpp"
#include "solver/rhs_rows.hpp"

namespace mfc {

namespace rhs_zone {
const char* const weno[3] = {"weno_x", "weno_y", "weno_z"};
const char* const igr[3] = {"igr_x", "igr_y", "igr_z"};
const char* const prim_convert = "prim_convert";
const char* const igr_sigma = "igr_sigma";
const char* const weno_recon = "weno_recon";
const char* const riemann = "riemann";
const char* const flux_div = "flux_div";
} // namespace rhs_zone

namespace {

using namespace rhs_rows;

constexpr const char* kViscousZone[3] = {"viscous_x", "viscous_y",
                                         "viscous_z"};

} // namespace

int RhsEvaluator::ghost_layers_for(const CaseConfig& config) {
    const int order = config.igr.enabled ? config.igr.order : config.weno_order;
    const int hyperbolic = WenoScheme::required_ghosts(order);
    // Viscous face fluxes need cell-centered velocity gradients on both
    // sides of every interior face: two ghost layers.
    return std::max(hyperbolic, config.viscous ? 2 : 0);
}

RhsEvaluator::RhsEvaluator(const CaseConfig& config, const LocalBlock& block)
    : lay_(config.layout()),
      fluids_(config.fluids),
      grid_(config.grid),
      block_(block),
      local_(block.cells),
      ng_(ghost_layers_for(config)),
      weno_order_(config.weno_order),
      weno_eps_(config.weno_eps),
      weno_variant_(config.weno_variant),
      char_decomp_(config.char_decomp),
      monopoles_(config.monopoles),
      riemann_(config.riemann_solver),
      igr_(config.igr),
      viscous_(config.viscous),
      viscosity_(config.viscosity),
      gravity_(config.gravity) {
    MFC_REQUIRE(lay_.num_eqns() <= kMaxEqns, "too many equations");
    for (int d = 0; d < 3; ++d) dx_[static_cast<std::size_t>(d)] = config.grid.dx(d);

    prim_ = StateArray(lay_.num_eqns(), local_, ng_);
    if (igr_.enabled) {
        sigma_ = Field(local_, 1);
        igr_source_ = Field(local_, 0);
    }
}

void RhsEvaluator::compute_primitives(const StateArray& cons) {
    // The full extended box: the dimension-interleaved ghost fill leaves
    // every ghost (face, edge, and corner) valid, so primitives are
    // converted everywhere the sweeps and viscous cross-derivatives may
    // read.
    const Field& ref = prim_.eq(0);
    const int lo[3] = {-ref.gx(), -ref.gy(), -ref.gz()};
    const int hi[3] = {local_.nx + ref.gx(), local_.ny + ref.gy(),
                       local_.nz + ref.gz()};
    convert_primitives(cons, lo, hi);
}

void RhsEvaluator::convert_primitives(const StateArray& cons, const int lo[3],
                                      const int hi[3]) {
    PROF_ZONE(rhs_zone::prim_convert);
    simd::dispatch(kRhsKernels, &RhsKernels::convert_primitives)(
        context(), cons, prim_, lo, hi);
}

void RhsEvaluator::evaluate(const StateArray& cons, StateArray& dq) {
    PROF_ZONE("rhs");
    compute_primitives(cons);
    // dq zeroing invariant: the first active hyperbolic sweep *assigns*
    // the flux divergence into every interior cell of every equation
    // (accumulate == false); every later sweep and source term
    // accumulates on top. Interior cells therefore need no pre-zero pass.
    // dq ghost cells are never written by any sweep and stay at their
    // allocation value (0.0); the Runge-Kutta axpy reads them, but every
    // ghost it produces is overwritten by fill_ghosts before any stencil
    // consumes it, so no stale value can reach the interior state.
    bool accumulate = false;
    if (igr_.enabled) compute_igr_sigma();
    for (int d = 0; d < 3; ++d) {
        if (!active(local_, d)) continue;
        prof::Zone zone(igr_.enabled ? rhs_zone::igr[d] : rhs_zone::weno[d]);
        sweep_span(d, full_span(d), dq, accumulate);
        accumulate = true;
    }
    if (!accumulate) {
        // Degenerate single-cell grid: no sweep ran, so the sources below
        // still need a zeroed dq.
        for (int q = 0; q < dq.num_eqns(); ++q) dq.eq(q).fill(0.0);
    }
    apply_sources(dq);
}

void RhsEvaluator::sweep_span(int dim, const SweepSpan& span, StateArray& dq,
                              bool accumulate) {
    if (span.empty()) return;
    if (char_decomp_ && !igr_.enabled) {
        sweep_weno_char(dim, span, dq, accumulate);
        return;
    }
    simd::dispatch(kRhsKernels, igr_.enabled ? &RhsKernels::sweep_igr
                                             : &RhsKernels::sweep_weno)(
        context(), dim, span, dq, accumulate);
}

SweepSpan RhsEvaluator::full_span(int dim) const {
    SweepSpan s;
    s.c_hi = extent_along(local_, dim);
    s.t1_hi = dim == 0 ? local_.ny : local_.nx;
    s.t2_hi = dim == 2 ? local_.ny : local_.nz;
    return s;
}

bool RhsEvaluator::dim_active(int dim) const { return active(local_, dim); }

void RhsEvaluator::apply_sources(StateArray& dq) {
    if (viscous_) {
        for (int d = 0; d < 3; ++d) {
            if (!active(local_, d)) continue;
            prof::Zone zone(kViscousZone[d]);
            sweep_viscous(d, dq);
        }
    }
    const bool has_gravity =
        gravity_[0] != 0.0 || gravity_[1] != 0.0 || gravity_[2] != 0.0;
    if (has_gravity) {
        PROF_ZONE("body_forces");
        add_body_forces(dq);
    }
    if (!monopoles_.empty()) {
        PROF_ZONE("monopoles");
        add_monopole_sources(dq);
    }
}

void RhsEvaluator::add_monopole_sources(StateArray& dq) {
    // Acoustic monopoles: a Gaussian-supported sinusoidal source on the
    // energy equation,
    //   dE/dt += mag * sin(2 pi f t) * exp(-|x - loc|^2 / support^2),
    // radiating pressure waves at the mixture sound speed.
    constexpr double kTwoPi = 6.283185307179586;
    for (const CaseConfig::Monopole& m : monopoles_) {
        const double amplitude =
            m.magnitude * std::sin(kTwoPi * m.frequency * time_);
        if (amplitude == 0.0) continue;
        const double inv_s2 = 1.0 / (m.support * m.support);
        for (int k = 0; k < local_.nz; ++k) {
            for (int j = 0; j < local_.ny; ++j) {
                for (int i = 0; i < local_.nx; ++i) {
                    double r2 = 0.0;
                    const int gidx[3] = {block_.global_index(0, i),
                                         block_.global_index(1, j),
                                         block_.global_index(2, k)};
                    for (int d = 0; d < 3; ++d) {
                        if ((d == 0 ? grid_.cells.nx : d == 1 ? grid_.cells.ny
                                                              : grid_.cells.nz) == 1) {
                            continue; // inactive dimension
                        }
                        const double delta =
                            grid_.center(d, gidx[d]) -
                            m.location[static_cast<std::size_t>(d)];
                        r2 += delta * delta;
                    }
                    const double g = std::exp(-r2 * inv_s2);
                    if (g < 1e-14) continue;
                    dq.eq(lay_.energy())(i, j, k) += amplitude * g;
                }
            }
        }
    }
}

void RhsEvaluator::sweep_viscous(int dim, StateArray& dq) {
    // Diffusive flux of the compressible Navier-Stokes stress
    //   tau = mu (grad u + grad u^T - (2/3)(div u) I)
    // in dimension-split face-flux form: at each face normal to `dim`,
    // the normal derivative is a compact two-point difference and the
    // transverse derivatives are averages of centered cell gradients.
    // Momentum gains d(tau_{a,dim})/dx_dim; energy gains d(tau.u)/dx_dim.
    const int n = extent_along(local_, dim);
    const double inv_dx = 1.0 / dx(dim);
    const int dims = lay_.dims();

    const int lim_t1 = dim == 0 ? local_.ny : local_.nx;
    const int lim_t2 = dim == 2 ? local_.ny : local_.nz;

    // Cell-centered velocity gradient du_a/dx_b via central differences.
    const auto cell_grad = [&](int i, int j, int k, int a, int b) {
        const Field& u = prim_.eq(lay_.mom(a));
        switch (b) {
        case 0:
            return active(local_, 0)
                       ? (u(i + 1, j, k) - u(i - 1, j, k)) / (2.0 * dx(0))
                       : 0.0;
        case 1:
            return active(local_, 1)
                       ? (u(i, j + 1, k) - u(i, j - 1, k)) / (2.0 * dx(1))
                       : 0.0;
        default:
            return active(local_, 2)
                       ? (u(i, j, k + 1) - u(i, j, k - 1)) / (2.0 * dx(2))
                       : 0.0;
        }
    };

    const auto mixture_mu = [&](int i, int j, int k) {
        if (lay_.model() == ModelKind::Euler) {
            return viscosity_[0];
        }
        double mu = 0.0;
        for (int f = 0; f < lay_.num_fluids(); ++f) {
            mu += prim_.eq(lay_.adv(f))(i, j, k) *
                  viscosity_[static_cast<std::size_t>(f)];
        }
        return mu;
    };

    const long long rows = static_cast<long long>(lim_t1) * lim_t2;
    exec::parallel_for(kViscousZone[dim], 0, rows, [&](long long lo,
                                                       long long hi) {
        exec::Arena::Frame frame(exec::scratch_arena());
        double* mom_flux = frame.doubles(static_cast<std::size_t>((n + 1) * dims));
        double* energy_flux = frame.doubles(static_cast<std::size_t>(n + 1));

        for (long long t = lo; t < hi; ++t) {
            const int t1 = static_cast<int>(t % lim_t1);
            const int t2 = static_cast<int>(t / lim_t1);

            for (int f = 0; f <= n; ++f) {
                int il = 0, jl = 0, kl = 0, ir = 0, jr = 0, kr = 0;
                cell_of(dim, f - 1, t1, t2, il, jl, kl);
                cell_of(dim, f, t1, t2, ir, jr, kr);

                double grad[3][3];
                for (int a = 0; a < 3; ++a) {
                    for (int b = 0; b < 3; ++b) grad[a][b] = 0.0;
                }
                for (int a = 0; a < dims; ++a) {
                    for (int b = 0; b < dims; ++b) {
                        if (b == dim) {
                            // Compact normal derivative across the face.
                            const Field& u = prim_.eq(lay_.mom(a));
                            grad[a][b] =
                                (u(ir, jr, kr) - u(il, jl, kl)) * inv_dx;
                        } else {
                            grad[a][b] = 0.5 * (cell_grad(il, jl, kl, a, b) +
                                                cell_grad(ir, jr, kr, a, b));
                        }
                    }
                }
                double div = 0.0;
                for (int a = 0; a < dims; ++a) div += grad[a][a];

                const double mu = 0.5 * (mixture_mu(il, jl, kl) +
                                         mixture_mu(ir, jr, kr));
                double u_face[3] = {0.0, 0.0, 0.0};
                for (int a = 0; a < dims; ++a) {
                    u_face[a] = 0.5 * (prim_.eq(lay_.mom(a))(il, jl, kl) +
                                       prim_.eq(lay_.mom(a))(ir, jr, kr));
                }

                double tau_dot_u = 0.0;
                for (int a = 0; a < dims; ++a) {
                    double tau = mu * (grad[a][dim] + grad[dim][a]);
                    if (a == dim) tau -= (2.0 / 3.0) * mu * div;
                    mom_flux[static_cast<std::size_t>(f * dims + a)] = tau;
                    tau_dot_u += tau * u_face[a];
                }
                energy_flux[static_cast<std::size_t>(f)] = tau_dot_u;
            }

            for (int c = 0; c < n; ++c) {
                int i = 0, j = 0, k = 0;
                cell_of(dim, c, t1, t2, i, j, k);
                for (int a = 0; a < dims; ++a) {
                    dq.eq(lay_.mom(a))(i, j, k) +=
                        (mom_flux[static_cast<std::size_t>((c + 1) * dims + a)] -
                         mom_flux[static_cast<std::size_t>(c * dims + a)]) *
                        inv_dx;
                }
                dq.eq(lay_.energy())(i, j, k) +=
                    (energy_flux[static_cast<std::size_t>(c + 1)] -
                     energy_flux[static_cast<std::size_t>(c)]) *
                    inv_dx;
            }
        }
    });
}

void RhsEvaluator::add_body_forces(StateArray& dq) {
    // Gravity: d(rho u)/dt += rho g, dE/dt += rho u . g.
    for (int k = 0; k < local_.nz; ++k) {
        for (int j = 0; j < local_.ny; ++j) {
            for (int i = 0; i < local_.nx; ++i) {
                double rho = 0.0;
                for (int f = 0; f < lay_.num_fluids(); ++f) {
                    rho += prim_.eq(lay_.cont(f))(i, j, k);
                }
                double u_dot_g = 0.0;
                for (int d = 0; d < lay_.dims(); ++d) {
                    const double g = gravity_[static_cast<std::size_t>(d)];
                    if (g == 0.0) continue;
                    dq.eq(lay_.mom(d))(i, j, k) += rho * g;
                    u_dot_g += prim_.eq(lay_.mom(d))(i, j, k) * g;
                }
                dq.eq(lay_.energy())(i, j, k) += rho * u_dot_g;
            }
        }
    }
}

void RhsEvaluator::sweep_weno_char(int dim, const SweepSpan& span,
                                   StateArray& dq, bool accumulate) {
    const int n = span.c_hi - span.c_lo;
    const int neq = lay_.num_eqns();
    const int r = (weno_order_ - 1) / 2;
    const double inv_dx = 1.0 / dx(dim);

    const int span1 = span.t1_hi - span.t1_lo; // fast transverse
    const int span2 = span.t2_hi - span.t2_lo;

    const int row_len = n + 2 * r + 2;
    const int row0 = span.c_lo - 1 - r;
    const auto row_at = [row0](int c) { return c - row0; };
    const int nfaces = n + 1;

    const bool timed = MFC_PROF_COMPILED != 0 && prof::enabled();

    const bool direct = dim == 0;
    const int tmax = direct ? 1 : exec::tile_rows();
    const int prim_pitch = tile_pitch(row_len);
    const int dq_pitch = tile_pitch(n);

    const long long rows_total = static_cast<long long>(span1) * span2;
    exec::parallel_for(rhs_zone::weno[dim], 0, rows_total, [&](long long lo,
                                                          long long hi) {
        exec::Arena::Frame frame(exec::scratch_arena());
        double* prim_tile =
            direct ? nullptr
                   : frame.doubles(static_cast<std::size_t>(neq) * tmax *
                                   prim_pitch);
        double* dq_tile =
            direct ? nullptr
                   : frame.doubles(static_cast<std::size_t>(neq) * tmax *
                                   dq_pitch);
        // Fluxes stay SoA over faces to share the divergence kernel with
        // the component-wise path.
        double* flux_row =
            frame.doubles(static_cast<std::size_t>(nfaces) * neq);
        double* uface_row = frame.doubles(static_cast<std::size_t>(nfaces));

        std::int64_t recon_ns = 0;
        std::int64_t div_ns = 0;
        std::int64_t chunk_t0 = 0;
        if (timed) chunk_t0 = prof::clock_ns();

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
                    transpose_in(prim_.eq(q), dim, row0, t1, t2, row_len, tb,
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

            const double* rowp[kMaxEqns];
            double* dqp[kMaxEqns];
            if (direct) {
                int i0 = 0, j0 = 0, k0 = 0;
                cell_of(dim, span.c_lo, t1, t2, i0, j0, k0);
                for (int q = 0; q < neq; ++q) {
                    rowp[q] = prim_.eq(q).ptr(row0, t1, t2);
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

            // Characteristic-wise reconstruction (Euler): at each face
            // project the conservative stencil onto the flux Jacobian's
            // eigenvectors at the face-average state, reconstruct the two
            // adjacent cells' edge values in characteristic space, and
            // project back. Projection, reconstruction, and the Riemann
            // solve are interleaved per face, so one segment covers the
            // fused loop.
            double prim_avg[kMaxEqns];
            double cons_stencil[8][kMaxEqns]; // cells f-1-r .. f+r
            double w_stencil[8][kMaxEqns];
            double w_edge[kMaxEqns];
            double cons_edge[kMaxEqns];
            double prim_l[kMaxEqns];
            double prim_r[kMaxEqns];
            double face_flux[kMaxEqns];
            double row[8];
            for (int f = span.c_lo; f <= span.c_hi; ++f) {
                const int fs = f - span.c_lo; // local face slot
                for (int q = 0; q < neq; ++q) {
                    const double* rq = rowp[q];
                    prim_avg[q] = 0.5 * (rq[row_at(f - 1)] + rq[row_at(f)]);
                }
                const EulerEigenvectors eig =
                    euler_eigenvectors(lay_, fluids_, prim_avg, dim);

                const int cells = 2 * r + 2; // f-1-r .. f+r
                double point[kMaxEqns];
                for (int s = 0; s < cells; ++s) {
                    for (int q = 0; q < neq; ++q) {
                        point[q] = rowp[q][row_at(f - 1 - r + s)];
                    }
                    prim_to_cons(lay_, fluids_, point, cons_stencil[s]);
                    eig.to_characteristic(cons_stencil[s], w_stencil[s]);
                }

                // Cell f-1 sits at stencil slot r; cell f at r+1.
                for (int q = 0; q < neq; ++q) {
                    for (int s = 0; s < cells; ++s) row[s] = w_stencil[s][q];
                    double el = 0.0, er = 0.0;
                    weno_edges(row + r, weno_order_, weno_eps_, el, er,
                               weno_variant_);
                    w_edge[q] = er; // right edge of cell f-1
                }
                eig.from_characteristic(w_edge, cons_edge);
                cons_to_prim(lay_, fluids_, cons_edge, prim_l);
                for (int q = 0; q < neq; ++q) {
                    for (int s = 0; s < cells; ++s) row[s] = w_stencil[s][q];
                    double el = 0.0, er = 0.0;
                    weno_edges(row + r + 1, weno_order_, weno_eps_, el, er,
                               weno_variant_);
                    w_edge[q] = el; // left edge of cell f
                }
                eig.from_characteristic(w_edge, cons_edge);
                cons_to_prim(lay_, fluids_, cons_edge, prim_r);

                // Positivity fallback to the adjacent cell averages.
                if (prim_l[lay_.cont(0)] <= 0.0 ||
                    prim_l[lay_.energy()] + fluids_[0].pi_inf <= 0.0) {
                    for (int q = 0; q < neq; ++q) {
                        prim_l[q] = rowp[q][row_at(f - 1)];
                    }
                }
                if (prim_r[lay_.cont(0)] <= 0.0 ||
                    prim_r[lay_.energy()] + fluids_[0].pi_inf <= 0.0) {
                    for (int q = 0; q < neq; ++q) {
                        prim_r[q] = rowp[q][row_at(f)];
                    }
                }

                uface_row[fs] = solve_riemann(riemann_, lay_, fluids_, prim_l,
                                              prim_r, dim, face_flux);
                for (int q = 0; q < neq; ++q) {
                    flux_row[static_cast<std::size_t>(q) * nfaces + fs] =
                        face_flux[q];
                }
            }
            if (sample) {
                t_mid = prof::clock_ns();
                recon_ns += t_mid - t_start; // credited as char_riemann
            }

            {
                const double* rowc[kMaxEqns];
                for (int q = 0; q < neq; ++q) {
                    rowc[q] = rowp[q] + row_at(span.c_lo);
                }
                divergence_cells<1>(lay_, accumulate, n, neq, inv_dx, rowc,
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
            const char* names[2] = {"char_riemann", rhs_zone::flux_div};
            std::int64_t ns[2] = {recon_ns, div_ns};
            credit_scaled(names, ns, 2, hi - lo, sampled_rows(lo, hi),
                          prof::clock_ns() - chunk_t0);
        }
    });
}

void RhsEvaluator::compute_igr_sigma() {
    // Source: alf * rho * [ (div u)^2 + tr((grad u)^2) ] from centered
    // velocity gradients; ghost layers supply the one-sided neighbors.
    // Rows along x run W cells per step (ghosts make every i±1 read
    // valid); the scalar tail reuses the same expressions at W = 1.
    PROF_ZONE(rhs_zone::igr_sigma);
    simd::dispatch(kRhsKernels, &RhsKernels::igr_source)(context(),
                                                          igr_source_);
    igr_elliptic_solve(igr_, igr_source_, dx(0), sigma_warm_, sigma_,
                       rank_iface_, sigma_exchange_);
    sigma_warm_ = true;
}

RhsContext RhsEvaluator::context() const {
    return RhsContext{lay_,   fluids_,     local_,      dx_,
                      prim_,  sigma_,      igr_,        rank_iface_,
                      weno_order_, weno_eps_, weno_variant_, riemann_};
}

} // namespace mfc
