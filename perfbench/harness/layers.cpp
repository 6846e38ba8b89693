#include "layers.hpp"

#include <algorithm>
#include <cmath>

#include "comm/comm.hpp"
#include "grid/halo.hpp"
#include "numerics/cfl.hpp"
#include "numerics/time_stepper.hpp"
#include "perf/ubench.hpp"
#include "solver/boundary.hpp"
#include "solver/rhs.hpp"
#include "solver/simulation.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

double LayerAccum::per(const std::string& name) const {
    const auto t = ns.find(name);
    const auto w = work.find(name);
    if (t == ns.end() || w == work.end() || w->second <= 0.0) return 0.0;
    return t->second / w->second;
}

void LayerAccum::merge(const LayerAccum& other) {
    for (const auto& [k, v] : other.ns) ns[k] += v;
    for (const auto& [k, v] : other.work) work[k] += v;
}

std::array<int, 3> cart_dims(const mfc::CaseConfig& cfg, int nranks) {
    const int ndims = (cfg.grid.cells.nx > 1 ? 1 : 0) + (cfg.grid.cells.ny > 1 ? 1 : 0) +
                      (cfg.grid.cells.nz > 1 ? 1 : 0);
    return mfc::comm::dims_create(nranks, std::max(ndims, 1));
}

std::array<bool, 3> cart_periodic(const mfc::CaseConfig& cfg) {
    std::array<bool, 3> periodic{};
    for (std::size_t d = 0; d < 3; ++d) {
        periodic[d] = cfg.bc[d][0] == mfc::BcType::Periodic;
    }
    return periodic;
}

namespace {

int extent(const mfc::Extents& e, int d) { return d == 0 ? e.nx : d == 1 ? e.ny : e.nz; }

const char* const kSweepName[3] = {"sweep_x", "sweep_y", "sweep_z"};
const char* const kSweepSpan[3] = {"numerics.sweep_span_x", "numerics.sweep_span_y",
                                   "numerics.sweep_span_z"};

} // namespace

void exchange_sigma_faces(mfc::comm::CartComm& cart, const mfc::LocalBlock& block,
                          const std::array<std::array<bool, 2>, 3>& iface,
                          mfc::Field& s) {
    mfc::comm::Communicator& comm = cart.comm();
    const int n[3] = {block.cells.nx, block.cells.ny, block.cells.nz};
    for (int d = 0; d < 3; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const bool lo = iface[sd][0];
        const bool hi = iface[sd][1];
        if (!lo && !hi) continue;
        const int d1 = d == 0 ? 1 : 0;
        const int d2 = d == 2 ? 1 : 2;
        const std::size_t count =
            static_cast<std::size_t>(n[d1]) * static_cast<std::size_t>(n[d2]);
        const auto plane = [&](int c, bool to_buf, double* buf) {
            std::size_t at = 0;
            int idx[3];
            idx[d] = c;
            for (int b = 0; b < n[d2]; ++b) {
                idx[d2] = b;
                for (int a = 0; a < n[d1]; ++a) {
                    idx[d1] = a;
                    double& cell = s(idx[0], idx[1], idx[2]);
                    if (to_buf) {
                        buf[at++] = cell;
                    } else {
                        cell = buf[at++];
                    }
                }
            }
        };
        std::vector<double> buf(count);
        if (hi) {
            plane(n[d] - 1, true, buf.data());
            comm.send_doubles(cart.neighbor(d, +1), 930 + 2 * d, buf.data(), count);
        }
        if (lo) {
            plane(0, true, buf.data());
            comm.send_doubles(cart.neighbor(d, -1), 931 + 2 * d, buf.data(), count);
        }
        if (lo) {
            comm.recv_doubles(cart.neighbor(d, -1), 930 + 2 * d, buf.data(), count);
            plane(-1, false, buf.data());
        }
        if (hi) {
            comm.recv_doubles(cart.neighbor(d, +1), 931 + 2 * d, buf.data(), count);
            plane(n[d], false, buf.data());
        }
    }
}

void replay_solver_layers(const mfc::CaseConfig& cfg, const mfc::LocalBlock& block,
                          const mfc::StateArray& q, mfc::comm::CartComm* cart,
                          int reps, LayerAccum& acc) {
    const mfc::EquationLayout lay = cfg.layout();
    const double units = static_cast<double>(block.cells.cells()) * lay.num_eqns();
    mfc::RhsEvaluator ev(cfg, block);
    mfc::PhysicalFaces faces;
    std::array<std::array<bool, 2>, 3> iface{};
    if (cart != nullptr) {
        for (int d = 0; d < 3; ++d) {
            const auto s = static_cast<std::size_t>(d);
            faces.face[s][0] = cart->neighbor(d, -1) == mfc::comm::kProcNull;
            faces.face[s][1] = cart->neighbor(d, +1) == mfc::comm::kProcNull;
            iface[s][0] = block.offset[s] > 0;
            iface[s][1] = block.offset[s] + extent(block.cells, d) <
                          extent(cfg.grid.cells, d);
        }
        if (cfg.igr.enabled) {
            ev.set_rank_interfaces(iface, [cart, &block, &iface](mfc::Field& s) {
                exchange_sigma_faces(*cart, block, iface, s);
            });
        }
    }
    mfc::StateArray w = q;
    mfc::StateArray w1 = q;
    mfc::StateArray dq = q;
    const mfc::Field& ref = w.eq(0);
    const int lo[3] = {-ref.gx(), -ref.gy(), -ref.gz()};
    const int hi[3] = {block.cells.nx + ref.gx(), block.cells.ny + ref.gy(),
                       block.cells.nz + ref.gz()};
    for (int r = 0; r < reps; ++r) {
        if (cart != nullptr) {
            for (int d = 0; d < 3; ++d) {
                // One ghost fill per stage: the work unit counts once.
                const double u = d == 0 ? units : 0.0;
                acc.add("halo", timed("grid.exchange_halos_dim", [&] {
                            mfc::exchange_halos_dim(*cart, w, d);
                        }), u);
                acc.add("bc", timed("solver.apply_boundary_conditions_dim", [&] {
                            mfc::apply_boundary_conditions_dim(lay, cfg.bc, faces, false,
                                                               d, w);
                        }), u);
            }
        } else {
            acc.add("bc", timed("solver.apply_boundary_conditions", [&] {
                        mfc::apply_boundary_conditions(lay, cfg.bc, faces, true, w);
                    }), units);
        }
        acc.add("prim_convert", timed("solver.convert_primitives", [&] {
                    ev.convert_primitives(w, lo, hi);
                }), units);
        if (cfg.igr.enabled) {
            acc.add("igr_sigma", timed("numerics.compute_igr_sigma", [&] {
                        ev.compute_igr_sigma();
                    }), units);
        }
        bool accumulate = false;
        for (int d = 0; d < 3; ++d) {
            if (!ev.dim_active(d)) continue;
            acc.add(kSweepName[d], timed(kSweepSpan[d], [&] {
                        ev.sweep_span(d, ev.full_span(d), dq, accumulate);
                    }), units);
            accumulate = true;
        }
        acc.add("rk_combine", timed("numerics.linear_combine", [&] {
                    mfc::linear_combine(0.75, w, 0.25, w, 0.25 * cfg.dt, dq, w1);
                }), units);
        acc.add("rk_bytes", 0.0, 4.0 * 8.0 * units);
        acc.add("replay", 0.0, units);
        acc.add("wave_speed", timed("numerics.max_wave_speed", [&] {
                    static_cast<void>(
                        mfc::max_wave_speed(lay, cfg.fluids, ev.primitives()));
                }), units);
    }
}

double attributed_ns(const LayerAccum& acc) {
    // Per RK stage: ghost fill, primitives, [sigma], sweeps, and one axpy,
    // over the work of every replay (cases without a y or z sweep count
    // in the denominator too).
    double ns = 0.0;
    for (const char* k : {"halo", "bc", "prim_convert", "igr_sigma", "sweep_x", "sweep_y",
                          "sweep_z", "rk_combine"}) {
        const auto t = acc.ns.find(k);
        if (t != acc.ns.end()) ns += t->second;
    }
    const auto w = acc.work.find("replay");
    return w == acc.work.end() || w->second <= 0.0 ? 0.0 : ns / w->second;
}

HaloProbe probe_halo(const mfc::CaseConfig& cfg, int reps) {
    HaloProbe out;
    mfc::comm::World world(2);
    std::array<double, 2> exch{}, pack{}, unpack{}, values{}, packed{};
    double step_bytes = 0.0, step_msgs = 0.0;
    world.run([&](mfc::comm::Communicator& comm) {
        trace::set_thread(comm.rank() + 1);
        const auto r = static_cast<std::size_t>(comm.rank());
        mfc::comm::CartComm cart(comm, cart_dims(cfg, 2), cart_periodic(cfg));
        mfc::Simulation sim(cfg, cart);
        sim.initialize();
        sim.step(); // warm-up: first touch of the scratch state
        comm.barrier();
        const mfc::comm::Traffic t0 = world.traffic();
        comm.barrier();
        sim.step();
        comm.barrier();
        if (comm.rank() == 0) {
            const mfc::comm::Traffic t1 = world.traffic();
            step_bytes = static_cast<double>(t1.bytes - t0.bytes);
            step_msgs = static_cast<double>(t1.messages - t0.messages);
        }
        comm.barrier();
        mfc::StateArray& q = sim.state();
        for (int rep = 0; rep < reps; ++rep) {
            comm.barrier();
            exch[r] += timed("grid.exchange_halos", [&] { mfc::exchange_halos(cart, q); });
            for (int d = 0; d < 3; ++d) {
                const std::size_t slab = mfc::halo_slab_doubles(q, d);
                if (slab == 0) continue;
                for (const int side : {-1, +1}) {
                    if (cart.neighbor(d, side) == mfc::comm::kProcNull) continue;
                    values[r] += static_cast<double>(slab);
                    std::vector<double> buf(slab / static_cast<std::size_t>(q.num_eqns()));
                    for (int e = 0; e < q.num_eqns(); ++e) {
                        pack[r] += timed("grid.pack_face", [&] {
                            mfc::pack_face(q.eq(e), d, side, true, buf.data());
                        });
                        unpack[r] += timed("grid.unpack_face", [&] {
                            mfc::unpack_face(q.eq(e), d, side, false, buf.data());
                        });
                        packed[r] += static_cast<double>(buf.size());
                    }
                }
            }
        }
        trace::set_thread(0);
    });
    const std::size_t slow = exch[0] >= exch[1] ? 0 : 1;
    const double per_value = std::max(values[slow], 1.0);
    out.exchange_ns = exch[slow] / per_value;
    out.pack_ns = pack[slow] / std::max(packed[slow], 1.0);
    out.unpack_ns = unpack[slow] / std::max(packed[slow], 1.0);
    out.wait_ns = (exch[slow] - pack[slow] - unpack[slow]) / per_value;
    out.bytes_per_step = step_bytes;
    out.messages_per_step = step_msgs;
    const double hi = std::max(exch[0], exch[1]);
    out.skew_pct = hi > 0.0 ? 100.0 * (hi - std::min(exch[0], exch[1])) / hi : 0.0;
    return out;
}

double host_triad_gbs() {
    // Three arrays of 14.7 M doubles: 352 MB together, above 3x the
    // 105 MiB LLC of the reference host. Best of five passes.
    const std::size_t n = std::size_t{14} * 1024 * 1024 + 700 * 1024;
    std::vector<double> a(n, 1.0), b(n, 2.0), c(n, 0.5);
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        const double t = timed("host.triad", [&] {
            double* __restrict pa = a.data();
            const double* __restrict pb = b.data();
            const double* __restrict pc = c.data();
            for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + 0.5 * pc[i];
        });
        best = std::min(best, t);
    }
    if (!(a[n / 2] == 2.25)) return 0.0;
    return 3.0 * 8.0 * static_cast<double>(n) / best;
}

double host_fma_gflops() {
    // Eight independent 4-wide mul+add chains in GCC vector extensions, the
    // same portable vector form the program's simd layer compiles to; all
    // chains stay in registers. Best of five.
    using v4 = double __attribute__((vector_size(32)));
    constexpr long long kIters = 2 * 1000 * 1000;
    double best = 1e300;
    double sink = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        v4 x0 = {1.0, 1.1, 1.2, 1.3}, x1 = x0 + 0.01, x2 = x0 + 0.02, x3 = x0 + 0.03;
        v4 x4 = x0 + 0.04, x5 = x0 + 0.05, x6 = x0 + 0.06, x7 = x0 + 0.07;
        const v4 m = {0.999999, 0.999999, 0.999999, 0.999999};
        const v4 a = {1e-7, 1e-7, 1e-7, 1e-7};
        const double t = timed("host.fma", [&] {
            for (long long i = 0; i < kIters; ++i) {
                x0 = x0 * m + a;
                x1 = x1 * m + a;
                x2 = x2 * m + a;
                x3 = x3 * m + a;
                x4 = x4 * m + a;
                x5 = x5 * m + a;
                x6 = x6 * m + a;
                x7 = x7 * m + a;
            }
        });
        const v4 sum = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7;
        sink += sum[0] + sum[1] + sum[2] + sum[3];
        best = std::min(best, t);
    }
    if (!std::isfinite(sink)) return 0.0;
    return 2.0 * 8.0 * 4.0 * static_cast<double>(kIters) / best;
}

void ubench_metrics(Result& r, double triad_gbs, double fma_gflops) {
    for (const char* k : {"weno5_js", "riemann_hllc", "igr_flux", "igr_jacobi",
                          "prim_convert", "rk_axpy", "transpose_tile", "halo_pack"}) {
        mfc::perf::UbenchResult u;
        timed("perf.run_ubench", [&] { u = mfc::perf::run_ubench(k); });
        const double ns = u.ns_per_cell;
        const double gflops = ns > 0.0 ? u.cost.flops_per_cell / ns : 0.0;
        // Roofline time per cell against this host's measured ceilings.
        const double roof_ns = std::max(u.cost.bytes_per_cell / triad_gbs,
                                        u.cost.flops_per_cell / fma_gflops);
        const std::string base = std::string("simd.") + k;
        r.set(base + "_ns", ns, "ns/cell");
        // Pure data movers (transpose, pack) do no floating-point work.
        if (u.cost.flops_per_cell > 0.0) r.set(base + "_gflops", gflops, "GFLOP/s");
        r.set(base + "_roof_frac", ns > 0.0 ? roof_ns / ns : 0.0, "fraction");
    }
    r.set("host.triad_gbs", triad_gbs, "GB/s");
    r.set("host.fma_gflops", fma_gflops, "GFLOP/s");
}

void solver_layer_metrics(Result& r, const LayerAccum& acc, double step_ns) {
    r.set("solver.prim_convert_ns", acc.per("prim_convert"), "ns/pt/eq");
    r.set("solver.bc_ns", acc.per("bc"), "ns/pt/eq");
    r.set("numerics.sweep_x_ns", acc.per("sweep_x"), "ns/pt/eq");
    r.set("numerics.sweep_y_ns", acc.per("sweep_y"), "ns/pt/eq");
    r.set("numerics.sweep_z_ns", acc.per("sweep_z"), "ns/pt/eq");
    r.set("numerics.igr_sigma_ns", acc.per("igr_sigma"), "ns/pt/eq");
    r.set("numerics.rk_combine_ns", acc.per("rk_combine"), "ns/pt/eq");
    const auto t = acc.ns.find("rk_combine");
    const auto b = acc.work.find("rk_bytes");
    r.set("numerics.rk_combine_gbs",
          t != acc.ns.end() && b != acc.work.end() && t->second > 0.0
              ? b->second / t->second
              : 0.0,
          "GB/s");
    r.set("numerics.wave_speed_ns", acc.per("wave_speed"), "ns/pt/eq");
    r.set("solver.step_ns", step_ns, "ns/pt/eq/rhs");
    r.set("solver.unattributed_pct",
          step_ns > 0.0 ? 100.0 * (step_ns - attributed_ns(acc)) / step_ns : 0.0, "%");
}

void halo_metrics(Result& r, const HaloProbe& h) {
    r.set("grid.halo_exchange_ns", h.exchange_ns, "ns/value");
    r.set("grid.halo_pack_ns", h.pack_ns, "ns/value");
    r.set("grid.halo_unpack_ns", h.unpack_ns, "ns/value");
    r.set("comm.wait_ns", h.wait_ns, "ns/value");
    r.set("comm.bytes_per_step", h.bytes_per_step, "B");
    r.set("comm.messages_per_step", h.messages_per_step, "count");
    r.set("comm.rank_skew_pct", h.skew_pct, "%");
}

void host_and_kernel_metrics(Result& r) {
    ubench_metrics(r, host_triad_gbs(), host_fma_gflops());
}

void overhead_metric(Result& r, const std::vector<double>& untraced,
                     const std::vector<double>& traced) {
    const double base = median(untraced);
    r.set("trace.overhead_pct", base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0,
          "%");
}

} // namespace perfbench
