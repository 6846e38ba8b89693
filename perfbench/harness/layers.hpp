#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "comm/cart.hpp"
#include "common.hpp"
#include "core/field.hpp"
#include "grid/grid.hpp"
#include "solver/case_config.hpp"

namespace perfbench {

/// Time and work summed per layer; a layer's figure is ns per unit of
/// work (cell x equation for solver kernels, value for halo traffic).
struct LayerAccum {
    std::map<std::string, double> ns;
    std::map<std::string, double> work;
    void add(const std::string& name, double t_ns, double units) {
        ns[name] += t_ns;
        work[name] += units;
    }
    [[nodiscard]] double per(const std::string& name) const;
    void merge(const LayerAccum& other);
};

/// Cartesian process box for `nranks` over the case's active dimensions
/// and its periodic flags (the decomposition `mfc run --ranks` uses).
[[nodiscard]] std::array<int, 3> cart_dims(const mfc::CaseConfig& cfg, int nranks);
[[nodiscard]] std::array<bool, 3> cart_periodic(const mfc::CaseConfig& cfg);

/// Replay the public calls one RHS evaluation and RK stage consist of on
/// a copy of `q` (the rank-local block when `cart` is given): ghost fill
/// (bc, plus exchange_halos_dim when decomposed), convert_primitives,
/// compute_igr_sigma (IGR; with its sigma exchanges when decomposed),
/// sweep_span over each active full span, linear_combine and
/// max_wave_speed. Each call runs `reps` times; times accumulate under
/// "bc", "halo", "prim_convert", "igr_sigma", "sweep_x|y|z",
/// "rk_combine", "wave_speed" with cell x equation as the work unit, and
/// "rk_bytes" holds the bytes linear_combine moves (computed from array
/// sizes).
void replay_solver_layers(const mfc::CaseConfig& cfg, const mfc::LocalBlock& block,
                          const mfc::StateArray& q, mfc::comm::CartComm* cart,
                          int reps, LayerAccum& acc);

/// Per-step share of the replayed calls (stages x attributed layers) in
/// ns per cell x equation x RHS evaluation.
[[nodiscard]] double attributed_ns(const LayerAccum& acc);

/// 2-rank probe of the grid and comm layers on `cfg`: exact traffic of
/// one decomposed step (World::traffic deltas), exchange_halos time
/// (slowest rank), pack_face/unpack_face times, and the rank skew of the
/// exchange.
struct HaloProbe {
    double exchange_ns = 0.0; ///< per halo value exchanged, slowest rank
    double pack_ns = 0.0;     ///< per value packed
    double unpack_ns = 0.0;   ///< per value unpacked
    double wait_ns = 0.0;     ///< exchange minus pack and unpack, per value
    double bytes_per_step = 0.0;
    double messages_per_step = 0.0;
    double skew_pct = 0.0;
};
[[nodiscard]] HaloProbe probe_halo(const mfc::CaseConfig& cfg, int reps);

/// Host ceilings measured in the same run: STREAM-style triad bandwidth
/// (three arrays together 4x the last-level cache) and the mul+add peak
/// of portable (non -march) code on one core.
[[nodiscard]] double host_triad_gbs();
[[nodiscard]] double host_fma_gflops();

/// simd.<kernel>_{ns,gflops,roof_frac} for the kernels the workloads run
/// (perf::run_ubench; bytes and flops from kernel_model.hpp, computed).
void ubench_metrics(Result& r, double triad_gbs, double fma_gflops);

/// Write every layer metric of the replayed solver layers into `r`.
void solver_layer_metrics(Result& r, const LayerAccum& acc, double step_ns);
void halo_metrics(Result& r, const HaloProbe& h);

/// Sigma face exchange for a decomposed IGR replay: fills sigma's one-deep
/// face ghosts from the neighbour interiors where `iface` is set.
void exchange_sigma_faces(mfc::comm::CartComm& cart, const mfc::LocalBlock& block,
                          const std::array<std::array<bool, 2>, 3>& iface,
                          mfc::Field& s);

} // namespace perfbench
