// standard_serial: the paper's standardized 3D two-phase case (5-equation
// model, WENO5-JS, HLLC, SSP-RK3) on 1 rank x 1 thread. A run repeats
// whole solutions (construct, initial condition, warm-up step, kSteps timed
// steps, checks) until its time is up. The block is small enough that a
// run holds dozens of solutions, so its fastest step and fastest parts of a
// solution are steady figures on a shared host (README.md).
#include <malloc.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "checks.hpp"
#include "exec/exec.hpp"
#include "layers.hpp"
#include "solver/simulation.hpp"
#include "toolchain/bench_suite.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kCells = 48; ///< cells per dimension
constexpr int kSteps = 3;  ///< timed steps per solution

/// The IGR twin of a case: the IGR settings of the bench suite's own
/// igr_jacobi case (its grid size does not matter here), so the two stay
/// the same.
mfc::CaseConfig igr_twin(mfc::CaseConfig c) {
    c.igr = mfc::toolchain::BenchSuite(0.001, 1).case_config("igr_jacobi").igr;
    c.validate();
    return c;
}

} // namespace

mfc::CaseConfig seeded_standard_case(int cells, std::uint64_t seed) {
    mfc::CaseConfig c = mfc::standardized_benchmark_case(cells, kSteps);
    Rng rng(seed);
    mfc::Patch& shock = c.patches.at(1);
    mfc::Patch& bubble = c.patches.at(2);
    bubble.radius *= 1.0 + 0.1 * rng.symmetric();
    bubble.center[0] += 0.05 * rng.symmetric();
    shock.position += 0.02 * rng.symmetric();
    c.validate();
    return c;
}

/// Expected change of the conserved totals over `elapsed`: the analytic
/// flux of the uniform post-shock state in through x = 0 minus that of
/// the quiescent background out through x = 1 (unit face area). The y and
/// z faces carry equal and opposite pressure fluxes by symmetry.
std::vector<double> expected_inflow(const mfc::CaseConfig& c, double elapsed) {
    const mfc::EquationLayout lay = c.layout();
    const mfc::Patch& bg = c.patches.at(0);
    const mfc::Patch& shock = c.patches.at(1);
    const std::vector<double> in = uniform_x_flux(lay, c.fluids, shock.alpha_rho,
                                                  shock.velocity[0], shock.pressure,
                                                  shock.alpha);
    const std::vector<double> out = uniform_x_flux(lay, c.fluids, bg.alpha_rho,
                                                   bg.velocity[0], bg.pressure, bg.alpha);
    std::vector<double> e(in.size());
    for (std::size_t i = 0; i < e.size(); ++i) e[i] = (in[i] - out[i]) * elapsed;
    return e;
}

Result run_standard_serial(const Options& opt) {
    Result res;
    mfc::exec::set_num_threads(1);
    const mfc::CaseConfig cfg = seeded_standard_case(kCells, opt.seed);
    const double work = static_cast<double>(cfg.grid.total_cells()) *
                        cfg.layout().num_eqns() * mfc::num_stages(cfg.time_stepper);
    std::vector<double> step_ns, construct_ns, init_ns;
    // Fastest time of each part of a solution over the run (set-up, warm-up,
    // each timed step, checks); solution_s is their sum (see fastest()).
    std::vector<double> part_s(kSteps + 3, std::numeric_limits<double>::infinity());
    std::vector<double> traced_steps, untraced_steps;
    double setup_s = 0.0, rss_mb = 0.0;
    std::unique_ptr<mfc::Simulation> sim;
    const std::int64_t t_start = now_ns();
    int round = 0;
    do {
        const bool tracing = opt.trace && round % 2 == 1;
        trace::set_enabled(tracing);
        std::int64_t mark = now_ns();
        const auto lap = [&](int part) {
            const std::int64_t t = now_ns();
            part_s[part] = std::min(part_s[part], static_cast<double>(t - mark) * 1e-9);
            mark = t;
        };
        sim.reset();
        // Hand the previous solution's memory back to the system so every
        // solution allocates alike and the peak RSS is the live peak.
        malloc_trim(0);
        construct_ns.push_back(timed("solver.Simulation",
                                     [&] { sim = std::make_unique<mfc::Simulation>(cfg); }));
        init_ns.push_back(timed("solver.initialize", [&] { sim->initialize(); }));
        lap(0);
        {
            trace::set_step(-1);
            const Span warm("solver.step.warmup");
            sim->step();
        }
        if (round == 0) setup_s = static_cast<double>(now_ns() - g_process_start_ns) * 1e-9;
        const mfc::EquationLayout lay = cfg.layout();
        const std::vector<double> before = totals(sim->state(), cfg.grid);
        const std::vector<double> abs_before = abs_totals(sim->state(), cfg.grid);
        const double t_before = sim->time();
        lap(1);
        for (int s = 0; s < kSteps; ++s) {
            trace::set_step(static_cast<long long>(round) * kSteps + s);
            const double t = timed("solver.step", [&] { sim->step(); });
            step_ns.push_back(t / work);
            (tracing ? traced_steps : untraced_steps).push_back(t / work);
            lap(2 + s);
        }
        const Span span("check.standard");
        const Check b = check_bounds(lay, cfg.fluids, sim->state());
        res.check(b.ok, "bounds: " + b.message);
        const std::vector<double> expected = expected_inflow(cfg, sim->time() - t_before);
        const Check c = check_balance(lay, before, totals(sim->state(), cfg.grid), expected,
                                      balance_scale(lay, abs_before, expected), kBalanceTol);
        res.check(c.ok, "balance: " + c.message);
        const Check y = check_yz_symmetry(lay, sim->state(), kSymmetryTol);
        res.check(y.ok, "symmetry: " + y.message);
        lap(kSteps + 2);
        // Peak RSS is read once set-up and the first solution are done: a
        // run does as many solutions as the host's speed allows, and the
        // allocator's high-water mark creeps up with their number.
        if (round == 0) rss_mb = peak_rss_mb();
        ++round;
    } while (static_cast<double>(now_ns() - t_start) * 1e-9 < opt.seconds ||
             (opt.trace && traced_steps.empty()));
    trace::set_enabled(opt.trace);

    if (!opt.trace) {
        res.set("grind_ns", fastest(step_ns), "ns");
        res.set("solution_s", std::accumulate(part_s.begin(), part_s.end(), 0.0), "s");
        res.set("setup_s", setup_s, "s");
        res.set("peak_rss_mb", rss_mb, "MiB");
        return res;
    }

    // --- traced run: per-layer metrics ---------------------------------------
    res.set("solver.construct_s", median(construct_ns) * 1e-9, "s");
    res.set("solver.initialize_s", median(init_ns) * 1e-9, "s");
    // Steps and replays alternate on the last solution, so the step time the
    // replayed calls are set against is measured under the same conditions.
    LayerAccum acc;
    std::vector<double> near_steps;
    for (int r = 0; r < 2; ++r) {
        near_steps.push_back(timed("solver.step", [&] { sim->step(); }) / work);
        replay_solver_layers(cfg, sim->block(), sim->state(), nullptr, 1, acc);
    }
    sim.reset();
    {
        // IGR sigma is not on this workload's path; it is replayed on the
        // IGR twin of the same case so every traced run reports it.
        const mfc::CaseConfig twin = igr_twin(cfg);
        mfc::Simulation igr(twin);
        igr.initialize();
        LayerAccum igr_acc;
        replay_solver_layers(twin, igr.block(), igr.state(), nullptr, 1, igr_acc);
        solver_layer_metrics(res, acc, median(near_steps));
        res.set("numerics.igr_sigma_ns", igr_acc.per("igr_sigma"), "ns/pt/eq");
    }
    halo_metrics(res, probe_halo(cfg, 3));
    toolchain_probe(opt, 24, res);
    overhead_metric(res, untraced_steps, traced_steps);
    host_and_kernel_metrics(res);
    return res;
}

} // namespace perfbench
