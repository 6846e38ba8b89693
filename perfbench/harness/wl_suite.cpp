// regression_suite: the full golden regression suite in one process.
// Goldens are generated afresh by the build under test during set-up,
// then whole passes run every case, compare it against its golden and
// check its outputs apart from the program, until the run's time is up.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>

#include "checks.hpp"
#include "comm/comm.hpp"
#include "exec/exec.hpp"
#include "layers.hpp"
#include "solver/simulation.hpp"
#include "toolchain/case_generators.hpp"
#include "toolchain/case_io.hpp"
#include "toolchain/golden.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using mfc::toolchain::GoldenFile;
using mfc::toolchain::TestCaseDef;

namespace {

/// Relative round-off allowance for the totals of all-periodic cases,
/// judged against the L1 total of each equation.
constexpr double kPeriodicTol = 1.0e-11;
/// L1 density error bound for the Sod problem at the coarser resolution.
constexpr double kSodL1Bound = 0.01;

bool all_periodic_without_sources(const mfc::CaseConfig& c) {
    for (int d = 0; d < 3; ++d) {
        const int n = d == 0 ? c.grid.cells.nx : d == 1 ? c.grid.cells.ny : c.grid.cells.nz;
        if (n <= 1) continue;
        const auto s = static_cast<std::size_t>(d);
        if (c.bc[s][0] != mfc::BcType::Periodic || c.bc[s][1] != mfc::BcType::Periodic) {
            return false;
        }
    }
    for (const double g : c.gravity) {
        if (g != 0.0) return false;
    }
    return c.monopoles.empty();
}

struct SuiteCase {
    const TestCaseDef* def = nullptr;
    std::string golden;
    bool periodic = false; ///< totals must stay constant
    bool parity = false;   ///< 2D/3D IGR: rerun at 2 ranks
    mfc::CaseConfig cfg;   ///< parsed once during set-up (parity reruns)
    std::uint64_t serial_hash = 0;
};

/// One case through the program's public calls, each timed as its layer.
struct CaseOutcome {
    std::unique_ptr<mfc::Simulation> sim;
    GoldenFile out;
    double run_ns = 0.0;
    double work = 0.0; ///< cells x equations x RHS evaluations
};

CaseOutcome execute(const TestCaseDef& def, LayerAccum& acc,
                    std::vector<double>* before, std::vector<double>* scale) {
    CaseOutcome o;
    mfc::CaseConfig cfg;
    acc.add("case_config", timed("toolchain.config_from_dict",
                                 [&] { cfg = mfc::config_from_dict(def.params); }),
            1.0);
    acc.add("construct", timed("solver.Simulation",
                               [&] { o.sim = std::make_unique<mfc::Simulation>(cfg); }),
            1.0);
    acc.add("initialize", timed("solver.initialize", [&] { o.sim->initialize(); }), 1.0);
    if (before != nullptr) {
        *before = totals(o.sim->state(), cfg.grid);
        *scale = abs_totals(o.sim->state(), cfg.grid);
    }
    o.run_ns = timed("solver.run", [&] { o.sim->run(); });
    o.work = static_cast<double>(cfg.grid.total_cells()) * cfg.layout().num_eqns() *
             static_cast<double>(o.sim->rhs_evals());
    acc.add("case_run", o.run_ns, 1.0);
    acc.add("solver_run", o.run_ns, o.work);
    acc.add("flatten", timed("solver.flattened_outputs", [&] {
                o.out = GoldenFile(o.sim->flattened_outputs());
            }),
            1.0);
    return o;
}

/// Both ranks' run() times and the rank-0 global hash of a 2-rank rerun.
struct ParityRun {
    std::uint64_t hash = 0;
    double rank_ns[2] = {0.0, 0.0};
    mfc::comm::Traffic traffic;
    long long steps = 0;
};

ParityRun rerun_two_ranks(const mfc::CaseConfig& cfg) {
    ParityRun p;
    mfc::comm::World world(2);
    world.run([&](mfc::comm::Communicator& comm) {
        trace::set_thread(comm.rank() + 1);
        mfc::comm::CartComm cart(comm, cart_dims(cfg, 2), cart_periodic(cfg));
        mfc::Simulation sim(cfg, cart);
        sim.initialize();
        p.rank_ns[comm.rank()] = timed("solver.run", [&] { sim.run(); });
        const std::uint64_t h = sim.global_state_hash();
        if (comm.rank() == 0) {
            p.hash = h;
            p.steps = sim.steps_done();
        }
        trace::set_thread(0);
    });
    p.traffic = world.traffic();
    return p;
}

/// The Sod problem of tests/data/sod.case at `nx` cells against the exact
/// Riemann solution: L1 density error over the tube.
double sod_l1(const mfc::CaseDict& base, int nx) {
    mfc::CaseDict d = base;
    const double nx0 = static_cast<double>(d.at("nx").as_int());
    const double scale = nx / nx0;
    d["nx"] = mfc::Value(static_cast<long long>(nx));
    d["dt"] = mfc::Value(d.at("dt").as_double() / scale);
    d["t_step_stop"] =
        mfc::Value(static_cast<long long>(std::lround(d.at("t_step_stop").as_int() * scale)));
    const mfc::CaseConfig cfg = mfc::config_from_dict(d);
    mfc::Simulation sim(cfg);
    sim.initialize();
    sim.run();
    // Left and right states of the tube from the case's own patches
    // (patch 2 is the x < position half-space painted over patch 1).
    const mfc::Patch& right = cfg.patches.at(0);
    const mfc::Patch& left = cfg.patches.at(1);
    const RiemannState l{left.alpha_rho[0], left.velocity[0], left.pressure};
    const RiemannState r{right.alpha_rho[0], right.velocity[0], right.pressure};
    const double t = sim.time();
    double err = 0.0;
    for (int i = 0; i < cfg.grid.cells.nx; ++i) {
        const double x = cfg.grid.center(0, i);
        const double exact =
            exact_riemann_density(l, r, cfg.fluids[0].gamma, (x - left.position) / t);
        err += std::abs(sim.state().eq(0)(i, 0, 0) - exact) * cfg.grid.dx(0);
    }
    return err;
}

void toolchain_metrics(Result& r, const LayerAccum& acc) {
    r.set("toolchain.generate_suite_ms", acc.per("generate_suite") * 1e-6, "ms");
    r.set("toolchain.golden_save_ms", acc.per("golden_save") * 1e-6, "ms");
    r.set("toolchain.case_config_us", acc.per("case_config") * 1e-3, "us");
    r.set("solver.case_run_ms", acc.per("case_run") * 1e-6, "ms");
    r.set("solver.flatten_us", acc.per("flatten") * 1e-3, "us");
    r.set("toolchain.golden_load_ms", acc.per("golden_load") * 1e-6, "ms");
    // Bytes of golden text per ns of GoldenFile::load, in MB/s.
    const double ns_per_byte = acc.per("golden_parse");
    r.set("toolchain.golden_parse_mbs", ns_per_byte > 0.0 ? 1e3 / ns_per_byte : 0.0,
          "MB/s");
    r.set("toolchain.golden_compare_us", acc.per("golden_compare") * 1e-3, "us");
}

} // namespace

Result run_regression_suite(const Options& opt) {
    Result res;
    mfc::exec::set_num_threads(1);
    LayerAccum acc;
    const std::string dir = opt.out_dir + "/goldens-" + std::to_string(getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);

    // --- set-up: suite generation and golden generation --------------------
    mfc::toolchain::CaseList list;
    acc.add("generate_suite", timed("toolchain.generate_full_suite", [&] {
                list = mfc::toolchain::generate_full_suite();
            }),
            1.0);
    std::vector<SuiteCase> cases(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
        cases[i].def = &list[i];
        cases[i].golden = dir + "/" + list[i].uuid + ".txt";
        cases[i].cfg = mfc::config_from_dict(list[i].params);
        cases[i].periodic = all_periodic_without_sources(cases[i].cfg);
        cases[i].parity = cases[i].cfg.igr.enabled && cases[i].cfg.grid.dims() >= 2;
    }
    // The seed fixes the order cases run in (the work of a pass is the same).
    Rng rng(opt.seed);
    std::vector<std::size_t> order(cases.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next() % i]);
    }
    for (const std::size_t i : order) {
        trace::set_step(static_cast<long long>(i));
        const Span span("toolchain.generate_case");
        CaseOutcome o = execute(*cases[i].def, acc, nullptr, nullptr);
        acc.add("golden_save",
                timed("toolchain.GoldenFile::save", [&] { o.out.save(cases[i].golden); }),
                1.0);
    }
    const mfc::CaseDict sod = mfc::toolchain::load_case_file(opt.sod_case);
    const double setup_s = static_cast<double>(now_ns() - g_process_start_ns) * 1e-9;

    // --- timed passes ---------------------------------------------------------
    // Every part of a pass (one case with its checks, one parity rerun, the
    // Sod check) keeps its fastest time over the passes; the end-to-end
    // figures sum them, so host interference that slows some parts of some
    // passes does not move them (see fastest()). Fixed-size, so the samples
    // allocate nothing while the passes run.
    constexpr double kNone = std::numeric_limits<double>::infinity();
    std::vector<double> case_run_ns(cases.size(), kNone), case_s(cases.size(), kNone),
        parity_s(cases.size(), kNone);
    double sod_s = kNone;
    std::vector<double> traced_pass, untraced_pass;
    double suite_work = 0.0, rss_mb = 0.0;
    double parity_rank_ns[2] = {0.0, 0.0};
    mfc::comm::Traffic parity_traffic;
    long long parity_steps = 0;
    const std::int64_t t_start = now_ns();
    int pass = 0;
    do {
        // Traced runs alternate untraced and traced passes to measure the
        // overhead of the spans themselves.
        const bool tracing = opt.trace && pass % 2 == 1;
        trace::set_enabled(tracing);
        double run_ns = 0.0, work = 0.0;
        for (const std::size_t i : order) {
            SuiteCase& sc = cases[i];
            trace::set_step(static_cast<long long>(i));
            const std::int64_t c0 = now_ns();
            const Span span("toolchain.case");
            std::vector<double> before, scale;
            CaseOutcome o = execute(*sc.def, acc, sc.periodic ? &before : nullptr, &scale);
            run_ns += o.run_ns;
            work += o.work;
            case_run_ns[i] = std::min(case_run_ns[i], o.run_ns);
            GoldenFile ref;
            const double load_ns = timed("toolchain.GoldenFile::load",
                                         [&] { ref = GoldenFile::load(sc.golden); });
            acc.add("golden_load", load_ns, 1.0);
            acc.add("golden_parse", load_ns, static_cast<double>(fs::file_size(sc.golden)));
            mfc::toolchain::CompareResult cmp;
            acc.add("golden_compare", timed("toolchain.compare_golden", [&] {
                        cmp = mfc::toolchain::compare_golden(ref, o.out);
                    }),
                    1.0);
            res.check(cmp.ok, sc.def->uuid + " golden: " + cmp.message);
            const mfc::CaseConfig& cfg = o.sim->config();
            const Check b = check_bounds(cfg.layout(), cfg.fluids, o.sim->state());
            res.check(b.ok, sc.def->uuid + " bounds: " + b.message);
            if (sc.periodic) {
                const std::vector<double> after = totals(o.sim->state(), cfg.grid);
                const std::vector<double> zero(after.size(), 0.0);
                const Check c = check_balance(cfg.layout(), before, after, zero,
                                              balance_scale(cfg.layout(), scale, zero),
                                              kPeriodicTol);
                res.check(c.ok, sc.def->uuid + " periodic totals: " + c.message);
            }
            sc.serial_hash = o.sim->state_hash();
            case_s[i] = std::min(case_s[i], static_cast<double>(now_ns() - c0) * 1e-9);
        }
        // Kept failing: the 2-rank rerun of every 2D/3D IGR case must
        // reproduce the serial state hash (Gauss-Seidel cases do not).
        for (const std::size_t i : order) {
            SuiteCase& sc = cases[i];
            if (!sc.parity) continue;
            trace::set_step(static_cast<long long>(i));
            const std::int64_t r0 = now_ns();
            const ParityRun p = rerun_two_ranks(sc.cfg);
            const Check h = check_hash(sc.serial_hash, p.hash);
            res.check(h.ok, sc.def->uuid + " 2-rank parity (" + sc.def->trace + "): " +
                                h.message);
            parity_rank_ns[0] += p.rank_ns[0];
            parity_rank_ns[1] += p.rank_ns[1];
            parity_traffic.bytes += p.traffic.bytes;
            parity_traffic.messages += p.traffic.messages;
            parity_steps += p.steps;
            parity_s[i] = std::min(parity_s[i], static_cast<double>(now_ns() - r0) * 1e-9);
        }
        {
            const std::int64_t s0 = now_ns();
            const Span span("check.sod");
            const double coarse = sod_l1(sod, 100);
            const double fine = sod_l1(sod, 200);
            res.check(coarse < kSodL1Bound, "Sod L1 at 100 cells " + std::to_string(coarse));
            res.check(fine < kSodL1Bound, "Sod L1 at 200 cells " + std::to_string(fine));
            res.check(fine < coarse, "Sod L1 does not fall with resolution");
            sod_s = std::min(sod_s, static_cast<double>(now_ns() - s0) * 1e-9);
        }
        suite_work = work;
        (tracing ? traced_pass : untraced_pass).push_back(run_ns / work);
        if (pass == 0) rss_mb = peak_rss_mb(); // see run_standard_serial
        ++pass;
    } while (static_cast<double>(now_ns() - t_start) * 1e-9 < opt.seconds ||
             (opt.trace && traced_pass.empty()));
    trace::set_enabled(opt.trace);
    fs::remove_all(dir);

    if (!opt.trace) {
        double run_ns = 0.0, pass_s = sod_s;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            run_ns += case_run_ns[i];
            pass_s += case_s[i] + (cases[i].parity ? parity_s[i] : 0.0);
        }
        res.set("grind_ns", run_ns / suite_work, "ns");
        res.set("solution_s", pass_s, "s");
        res.set("setup_s", setup_s, "s");
        res.set("peak_rss_mb", rss_mb, "MiB");
        return res;
    }

    // --- traced run: per-layer metrics ---------------------------------------
    LayerAccum solver;
    const mfc::CaseConfig* halo_case = nullptr;
    for (const SuiteCase& sc : cases) {
        mfc::Simulation sim(sc.cfg);
        sim.initialize();
        replay_solver_layers(sc.cfg, mfc::LocalBlock{sc.cfg.grid.cells, {0, 0, 0}},
                             sim.state(), nullptr, 1, solver);
        if (sc.parity && sc.cfg.grid.dims() == 3 &&
            (halo_case == nullptr ||
             sc.cfg.grid.total_cells() > halo_case->grid.total_cells())) {
            halo_case = &sc.cfg;
        }
    }
    solver_layer_metrics(res, solver, acc.per("solver_run"));
    HaloProbe h = probe_halo(*halo_case, 20);
    // Traffic of the suite's own decomposed runs: the parity reruns.
    h.bytes_per_step = static_cast<double>(parity_traffic.bytes) /
                       static_cast<double>(std::max(parity_steps, 1LL));
    h.messages_per_step = static_cast<double>(parity_traffic.messages) /
                          static_cast<double>(std::max(parity_steps, 1LL));
    const double hi = std::max(parity_rank_ns[0], parity_rank_ns[1]);
    h.skew_pct = hi > 0.0
                     ? 100.0 * (hi - std::min(parity_rank_ns[0], parity_rank_ns[1])) / hi
                     : 0.0;
    halo_metrics(res, h);
    res.set("solver.construct_s", acc.per("construct") * 1e-9, "s");
    res.set("solver.initialize_s", acc.per("initialize") * 1e-9, "s");
    toolchain_metrics(res, acc);
    overhead_metric(res, untraced_pass, traced_pass);
    host_and_kernel_metrics(res);
    return res;
}

void toolchain_probe(const Options& opt, int ncases, Result& r) {
    LayerAccum acc;
    const std::string dir = opt.out_dir + "/probe-" + std::to_string(getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    mfc::toolchain::CaseList list;
    acc.add("generate_suite", timed("toolchain.generate_full_suite", [&] {
                list = mfc::toolchain::generate_full_suite();
            }),
            1.0);
    list.resize(std::min(list.size(), static_cast<std::size_t>(ncases)));
    for (const TestCaseDef& def : list) {
        const std::string path = dir + "/" + def.uuid + ".txt";
        CaseOutcome o = execute(def, acc, nullptr, nullptr);
        acc.add("golden_save",
                timed("toolchain.GoldenFile::save", [&] { o.out.save(path); }), 1.0);
        GoldenFile ref;
        const double load_ns =
            timed("toolchain.GoldenFile::load", [&] { ref = GoldenFile::load(path); });
        acc.add("golden_load", load_ns, 1.0);
        acc.add("golden_parse", load_ns, static_cast<double>(fs::file_size(path)));
        mfc::toolchain::CompareResult cmp;
        acc.add("golden_compare", timed("toolchain.compare_golden", [&] {
                    cmp = mfc::toolchain::compare_golden(ref, o.out);
                }),
                1.0);
        if (!cmp.ok) {
            r.correct = false;
            r.notes.push_back(def.uuid + " probe golden: " + cmp.message);
        }
    }
    fs::remove_all(dir);
    toolchain_metrics(r, acc);
}

} // namespace perfbench
