// The benchmark's own tests: every correctness check must accept the
// program's healthy output and reject a deliberately broken one (a NaN in
// one cell, a y-only perturbation, a mass-breaking edit, a wrong hash, ...).
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "checks.hpp"
#include "solver/simulation.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool cond, const std::string& what) {
    std::printf("%s  %s\n", cond ? "PASS" : "FAIL", what.c_str());
    if (!cond) ++g_failures;
}

using perfbench::Check;

/// A small seeded standardized case advanced a few steps: the healthy
/// state every check must accept.
struct Healthy {
    mfc::CaseConfig cfg = perfbench::seeded_standard_case(48, 7);
    mfc::Simulation sim{cfg};
    std::vector<double> before, abs_before;
    double t_before = 0.0;
    Healthy() {
        sim.initialize();
        sim.step();
        before = perfbench::totals(sim.state(), cfg.grid);
        abs_before = perfbench::abs_totals(sim.state(), cfg.grid);
        t_before = sim.time();
        for (int s = 0; s < 3; ++s) sim.step();
    }
    [[nodiscard]] Check balance(const mfc::StateArray& q) const {
        const std::vector<double> expected =
            perfbench::expected_inflow(cfg, sim.time() - t_before);
        return perfbench::check_balance(cfg.layout(), before,
                                        perfbench::totals(q, cfg.grid), expected,
                                        perfbench::balance_scale(cfg.layout(), abs_before,
                                                                 expected),
                                        perfbench::kBalanceTol);
    }
};

} // namespace

int main() {
    const Healthy h;
    const mfc::EquationLayout lay = h.cfg.layout();
    const mfc::StateArray& q = h.sim.state();

    // Healthy output passes every check.
    expect(perfbench::check_bounds(lay, h.cfg.fluids, q).ok, "healthy state is in bounds");
    expect(h.balance(q).ok, "healthy state balances the analytic inflow");
    expect(perfbench::check_yz_symmetry(lay, q, perfbench::kSymmetryTol).ok, "healthy state is y<->z symmetric");
    expect(perfbench::check_hash(h.sim.state_hash(), h.sim.state_hash()).ok,
           "equal hashes match");

    {
        mfc::StateArray bad = q;
        bad.eq(lay.energy())(5, 7, 9) = std::numeric_limits<double>::quiet_NaN();
        expect(!perfbench::check_bounds(lay, h.cfg.fluids, bad).ok,
               "a NaN in one cell is rejected");
    }
    {
        mfc::StateArray bad = q;
        bad.eq(lay.cont(0))(3, 4, 5) = -1.0;
        expect(!perfbench::check_bounds(lay, h.cfg.fluids, bad).ok,
               "a negative partial density is rejected");
    }
    {
        mfc::StateArray bad = q;
        bad.eq(lay.adv(0))(3, 4, 5) = 1.2;
        expect(!perfbench::check_bounds(lay, h.cfg.fluids, bad).ok,
               "a volume fraction above 1 is rejected");
    }
    {
        mfc::StateArray bad = q;
        bad.eq(lay.energy())(3, 4, 5) = -1.0e6;
        expect(!perfbench::check_bounds(lay, h.cfg.fluids, bad).ok,
               "p + pi_inf <= 0 is rejected");
    }
    {
        // A y-only perturbation: one cell off the y = z diagonal.
        mfc::StateArray bad = q;
        bad.eq(lay.mom(1))(24, 6, 34) += 1e-6 * std::abs(q.eq(lay.mom(0))(24, 6, 34)) + 1e-3;
        expect(!perfbench::check_yz_symmetry(lay, bad, perfbench::kSymmetryTol).ok,
               "a y-only perturbation is rejected");
    }
    {
        // Mass-breaking edit: 1% more fluid-1 mass in one cell.
        mfc::StateArray bad = q;
        bad.eq(lay.cont(0))(40, 20, 20) *= 1.01;
        expect(!h.balance(bad).ok, "a mass-breaking edit is rejected");
    }
    expect(!perfbench::check_hash(h.sim.state_hash(), h.sim.state_hash() ^ 1).ok,
           "a wrong hash is rejected");

    // The exact Riemann solution of Sod's problem (Toro, table 4.3:
    // rho*L = 0.42632, rho*R = 0.26557).
    const perfbench::RiemannState l{1.0, 0.0, 1.0}, r{0.125, 0.0, 0.1};
    expect(perfbench::exact_riemann_density(l, r, 1.4, -5.0) == 1.0, "Sod: left state");
    expect(perfbench::exact_riemann_density(l, r, 1.4, 5.0) == 0.125, "Sod: right state");
    expect(std::abs(perfbench::exact_riemann_density(l, r, 1.4, 0.5) - 0.42632) < 1e-4,
           "Sod: left star density");
    expect(std::abs(perfbench::exact_riemann_density(l, r, 1.4, 1.5) - 0.26557) < 1e-4,
           "Sod: right star density");

    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
