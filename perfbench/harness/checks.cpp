#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string cell_str(int q, int i, int j, int k) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "eq %d cell (%d,%d,%d)", q, i, j, k);
    return buf;
}

double cell_volume(const mfc::GlobalGrid& grid) {
    double vol = 1.0;
    for (int d = 0; d < 3; ++d) {
        const int n = d == 0 ? grid.cells.nx : d == 1 ? grid.cells.ny : grid.cells.nz;
        if (n > 1) vol *= grid.dx(d);
    }
    return vol;
}

/// Neumaier-compensated accumulator.
struct Sum {
    double s = 0.0, c = 0.0;
    void add(double x) {
        const double t = s + x;
        c += std::abs(s) >= std::abs(x) ? (s - t) + x : (x - t) + s;
        s = t;
    }
    [[nodiscard]] double value() const { return s + c; }
};

} // namespace

Check check_bounds(const mfc::EquationLayout& lay,
                   const std::vector<mfc::StiffenedGas>& fluids,
                   const mfc::StateArray& q) {
    const mfc::Extents e = q.extents();
    const int neq = lay.num_eqns();
    const int nf = lay.num_fluids();
    std::vector<double> v(static_cast<std::size_t>(neq));
    for (int k = 0; k < e.nz; ++k) {
        for (int j = 0; j < e.ny; ++j) {
            for (int i = 0; i < e.nx; ++i) {
                for (int n = 0; n < neq; ++n) {
                    v[static_cast<std::size_t>(n)] = q.eq(n)(i, j, k);
                    if (!std::isfinite(v[static_cast<std::size_t>(n)])) {
                        return {false, "non-finite value at " + cell_str(n, i, j, k)};
                    }
                }
                double rho = 0.0;
                for (int f = 0; f < nf; ++f) {
                    const double ar = v[static_cast<std::size_t>(lay.cont(f))];
                    if (ar < -kBoundsTol) {
                        return {false, "negative partial density " + std::to_string(ar) +
                                           " at " + cell_str(lay.cont(f), i, j, k)};
                    }
                    rho += ar;
                }
                if (!(rho > 0.0)) {
                    return {false, "non-positive density at " + cell_str(0, i, j, k)};
                }
                double big_g = 0.0, big_pi = 0.0;
                for (int f = 0; f < nf; ++f) {
                    double a = 1.0;
                    if (lay.num_adv() > 0) {
                        a = v[static_cast<std::size_t>(lay.adv(f))];
                        if (!(a >= -kAlphaTol && a <= 1.0 + kAlphaTol)) {
                            return {false, "volume fraction " + std::to_string(a) +
                                               " outside [0,1] at " +
                                               cell_str(lay.adv(f), i, j, k)};
                        }
                    }
                    const mfc::StiffenedGas& g = fluids[static_cast<std::size_t>(f)];
                    big_g += a / (g.gamma - 1.0);
                    big_pi += a * g.gamma * g.pi_inf / (g.gamma - 1.0);
                }
                double ke = 0.0;
                for (int d = 0; d < lay.dims(); ++d) {
                    const double m = v[static_cast<std::size_t>(lay.mom(d))];
                    ke += 0.5 * m * m / rho;
                }
                const double p =
                    (v[static_cast<std::size_t>(lay.energy())] - ke - big_pi) / big_g;
                const double pi_inf = big_pi / (big_g + 1.0);
                if (!(p + pi_inf > 0.0)) {
                    return {false, "p + pi_inf <= 0 at " +
                                       cell_str(lay.energy(), i, j, k)};
                }
            }
        }
    }
    return {};
}

std::vector<double> totals(const mfc::StateArray& q, const mfc::GlobalGrid& grid) {
    const mfc::Extents e = q.extents();
    std::vector<double> out;
    for (int n = 0; n < q.num_eqns(); ++n) {
        Sum s;
        for (int k = 0; k < e.nz; ++k) {
            for (int j = 0; j < e.ny; ++j) {
                for (int i = 0; i < e.nx; ++i) s.add(q.eq(n)(i, j, k));
            }
        }
        out.push_back(s.value() * cell_volume(grid));
    }
    return out;
}

std::vector<double> abs_totals(const mfc::StateArray& q,
                               const mfc::GlobalGrid& grid) {
    const mfc::Extents e = q.extents();
    std::vector<double> out;
    for (int n = 0; n < q.num_eqns(); ++n) {
        double s = 0.0;
        for (int k = 0; k < e.nz; ++k) {
            for (int j = 0; j < e.ny; ++j) {
                for (int i = 0; i < e.nx; ++i) s += std::abs(q.eq(n)(i, j, k));
            }
        }
        out.push_back(s * cell_volume(grid));
    }
    return out;
}

std::vector<double> uniform_x_flux(const mfc::EquationLayout& lay,
                                   const std::vector<mfc::StiffenedGas>& fluids,
                                   const std::vector<double>& alpha_rho, double u,
                                   double p, const std::vector<double>& alpha) {
    std::vector<double> f(static_cast<std::size_t>(lay.num_eqns()), 0.0);
    double rho = 0.0, big_g = 0.0, big_pi = 0.0;
    for (int i = 0; i < lay.num_fluids(); ++i) {
        const auto s = static_cast<std::size_t>(i);
        rho += alpha_rho[s];
        f[static_cast<std::size_t>(lay.cont(i))] = alpha_rho[s] * u;
        const double a = lay.num_adv() > 0 ? alpha[s] : 1.0;
        big_g += a / (fluids[s].gamma - 1.0);
        big_pi += a * fluids[s].gamma * fluids[s].pi_inf / (fluids[s].gamma - 1.0);
    }
    const double energy = big_g * p + big_pi + 0.5 * rho * u * u;
    f[static_cast<std::size_t>(lay.mom(0))] = rho * u * u + p;
    f[static_cast<std::size_t>(lay.energy())] = u * (energy + p);
    return f;
}

std::vector<double> balance_scale(const mfc::EquationLayout& lay,
                                  const std::vector<double>& abs_before,
                                  const std::vector<double>& expected) {
    double mass = 0.0;
    for (int f = 0; f < lay.num_fluids(); ++f) {
        mass += abs_before[static_cast<std::size_t>(lay.cont(f))];
    }
    double mom = std::sqrt(mass * abs_before[static_cast<std::size_t>(lay.energy())]);
    for (int d = 0; d < lay.dims(); ++d) {
        const auto m = static_cast<std::size_t>(lay.mom(d));
        mom += abs_before[m] + std::abs(expected[m]);
    }
    std::vector<double> s(abs_before.size());
    for (int n = 0; n < static_cast<int>(s.size()); ++n) {
        const auto i = static_cast<std::size_t>(n);
        const bool momentum = n >= lay.mom(0) && n < lay.energy();
        s[i] = momentum ? mom : abs_before[i] + std::abs(expected[i]);
    }
    return s;
}

Check check_balance(const mfc::EquationLayout& lay, const std::vector<double>& before,
                    const std::vector<double>& after,
                    const std::vector<double>& expected,
                    const std::vector<double>& scale, double tol) {
    const int conserved = lay.energy() + 1; // partial densities, momenta, E
    for (int n = 0; n < conserved; ++n) {
        const auto s = static_cast<std::size_t>(n);
        const double err = (after[s] - before[s]) - expected[s];
        if (!(std::abs(err) <= tol * scale[s])) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "balance of eq %d off by %.3e (change %.6e, expected %.6e)",
                          n, err, after[s] - before[s], expected[s]);
            return {false, buf};
        }
    }
    return {};
}

Check check_yz_symmetry(const mfc::EquationLayout& lay, const mfc::StateArray& q,
                        double tol) {
    const mfc::Extents e = q.extents();
    if (e.ny != e.nz || lay.dims() != 3) return {false, "y/z extents differ"};
    for (int n = 0; n < lay.num_eqns(); ++n) {
        int partner = n;
        if (n == lay.mom(1)) partner = lay.mom(2);
        if (n == lay.mom(2)) partner = lay.mom(1);
        // Momenta share one scale: a y-only disturbance is judged
        // against the momentum of the flow, not against itself.
        double scale = 0.0;
        for (int m = 0; m < lay.num_eqns(); ++m) {
            const bool momentum = m >= lay.mom(0) && m < lay.energy();
            if (m != n && !(momentum && n >= lay.mom(0) && n < lay.energy())) continue;
            for (int k = 0; k < e.nz; ++k) {
                for (int j = 0; j < e.ny; ++j) {
                    for (int i = 0; i < e.nx; ++i) {
                        scale = std::max(scale, std::abs(q.eq(m)(i, j, k)));
                    }
                }
            }
        }
        for (int k = 0; k < e.nz; ++k) {
            for (int j = 0; j < e.ny; ++j) {
                for (int i = 0; i < e.nx; ++i) {
                    const double a = q.eq(n)(i, j, k);
                    const double b = q.eq(partner)(i, k, j);
                    if (!(std::abs(a - b) <= tol * scale)) {
                        return {false, "y<->z asymmetry at " + cell_str(n, i, j, k)};
                    }
                }
            }
        }
    }
    return {};
}

Check check_hash(std::uint64_t expected, std::uint64_t got) {
    if (expected == got) return {};
    char buf[96];
    std::snprintf(buf, sizeof buf, "state hash %016llx != reference %016llx",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(expected));
    return {false, buf};
}

double exact_riemann_density(const RiemannState& l, const RiemannState& r,
                             double g, double s) {
    const double cl = std::sqrt(g * l.p / l.rho);
    const double cr = std::sqrt(g * r.p / r.rho);
    const double g1 = (g - 1.0) / (2.0 * g);
    const double g6 = (g - 1.0) / (g + 1.0);
    const auto f = [&](double p, const RiemannState& k, double ck, double* df) {
        if (p > k.p) {
            const double a = 2.0 / ((g + 1.0) * k.rho);
            const double b = g6 * k.p;
            const double q = std::sqrt(a / (p + b));
            *df = q * (1.0 - 0.5 * (p - k.p) / (p + b));
            return (p - k.p) * q;
        }
        const double pr = p / k.p;
        *df = std::pow(pr, -(g + 1.0) / (2.0 * g)) / (k.rho * ck);
        return 2.0 * ck / (g - 1.0) * (std::pow(pr, g1) - 1.0);
    };
    double p = std::max(1e-8, 0.5 * (l.p + r.p));
    for (int it = 0; it < 100; ++it) {
        double dl = 0.0, dr = 0.0;
        const double fv = f(p, l, cl, &dl) + f(p, r, cr, &dr) + (r.u - l.u);
        const double next = std::max(1e-12, p - fv / (dl + dr));
        const bool done = std::abs(next - p) < 1e-14 * (next + p);
        p = next;
        if (done) break;
    }
    double dl = 0.0, dr = 0.0;
    const double u =
        0.5 * (l.u + r.u) + 0.5 * (f(p, r, cr, &dr) - f(p, l, cl, &dl));
    if (s <= u) {
        if (p > l.p) {
            const double sl = l.u - cl * std::sqrt((g + 1.0) / (2.0 * g) * p / l.p + g1);
            return s < sl ? l.rho : l.rho * (p / l.p + g6) / (g6 * p / l.p + 1.0);
        }
        const double shl = l.u - cl;
        const double stl = u - cl * std::pow(p / l.p, g1);
        if (s < shl) return l.rho;
        if (s > stl) return l.rho * std::pow(p / l.p, 1.0 / g);
        return l.rho * std::pow(2.0 / (g + 1.0) + g6 / cl * (l.u - s), 2.0 / (g - 1.0));
    }
    if (p > r.p) {
        const double sr = r.u + cr * std::sqrt((g + 1.0) / (2.0 * g) * p / r.p + g1);
        return s > sr ? r.rho : r.rho * (p / r.p + g6) / (g6 * p / r.p + 1.0);
    }
    const double shr = r.u + cr;
    const double str = u + cr * std::pow(p / r.p, g1);
    if (s > shr) return r.rho;
    if (s < str) return r.rho * std::pow(p / r.p, 1.0 / g);
    return r.rho * std::pow(2.0 / (g + 1.0) - g6 / cr * (r.u - s), 2.0 / (g - 1.0));
}

} // namespace perfbench
