#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/field.hpp"
#include "grid/grid.hpp"
#include "physics/eos.hpp"
#include "physics/model.hpp"

namespace perfbench {

/// Correctness checks made apart from the program: they read the state
/// arrays and case parameters only, and use the benchmark's own
/// stiffened-gas closure, summation and exact Riemann solution.
struct Check {
    bool ok = true;
    std::string message; ///< first violation, empty when ok
};

/// Round-off allowance for partial densities.
inline constexpr double kBoundsTol = 1.0e-10;
/// Allowance for volume fractions outside [0, 1]. The program's advected
/// fractions exceed 1 by up to 1.5e-2 in the regression suite (even with
/// first-order reconstruction) and by a few 1e-3 at the shock of the
/// standardized case, a fault recorded in CHANGES.md; the allowance keeps
/// that visible fault from failing every run while still rejecting a
/// fraction that has left its range.
inline constexpr double kAlphaTol = 5.0e-2;

/// Every interior cell finite; partial densities >= -kBoundsTol; volume
/// fractions in [-kAlphaTol, 1 + kAlphaTol]; mixture p + pi_inf > 0 from the
/// stiffened-gas closure E = sum a_i (G_i p + Pi_i) + rho |u|^2 / 2.
[[nodiscard]] Check check_bounds(const mfc::EquationLayout& lay,
                                 const std::vector<mfc::StiffenedGas>& fluids,
                                 const mfc::StateArray& q);

/// Interior sum of every equation times the cell volume of the active
/// dimensions, compensated (Neumaier) so the check does not measure the
/// harness's own round-off.
[[nodiscard]] std::vector<double> totals(const mfc::StateArray& q,
                                         const mfc::GlobalGrid& grid);
/// Interior sum of |q| per equation times the cell volume (the scale
/// against which a total's round-off is judged).
[[nodiscard]] std::vector<double> abs_totals(const mfc::StateArray& q,
                                             const mfc::GlobalGrid& grid);

/// Physical x-flux of a uniform primitive state (alpha_rho_i, u, p,
/// alpha_i) through a face of unit area, in conservative-variable order.
[[nodiscard]] std::vector<double>
uniform_x_flux(const mfc::EquationLayout& lay,
               const std::vector<mfc::StiffenedGas>& fluids,
               const std::vector<double>& alpha_rho, double u, double p,
               const std::vector<double>& alpha);

/// Scale against which each total's balance error is judged: its L1
/// total plus |expected change|. The momenta share one scale, their
/// summed L1 totals plus sqrt(mass x energy) (a momentum of the flow's
/// own sound speed), so a fluid at rest does not get a zero scale.
[[nodiscard]] std::vector<double> balance_scale(const mfc::EquationLayout& lay,
                                                const std::vector<double>& abs_before,
                                                const std::vector<double>& expected);

/// Balance tolerance of the WENO/HLLC standardized case, relative to each
/// total's scale (the program meets it to ~2e-16), and the y <-> z mirror
/// tolerance relative to each field's max |value|.
inline constexpr double kBalanceTol = 1.0e-10;
inline constexpr double kSymmetryTol = 1.0e-10;

/// Conservation balance: for every conserved equation (partial
/// densities, momenta, energy), after - before == expected within
/// tol * scale.
[[nodiscard]] Check check_balance(const mfc::EquationLayout& lay,
                                  const std::vector<double>& before,
                                  const std::vector<double>& after,
                                  const std::vector<double>& expected,
                                  const std::vector<double>& scale, double tol);

/// Mirror symmetry under the y <-> z swap (cubic interior): scalars map
/// to themselves, mom_y to mom_z. Differences are judged against each
/// equation's max |value|.
[[nodiscard]] Check check_yz_symmetry(const mfc::EquationLayout& lay,
                                      const mfc::StateArray& q, double tol);

[[nodiscard]] Check check_hash(std::uint64_t expected, std::uint64_t got);

/// Exact solution of the ideal-gas Riemann problem (Toro, ch. 4):
/// density at similarity coordinate s = (x - x0) / t.
struct RiemannState {
    double rho = 1.0, u = 0.0, p = 1.0;
};
[[nodiscard]] double exact_riemann_density(const RiemannState& left,
                                           const RiemannState& right,
                                           double gamma, double s);

} // namespace perfbench
