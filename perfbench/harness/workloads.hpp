#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "solver/case_config.hpp"

namespace perfbench {

/// The two workloads (see README.md for why each exists).
[[nodiscard]] Result run_standard_serial(const Options& opt);
[[nodiscard]] Result run_regression_suite(const Options& opt);

/// The standardized two-phase case with the seed's perturbations of the
/// bubble radius and x-position and of the shock position (never of the
/// grid or step count, so the work per step is seed-independent).
[[nodiscard]] mfc::CaseConfig seeded_standard_case(int cells, std::uint64_t seed);

/// Expected change of the conserved totals of a (seeded) standardized
/// case over `elapsed`: analytic inflow of the uniform post-shock state
/// through x = 0 minus the outflow of the quiescent state through x = 1.
[[nodiscard]] std::vector<double> expected_inflow(const mfc::CaseConfig& c,
                                                  double elapsed);

/// Toolchain layer metrics for workloads without a toolchain path:
/// generate, save, load, parse and compare the goldens of a fixed slice
/// of the regression suite (its first `cases` cases).
void toolchain_probe(const Options& opt, int cases, Result& r);

/// Shared tail of a traced run: host ceilings and simd kernel metrics.
void host_and_kernel_metrics(Result& r);

/// Tracing overhead: traced over untraced median of the same per-step
/// (or per-pass) samples, in percent.
void overhead_metric(Result& r, const std::vector<double>& untraced,
                     const std::vector<double>& traced);

} // namespace perfbench
