#pragma once

#include <vector>

#include "numerics/riemann.hpp"
#include "numerics/weno.hpp"
#include "physics/model.hpp"
#include "simd/simd.hpp"

/// The timed bodies of `mfc ubench`'s pencil kernels, compiled once per
/// ISA level (ubench_kernels.cpp) like the solver's own sweeps, so the
/// simd.* figures time the codegen the solver runs at the selected level
/// and width. Inputs and outputs are SoA rows: q * cells + i. The RK axpy
/// and IGR Jacobi figures call the solver's row kernels directly
/// (numerics/row_kernels.hpp).
namespace mfc::perf {

using PrimConvertRowFn = void (*)(const EquationLayout& lay,
                                  const std::vector<StiffenedGas>& fluids,
                                  const double* cons, double* prim, int cells);
/// Edge values of `cells` cells; `row` holds cell i's stencil center at
/// row[i + (order - 1) / 2].
using WenoRowFn = void (*)(const double* row, int order, double eps,
                           WenoVariant variant, double* left, double* right,
                           int cells);
using RiemannRowFn = void (*)(RiemannSolverKind kind, const EquationLayout& lay,
                              const std::vector<StiffenedGas>& fluids,
                              const double* left, const double* right,
                              double* flux, double* uface, int cells);
using IgrFluxRowFn = void (*)(const EquationLayout& lay,
                              const std::vector<StiffenedGas>& fluids,
                              const double* face, const double* cell_l,
                              const double* cell_r, double* flux,
                              double* uface, int cells);

struct UbenchKernels {
    simd::ByWidth<PrimConvertRowFn> prim_convert;
    simd::ByWidth<WenoRowFn> weno;
    simd::ByWidth<RiemannRowFn> riemann;
    simd::ByWidth<IgrFluxRowFn> igr_flux;
};

MFC_SIMD_DECLARE_BY_ISA(UbenchKernels, kUbenchKernels);

} // namespace mfc::perf
