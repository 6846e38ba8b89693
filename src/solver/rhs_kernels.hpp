#pragma once

#include <array>
#include <vector>

#include "core/field.hpp"
#include "numerics/igr.hpp"
#include "numerics/riemann.hpp"
#include "numerics/weno.hpp"
#include "physics/model.hpp"
#include "simd/simd.hpp"
#include "solver/rhs.hpp"

/// The RHS sweep kernels behind RhsEvaluator: free functions compiled once
/// per ISA level (rhs_kernels.cpp) and reached through the per-level
/// table kRhsKernels via simd::dispatch. Every level x width instance is
/// bitwise identical; see simd/simd.hpp.
namespace mfc {

/// Profiler zone names used on both sides of the table: prof keys zones
/// by pointer, so each name has exactly one definition (rhs.cpp).
namespace rhs_zone {
extern const char* const weno[3];
extern const char* const igr[3];
extern const char* const prim_convert;
extern const char* const igr_sigma;
extern const char* const weno_recon;
extern const char* const riemann;
extern const char* const flux_div;
} // namespace rhs_zone

/// Read-only evaluator state a sweep kernel needs (RhsEvaluator members).
struct RhsContext {
    const EquationLayout& lay;
    const std::vector<StiffenedGas>& fluids;
    const Extents& local;          ///< rank-local interior cells
    const std::array<double, 3>& dx;
    const StateArray& prim;        ///< primitives, ghosts included
    const Field& sigma;            ///< IGR entropic pressure (IGR only)
    const IgrParams& igr;
    const IgrInterfaceMask& rank_iface;
    int weno_order;
    double weno_eps;
    WenoVariant weno_variant;
    RiemannSolverKind riemann;
};

/// cons -> prim over the cell box [lo, hi) (ghost coordinates allowed).
using PrimConvertFn = void (*)(const RhsContext& ctx, const StateArray& cons,
                               StateArray& prim, const int lo[3],
                               const int hi[3]);
/// One directional sweep over `span`: assigns (accumulate == false) or
/// accumulates the flux divergence into dq.
using SweepFn = void (*)(const RhsContext& ctx, int dim, const SweepSpan& span,
                         StateArray& dq, bool accumulate);
/// IGR elliptic source alf * rho * [(div u)^2 + tr((grad u)^2)].
using IgrSourceFn = void (*)(const RhsContext& ctx, Field& source);

struct RhsKernels {
    simd::ByWidth<PrimConvertFn> convert_primitives;
    simd::ByWidth<SweepFn> sweep_weno; ///< component-wise WENO + Riemann
    simd::ByWidth<SweepFn> sweep_igr;  ///< IGR central flux
    simd::ByWidth<IgrSourceFn> igr_source;
};

MFC_SIMD_DECLARE_BY_ISA(RhsKernels, kRhsKernels);

} // namespace mfc
