#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "perf/ubench.hpp"
#include "simd/simd.hpp"

namespace mfc::perf {
namespace {

UbenchOptions smoke_options() {
    UbenchOptions o;
    o.cells = 256;
    o.reps = 2;
    return o;
}

TEST(Ubench, RegistryCoversTheHotKernels) {
    const std::vector<std::string>& names = ubench_kernels();
    ASSERT_FALSE(names.empty());
    for (const char* expected :
         {"prim_convert", "weno5_js", "weno5_m", "weno5_z", "weno3_js",
          "riemann_hllc", "riemann_hll", "igr_flux", "igr_jacobi",
          "rk_axpy"}) {
        bool found = false;
        for (const std::string& n : names) found = found || n == expected;
        EXPECT_TRUE(found) << expected;
    }
}

TEST(Ubench, EveryKernelRunsAndReportsFinitePositiveTiming) {
    for (const UbenchResult& r : run_ubench_all(smoke_options())) {
        EXPECT_TRUE(std::isfinite(r.ns_per_cell)) << r.name;
        EXPECT_GT(r.ns_per_cell, 0.0) << r.name;
        EXPECT_TRUE(std::isfinite(r.gbs)) << r.name;
        EXPECT_GT(r.gbs, 0.0) << r.name;
        EXPECT_GT(r.model_ns_per_cell, 0.0) << r.name;
        EXPECT_GT(r.cost.bytes_per_cell, 0.0) << r.name;
        EXPECT_TRUE(std::isfinite(r.checksum)) << r.name;
        EXPECT_EQ(r.cells, 256) << r.name;
    }
}

TEST(Ubench, ChecksumIsLevelAndWidthIndependent) {
    // The kernels under test are compiled per ISA level like the solver's
    // sweeps; their outputs must not depend on the level or the width.
    // Levels this host cannot run are reported as skipped below.
    const simd::Isa prev_isa = simd::isa();
    const int prev = simd::width();
    const UbenchOptions o = smoke_options();
    std::string missing;
    for (const std::string& name : ubench_kernels()) {
        simd::set_isa(simd::Isa::Baseline);
        simd::set_width(1);
        const double scalar = run_ubench(name, o).checksum;
        for (int l = 0; l < simd::kNumIsas; ++l) {
            const auto isa = static_cast<simd::Isa>(l);
            if (!simd::isa_supported(isa)) continue;
            simd::set_isa(isa);
            for (const int w : {1, 2, 4, 8}) {
                simd::set_width(w);
                EXPECT_EQ(run_ubench(name, o).checksum, scalar)
                    << name << " " << simd::isa_name(isa) << " width " << w;
            }
        }
    }
    simd::set_isa(prev_isa);
    simd::set_width(prev);
    for (int l = 0; l < simd::kNumIsas; ++l) {
        const auto isa = static_cast<simd::Isa>(l);
        if (!simd::isa_supported(isa)) {
            missing += std::string(missing.empty() ? "" : ", ") +
                       simd::isa_name(isa);
        }
    }
    if (!missing.empty()) GTEST_SKIP() << "not run on this host: " << missing;
}

TEST(Ubench, UnknownKernelAndBadOptionsThrow) {
    EXPECT_THROW((void)run_ubench("nope", smoke_options()), Error);
    UbenchOptions bad = smoke_options();
    bad.cells = 1;
    EXPECT_THROW((void)run_ubench("rk_axpy", bad), Error);
    bad = smoke_options();
    bad.reps = 0;
    EXPECT_THROW((void)run_ubench("rk_axpy", bad), Error);
}

TEST(Ubench, ReferenceCoreIsWellFormed) {
    const DeviceSpec& core = reference_core();
    EXPECT_GT(core.mem_bw_gbs, 0.0);
    EXPECT_GT(core.fp64_tflops, 0.0);
    // A memory-bound kernel's model time scales with its byte count.
    const KernelCost light{8.0, 1.0};
    const KernelCost heavy{80.0, 1.0};
    EXPECT_GT(heavy.ns_per_cell(core), light.ns_per_cell(core));
}

} // namespace
} // namespace mfc::perf
