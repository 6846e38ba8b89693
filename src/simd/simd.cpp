#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

namespace mfc::simd {

namespace {

// Per-level default widths, from the interleaved A/B on the standardized
// case in EXPERIMENTS.md ("Runtime ISA dispatch").
constexpr int kDefaultWidth[kNumIsas] = {4, 4, 8};

int env_width() {
    const char* env = std::getenv("MFC_SIMD_WIDTH");
    if (env == nullptr || *env == '\0') { return 0; }
    int w = 0;
    try {
        w = std::stoi(env);
    } catch (const std::exception&) {
        fail("MFC_SIMD_WIDTH must be an integer (got \"" + std::string(env) +
             "\")");
    }
    MFC_REQUIRE(width_allowed(w),
                "MFC_SIMD_WIDTH must be 1, 2, 4, or 8 (got " +
                    std::string(env) + ")");
    return w;
}

/// Explicit width (MFC_SIMD_WIDTH or set_width()); 0 = the level default.
std::atomic<int>& width_state() {
    static std::atomic<int> w{env_width()};
    return w;
}

bool isa_compiled(Isa isa) {
#if MFC_SIMD_MULTI_ISA
    return static_cast<int>(isa) < kNumIsas;
#else
    return isa == Isa::Baseline;
#endif
}

bool cpu_supports(Isa isa) {
#if MFC_SIMD_MULTI_ISA
    __builtin_cpu_init();
    switch (isa) {
    case Isa::Baseline: return true;
    case Isa::X86_64_V3: return __builtin_cpu_supports("x86-64-v3") != 0;
    case Isa::X86_64_V4: return __builtin_cpu_supports("x86-64-v4") != 0;
    }
    return false;
#else
    return isa == Isa::Baseline;
#endif
}

std::string supported_list() {
    std::string out;
    for (int i = 0; i < kNumIsas; ++i) {
        const auto l = static_cast<Isa>(i);
        if (!isa_supported(l)) continue;
        if (!out.empty()) out += ", ";
        out += isa_name(l);
    }
    return out;
}

Isa initial_isa() {
    const char* env = std::getenv("MFC_ISA");
    if (env != nullptr && *env != '\0') {
        const Isa want = parse_isa(env);
        MFC_REQUIRE(isa_supported(want),
                    "MFC_ISA=" + std::string(env) +
                        " is not supported on this host (supported: " +
                        supported_list() + ")");
        return want;
    }
    for (int i = kNumIsas - 1; i > 0; --i) {
        if (isa_supported(static_cast<Isa>(i))) return static_cast<Isa>(i);
    }
    return Isa::Baseline;
}

std::atomic<Isa>& isa_state() {
    static std::atomic<Isa> l{initial_isa()};
    return l;
}

} // namespace

bool width_allowed(int w) { return w == 1 || w == 2 || w == 4 || w == 8; }

int width() {
    const int w = width_state().load(std::memory_order_relaxed);
    return w != 0 ? w : kDefaultWidth[static_cast<std::size_t>(isa())];
}

void set_width(int w) {
    MFC_REQUIRE(width_allowed(w), "SIMD width must be 1, 2, 4, or 8 (got " +
                                      std::to_string(w) + ")");
    width_state().store(w, std::memory_order_relaxed);
}

const char* isa_name(Isa isa) {
    switch (isa) {
    case Isa::Baseline: return "baseline";
    case Isa::X86_64_V3: return "x86-64-v3";
    case Isa::X86_64_V4: return "x86-64-v4";
    }
    return "unknown";
}

Isa parse_isa(const std::string& name) {
    for (int i = 0; i < kNumIsas; ++i) {
        if (name == isa_name(static_cast<Isa>(i))) return static_cast<Isa>(i);
    }
    fail("MFC_ISA must be baseline, x86-64-v3, or x86-64-v4 (got \"" + name +
         "\")");
}

bool isa_supported(Isa isa) {
    static const bool supported[kNumIsas] = {
        isa_compiled(Isa::Baseline) && cpu_supports(Isa::Baseline),
        isa_compiled(Isa::X86_64_V3) && cpu_supports(Isa::X86_64_V3),
        isa_compiled(Isa::X86_64_V4) && cpu_supports(Isa::X86_64_V4)};
    const int i = static_cast<int>(isa);
    return i >= 0 && i < kNumIsas && supported[i];
}

Isa isa() { return isa_state().load(std::memory_order_relaxed); }

void set_isa(Isa isa) {
    MFC_REQUIRE(isa_supported(isa),
                std::string("ISA level ") + isa_name(isa) +
                    " is not supported on this host (supported: " +
                    supported_list() + ")");
    isa_state().store(isa, std::memory_order_relaxed);
}

} // namespace mfc::simd
