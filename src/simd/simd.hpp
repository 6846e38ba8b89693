#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "core/error.hpp"

/// Portable fixed-width SIMD layer.
///
/// `vd<W>` packs W doubles and maps lanes 1:1 onto consecutive cells of a
/// pencil row. Every operation is element-wise and executes the identical
/// expression tree a scalar loop would, so results are bitwise independent
/// of the width a kernel was compiled for: `vd<1>` *is* a plain double, and
/// wider vectors are compiler vector extensions (GCC/Clang) or, failing
/// that, a lane array the optimizer may or may not vectorize. Data-dependent
/// branches are expressed as mask + select so there is no per-lane control
/// flow.
///
/// Semantics contracts (relied on for golden-file byte identity):
///  - vmin(a,b)/vmax(a,b) match std::min/std::max: return b only when the
///    comparison (b<a resp. a<b) is true, else a.
///  - vabs clears the sign bit exactly like std::fabs (incl. -0.0 -> +0.0).
///  - vsqrt applies std::sqrt per lane.
///  - select(m,a,b) picks a where m is true, b elsewhere, with no
///    arithmetic on the discarded lane beyond what was already computed.
///
/// Runtime ISA dispatch: the kernel sources that instantiate these types
/// are compiled once per instruction-set level (baseline, x86-64-v3,
/// x86-64-v4; see the top-level CMakeLists.txt), each with
/// -ffp-contract=off so no level fuses a multiply-add the scalar path
/// rounds twice. Every level therefore computes the same bits; only the
/// instructions differ. Everything that is compiled per level — the
/// vector types below and the vec_*.hpp kernels — lives in the inline
/// namespace MFC_SIMD_NS (Highway's HWY_NAMESPACE pattern), which each
/// level's build defines to its own name (isa_baseline, isa_x86_64_v3,
/// isa_x86_64_v4). Without it the linker would keep one copy of each
/// inline operator and could hand AVX-512 code to baseline callers. Code
/// outside the per-level kernel builds sees isa_baseline.
#ifndef MFC_SIMD_NS
#define MFC_SIMD_NS isa_baseline
#endif

namespace mfc::simd {

/// Arena/row-buffer alignment contract: allocations the vector kernels
/// stream through are aligned to this many bytes (one full cache line,
/// enough for 512-bit vectors).
inline constexpr std::size_t kByteAlign = 64;

[[nodiscard]] inline bool is_aligned(const void* p,
                                     std::size_t align = kByteAlign) {
    return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

/// Widths the runtime dispatcher accepts.
inline constexpr int kMaxWidth = 8;

[[nodiscard]] bool width_allowed(int w);

/// Current dispatch width for the vectorized solver paths: the
/// MFC_SIMD_WIDTH environment variable or the last set_width() when
/// given, else the selected ISA level's default (4; 8 at x86-64-v4, from
/// the interleaved A/B in EXPERIMENTS.md). Width 1 selects the scalar
/// fallback everywhere.
[[nodiscard]] int width();

/// Set the dispatch width; must be one of 1, 2, 4, 8.
void set_width(int w);

/// Instruction-set levels the per-level kernel builds target, in order of
/// increasing capability.
enum class Isa : int { Baseline = 0, X86_64_V3 = 1, X86_64_V4 = 2 };
inline constexpr int kNumIsas = 3;

/// "baseline", "x86-64-v3", "x86-64-v4" (the MFC_ISA spellings).
[[nodiscard]] const char* isa_name(Isa isa);

/// Parse an MFC_ISA spelling; throws mfc::Error on an unknown name.
[[nodiscard]] Isa parse_isa(const std::string& name);

/// True when this binary carries kernels built for `isa` (only baseline
/// on non-x86-64 targets, compilers without the level names, and Debug
/// builds) and the host CPU (and OS) support it.
[[nodiscard]] bool isa_supported(Isa isa);

/// Level the solver kernels dispatch to: the highest supported level,
/// unless the MFC_ISA environment variable names one (an unknown or
/// unsupported MFC_ISA is an error, never silently replaced).
[[nodiscard]] Isa isa();

/// Select a level; throws mfc::Error when it is not supported here.
void set_isa(Isa isa);

/// Kernel slots of one level, one per width: [0] W=1, [1] W=2, [2] W=4,
/// [3] W=8.
template <class Fn> using ByWidth = std::array<Fn, 4>;

[[nodiscard]] constexpr int width_slot(int w) {
    return w == 8 ? 3 : w == 4 ? 2 : w == 2 ? 1 : 0;
}

/// One kernel table per level, indexed by Isa; levels not compiled into
/// this binary hold nullptr (isa() never selects them).
template <class Table> using ByIsa = std::array<const Table*, kNumIsas>;

/// The one dispatch point for (level x width): the `slot` kernel of the
/// selected level's table at the selected width. Kernels call this once
/// per sweep:
///   simd::dispatch(kTables, &Table::sweep)(args...);
template <class Table, class Fn>
[[nodiscard]] Fn dispatch(const ByIsa<Table>& tables,
                          ByWidth<Fn> Table::*slot) {
    return (tables[static_cast<std::size_t>(isa())]->*slot)
        [static_cast<std::size_t>(width_slot(width()))];
}

} // namespace mfc::simd

/// Per-level table plumbing. A kernel source defines its level's table as
///   const Table MFC_SIMD_PER_ISA(kName) = {MFC_SIMD_BY_WIDTH(fn), ...};
/// (kName_isa_<level>, a distinct symbol per level build), and its header
/// gathers every compiled level's table with
///   MFC_SIMD_DECLARE_BY_ISA(Table, kName)
/// into `inline constexpr simd::ByIsa<Table> kName`.
#define MFC_SIMD_CAT_(a, b) a##_##b
#define MFC_SIMD_CAT(a, b) MFC_SIMD_CAT_(a, b)
#define MFC_SIMD_PER_ISA(name) MFC_SIMD_CAT(name, MFC_SIMD_NS)
#define MFC_SIMD_BY_WIDTH(fn) {{&fn<1>, &fn<2>, &fn<4>, &fn<8>}}
#if MFC_SIMD_MULTI_ISA
#define MFC_SIMD_DECLARE_BY_ISA(Table, name)                                   \
    extern const Table name##_isa_baseline;                                    \
    extern const Table name##_isa_x86_64_v3;                                   \
    extern const Table name##_isa_x86_64_v4;                                   \
    inline constexpr ::mfc::simd::ByIsa<Table> name = {                        \
        &name##_isa_baseline, &name##_isa_x86_64_v3, &name##_isa_x86_64_v4}
#else
#define MFC_SIMD_DECLARE_BY_ISA(Table, name)                                   \
    extern const Table name##_isa_baseline;                                    \
    inline constexpr ::mfc::simd::ByIsa<Table> name = {&name##_isa_baseline,   \
                                                       nullptr, nullptr}
#endif

namespace mfc::simd {
inline namespace MFC_SIMD_NS {

#if defined(__GNUC__) || defined(__clang__)
#define MFC_SIMD_VECTOR_EXT 1
#else
#define MFC_SIMD_VECTOR_EXT 0
#endif

namespace detail {

#if MFC_SIMD_VECTOR_EXT
template <int W> struct native;
template <> struct native<2> {
    typedef double vec __attribute__((vector_size(16)));
    typedef long long mask __attribute__((vector_size(16)));
};
template <> struct native<4> {
    typedef double vec __attribute__((vector_size(32)));
    typedef long long mask __attribute__((vector_size(32)));
};
template <> struct native<8> {
    typedef double vec __attribute__((vector_size(64)));
    typedef long long mask __attribute__((vector_size(64)));
};
#endif

} // namespace detail

template <int W> struct vmask;
template <int W> struct vd;

#if MFC_SIMD_VECTOR_EXT

/// Boolean lane mask: all-ones / all-zero 64-bit lanes, as produced by
/// vector comparisons.
template <int W> struct vmask {
    typename detail::native<W>::mask m;

    friend vmask operator&&(vmask a, vmask b) { return {a.m & b.m}; }
    friend vmask operator||(vmask a, vmask b) { return {a.m | b.m}; }
    friend vmask operator!(vmask a) { return {~a.m}; }

    [[nodiscard]] bool lane(int i) const { return m[i] != 0; }
};

template <int W> [[nodiscard]] inline bool any(vmask<W> m) {
    bool r = false;
    for (int i = 0; i < W; ++i) { r = r || (m.m[i] != 0); }
    return r;
}

template <int W> [[nodiscard]] inline bool all(vmask<W> m) {
    bool r = true;
    for (int i = 0; i < W; ++i) { r = r && (m.m[i] != 0); }
    return r;
}

/// W packed doubles; lanes map to consecutive row cells.
template <int W> struct vd {
    using native_t = typename detail::native<W>::vec;
    native_t v;

    static constexpr int width = W;

    vd() = default;
    vd(native_t n) : v(n) {}
    /// Broadcast: every lane holds the scalar.
    vd(double s) : v(s - native_t{}) {}

    [[nodiscard]] static vd load(const double* p) {
        vd r;
        std::memcpy(&r.v, p, sizeof(native_t));
        return r;
    }
    void store(double* p) const { std::memcpy(p, &v, sizeof(native_t)); }

    [[nodiscard]] double lane(int i) const { return v[i]; }
    void set_lane(int i, double s) { v[i] = s; }

    friend vd operator+(vd a, vd b) { return {a.v + b.v}; }
    friend vd operator-(vd a, vd b) { return {a.v - b.v}; }
    friend vd operator*(vd a, vd b) { return {a.v * b.v}; }
    friend vd operator/(vd a, vd b) { return {a.v / b.v}; }
    friend vd operator-(vd a) { return {-a.v}; }

    vd& operator+=(vd o) { v += o.v; return *this; }
    vd& operator-=(vd o) { v -= o.v; return *this; }
    vd& operator*=(vd o) { v *= o.v; return *this; }
    vd& operator/=(vd o) { v /= o.v; return *this; }

    friend vmask<W> operator<(vd a, vd b) { return {a.v < b.v}; }
    friend vmask<W> operator<=(vd a, vd b) { return {a.v <= b.v}; }
    friend vmask<W> operator>(vd a, vd b) { return {a.v > b.v}; }
    friend vmask<W> operator>=(vd a, vd b) { return {a.v >= b.v}; }
    friend vmask<W> operator==(vd a, vd b) { return {a.v == b.v}; }
};

/// a where m, b elsewhere.
template <int W> [[nodiscard]] inline vd<W> select(vmask<W> m, vd<W> a, vd<W> b) {
    return {m.m ? a.v : b.v};
}

#else // !MFC_SIMD_VECTOR_EXT: plain lane arrays (portable fallback)

template <int W> struct vmask {
    bool m[W];

    friend vmask operator&&(vmask a, vmask b) {
        vmask r;
        for (int i = 0; i < W; ++i) { r.m[i] = a.m[i] && b.m[i]; }
        return r;
    }
    friend vmask operator||(vmask a, vmask b) {
        vmask r;
        for (int i = 0; i < W; ++i) { r.m[i] = a.m[i] || b.m[i]; }
        return r;
    }
    friend vmask operator!(vmask a) {
        vmask r;
        for (int i = 0; i < W; ++i) { r.m[i] = !a.m[i]; }
        return r;
    }

    [[nodiscard]] bool lane(int i) const { return m[i]; }
};

template <int W> [[nodiscard]] inline bool any(vmask<W> m) {
    bool r = false;
    for (int i = 0; i < W; ++i) { r = r || m.m[i]; }
    return r;
}

template <int W> [[nodiscard]] inline bool all(vmask<W> m) {
    bool r = true;
    for (int i = 0; i < W; ++i) { r = r && m.m[i]; }
    return r;
}

#define MFC_SIMD_LANEWISE(op)                                                  \
    vd r;                                                                      \
    for (int i = 0; i < W; ++i) { r.v[i] = op; }                               \
    return r

#define MFC_SIMD_CMP(op)                                                       \
    vmask<W> r;                                                                \
    for (int i = 0; i < W; ++i) { r.m[i] = op; }                               \
    return r

template <int W> struct vd {
    double v[W];

    static constexpr int width = W;

    vd() = default;
    vd(double s) {
        for (int i = 0; i < W; ++i) { v[i] = s; }
    }

    [[nodiscard]] static vd load(const double* p) {
        vd r;
        std::memcpy(r.v, p, W * sizeof(double));
        return r;
    }
    void store(double* p) const { std::memcpy(p, v, W * sizeof(double)); }

    [[nodiscard]] double lane(int i) const { return v[i]; }
    void set_lane(int i, double s) { v[i] = s; }

    friend vd operator+(vd a, vd b) { MFC_SIMD_LANEWISE(a.v[i] + b.v[i]); }
    friend vd operator-(vd a, vd b) { MFC_SIMD_LANEWISE(a.v[i] - b.v[i]); }
    friend vd operator*(vd a, vd b) { MFC_SIMD_LANEWISE(a.v[i] * b.v[i]); }
    friend vd operator/(vd a, vd b) { MFC_SIMD_LANEWISE(a.v[i] / b.v[i]); }
    friend vd operator-(vd a) { MFC_SIMD_LANEWISE(-a.v[i]); }

    vd& operator+=(vd o) { return *this = *this + o; }
    vd& operator-=(vd o) { return *this = *this - o; }
    vd& operator*=(vd o) { return *this = *this * o; }
    vd& operator/=(vd o) { return *this = *this / o; }

    friend vmask<W> operator<(vd a, vd b) { MFC_SIMD_CMP(a.v[i] < b.v[i]); }
    friend vmask<W> operator<=(vd a, vd b) { MFC_SIMD_CMP(a.v[i] <= b.v[i]); }
    friend vmask<W> operator>(vd a, vd b) { MFC_SIMD_CMP(a.v[i] > b.v[i]); }
    friend vmask<W> operator>=(vd a, vd b) { MFC_SIMD_CMP(a.v[i] >= b.v[i]); }
    friend vmask<W> operator==(vd a, vd b) { MFC_SIMD_CMP(a.v[i] == b.v[i]); }
};

template <int W> [[nodiscard]] inline vd<W> select(vmask<W> m, vd<W> a, vd<W> b) {
    vd<W> r;
    for (int i = 0; i < W; ++i) { r.v[i] = m.m[i] ? a.v[i] : b.v[i]; }
    return r;
}

#undef MFC_SIMD_LANEWISE
#undef MFC_SIMD_CMP

#endif // MFC_SIMD_VECTOR_EXT

/// Scalar specialization: the fallback path is literally scalar code, so
/// W=1 kernels execute the exact instructions the pre-SIMD solver did.
template <> struct vd<1> {
    double v;

    static constexpr int width = 1;

    vd() = default;
    vd(double s) : v(s) {}

    [[nodiscard]] static vd load(const double* p) { return {*p}; }
    void store(double* p) const { *p = v; }

    [[nodiscard]] double lane(int) const { return v; }
    void set_lane(int, double s) { v = s; }

    friend vd operator+(vd a, vd b) { return {a.v + b.v}; }
    friend vd operator-(vd a, vd b) { return {a.v - b.v}; }
    friend vd operator*(vd a, vd b) { return {a.v * b.v}; }
    friend vd operator/(vd a, vd b) { return {a.v / b.v}; }
    friend vd operator-(vd a) { return {-a.v}; }

    vd& operator+=(vd o) { v += o.v; return *this; }
    vd& operator-=(vd o) { v -= o.v; return *this; }
    vd& operator*=(vd o) { v *= o.v; return *this; }
    vd& operator/=(vd o) { v /= o.v; return *this; }

    friend vmask<1> operator<(vd a, vd b);
    friend vmask<1> operator<=(vd a, vd b);
    friend vmask<1> operator>(vd a, vd b);
    friend vmask<1> operator>=(vd a, vd b);
    friend vmask<1> operator==(vd a, vd b);
};

template <> struct vmask<1> {
    bool m;

    friend vmask operator&&(vmask a, vmask b) { return {a.m && b.m}; }
    friend vmask operator||(vmask a, vmask b) { return {a.m || b.m}; }
    friend vmask operator!(vmask a) { return {!a.m}; }

    [[nodiscard]] bool lane(int) const { return m; }
};

inline vmask<1> operator<(vd<1> a, vd<1> b) { return {a.v < b.v}; }
inline vmask<1> operator<=(vd<1> a, vd<1> b) { return {a.v <= b.v}; }
inline vmask<1> operator>(vd<1> a, vd<1> b) { return {a.v > b.v}; }
inline vmask<1> operator>=(vd<1> a, vd<1> b) { return {a.v >= b.v}; }
inline vmask<1> operator==(vd<1> a, vd<1> b) { return {a.v == b.v}; }

[[nodiscard]] inline bool any(vmask<1> m) { return m.m; }
[[nodiscard]] inline bool all(vmask<1> m) { return m.m; }

template <> [[nodiscard]] inline vd<1> select(vmask<1> m, vd<1> a, vd<1> b) {
    return {m.m ? a.v : b.v};
}

/// std::min semantics: b<a picks b, ties and NaN-in-b pick a.
template <int W> [[nodiscard]] inline vd<W> vmin(vd<W> a, vd<W> b) {
    return select(b < a, b, a);
}

/// std::max semantics: a<b picks b, ties and NaN-in-b pick a.
template <int W> [[nodiscard]] inline vd<W> vmax(vd<W> a, vd<W> b) {
    return select(a < b, b, a);
}

/// std::fabs per lane (sign bit cleared; -0.0 -> +0.0).
template <int W> [[nodiscard]] inline vd<W> vabs(vd<W> a) {
    double t[W];
    a.store(t);
    for (int i = 0; i < W; ++i) { t[i] = std::fabs(t[i]); }
    return vd<W>::load(t);
}
template <> [[nodiscard]] inline vd<1> vabs(vd<1> a) { return {std::fabs(a.v)}; }

/// std::sqrt per lane.
template <int W> [[nodiscard]] inline vd<W> vsqrt(vd<W> a) {
    double t[W];
    a.store(t);
    for (int i = 0; i < W; ++i) { t[i] = std::sqrt(t[i]); }
    return vd<W>::load(t);
}
template <> [[nodiscard]] inline vd<1> vsqrt(vd<1> a) { return {std::sqrt(a.v)}; }

/// Gather W lanes from a strided sequence (stride in doubles). stride==1
/// degenerates to an unaligned contiguous load.
template <int W>
[[nodiscard]] inline vd<W> load_strided(const double* p, std::ptrdiff_t stride) {
    if (stride == 1) { return vd<W>::load(p); }
    vd<W> r;
    for (int i = 0; i < W; ++i) { r.set_lane(i, p[i * stride]); }
    return r;
}
template <>
[[nodiscard]] inline vd<1> load_strided(const double* p, std::ptrdiff_t) {
    return vd<1>::load(p);
}

/// Scatter W lanes to a strided sequence (stride in doubles).
template <int W>
inline void store_strided(vd<W> v, double* p, std::ptrdiff_t stride) {
    if (stride == 1) {
        v.store(p);
        return;
    }
    for (int i = 0; i < W; ++i) { p[i * stride] = v.lane(i); }
}
template <> inline void store_strided(vd<1> v, double* p, std::ptrdiff_t) {
    v.store(p);
}

} // inline namespace MFC_SIMD_NS
} // namespace mfc::simd
