/**
 * @file
 * Portable fixed-width SIMD abstraction for the hot kernels
 * (DESIGN.md "SIMD & data layout").
 *
 * The backend (scalar / AVX2) is chosen at configure time via the
 * `ILLIXR_SIMD` CMake option, which defines exactly one of
 * ILLIXR_SIMD_BACKEND_SCALAR / _AVX2. The *algorithmic* lane width is
 * fixed per element type — Vec<float, 8> and Vec<double, 4> —
 * independent of the backend: AVX2 models a Vec as one 256-bit
 * register and the scalar backend as a plain lane array executing the
 * identical sequence of IEEE-754 operations per lane.
 *
 * Cross-backend bit-identity contract:
 *
 *  - Every lane operation (add/sub/mul/div/sqrt, min/max with
 *    `(a OP b) ? a : b` select semantics, compares, blends) performs
 *    the same correctly-rounded IEEE operation on every backend.
 *  - madd(acc, a, b) is an UNFUSED multiply-then-add (two roundings)
 *    on every backend. The build adds -ffp-contract=off globally so
 *    the compiler cannot fuse the scalar emulation into an FMA, and
 *    never passes -mfma.
 *  - hsum() is a fixed halving tree, not a serial sweep: the upper
 *    half vector is added onto the lower half log2(W) times. For
 *    W = 8: r = ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)); for
 *    W = 4: r = (l0+l2) + (l1+l3). Identical on every backend.
 *
 * Kernels built on these primitives therefore produce bit-identical
 * results across scalar/AVX2 builds; whether a kernel is also
 * bit-identical to its pre-SIMD scalar form depends on whether it
 * preserved the old per-element accumulation order (the per-kernel
 * catalog lives in DESIGN.md).
 */

#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if defined(ILLIXR_SIMD_BACKEND_AVX2)
#include <immintrin.h>
#endif

namespace illixr::simd {

/** Backend id: 0 scalar, 2 AVX2 (kernel.simd_backend gauge). */
constexpr int
backendId()
{
#if defined(ILLIXR_SIMD_BACKEND_AVX2)
    return 2;
#else
    return 0;
#endif
}

constexpr const char *
backendName()
{
#if defined(ILLIXR_SIMD_BACKEND_AVX2)
    return "avx2";
#else
    return "scalar";
#endif
}

/**
 * Always-on (NDEBUG included) non-overlap precondition for the
 * raw-pointer kernel entry points: the vectorized loops assume
 * src/dst do not alias, and a silent overlap would corrupt outputs.
 */
inline void
requireNoOverlap(const void *a, std::size_t a_bytes, const void *b,
                 std::size_t b_bytes, const char *what)
{
    const auto av = reinterpret_cast<std::uintptr_t>(a);
    const auto bv = reinterpret_cast<std::uintptr_t>(b);
    if (a && b && av < bv + b_bytes && bv < av + a_bytes) {
        std::fprintf(stderr,
                     "illixr: %s: overlapping src/dst ranges "
                     "(%p+%zu vs %p+%zu)\n",
                     what, a, a_bytes, b, b_bytes);
        std::abort();
    }
}

// ---------------------------------------------------------------------
// Scalar reference implementation (always available; the scalar
// backend uses it directly, and simd_test uses it as the oracle the
// AVX2 backend must match bit-for-bit).
// ---------------------------------------------------------------------

/**
 * Fixed-width lane vector, scalar emulation. W must be a power of
 * two. Masks produced by compares are Vecs whose lanes carry all-one
 * or all-zero bit patterns, exactly like the SSE/AVX compare
 * instructions.
 */
template <typename T, std::size_t W> struct VecRef
{
    static_assert((W & (W - 1)) == 0 && W >= 2, "power-of-two width");
    T lane[W];

    using UInt = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                    std::uint64_t>;

    static VecRef
    load(const T *p)
    {
        VecRef r;
        for (std::size_t i = 0; i < W; ++i)
            r.lane[i] = p[i];
        return r;
    }

    void
    store(T *p) const
    {
        for (std::size_t i = 0; i < W; ++i)
            p[i] = lane[i];
    }

    static VecRef
    broadcast(T v)
    {
        VecRef r;
        for (std::size_t i = 0; i < W; ++i)
            r.lane[i] = v;
        return r;
    }

    static VecRef
    zero()
    {
        return broadcast(T(0));
    }

    friend VecRef
    operator+(VecRef a, VecRef b)
    {
        for (std::size_t i = 0; i < W; ++i)
            a.lane[i] = a.lane[i] + b.lane[i];
        return a;
    }

    friend VecRef
    operator-(VecRef a, VecRef b)
    {
        for (std::size_t i = 0; i < W; ++i)
            a.lane[i] = a.lane[i] - b.lane[i];
        return a;
    }

    friend VecRef
    operator*(VecRef a, VecRef b)
    {
        for (std::size_t i = 0; i < W; ++i)
            a.lane[i] = a.lane[i] * b.lane[i];
        return a;
    }

    friend VecRef
    operator/(VecRef a, VecRef b)
    {
        for (std::size_t i = 0; i < W; ++i)
            a.lane[i] = a.lane[i] / b.lane[i];
        return a;
    }
};

/** (a < b) ? a : b per lane — _mm_min_ps operand-order semantics. */
template <typename T, std::size_t W>
inline VecRef<T, W>
vmin(VecRef<T, W> a, VecRef<T, W> b)
{
    for (std::size_t i = 0; i < W; ++i)
        a.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
    return a;
}

/** (a > b) ? a : b per lane — _mm_max_ps operand-order semantics. */
template <typename T, std::size_t W>
inline VecRef<T, W>
vmax(VecRef<T, W> a, VecRef<T, W> b)
{
    for (std::size_t i = 0; i < W; ++i)
        a.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    return a;
}

/** Unfused acc + a*b (two roundings) on EVERY backend. */
template <typename T, std::size_t W>
inline VecRef<T, W>
madd(VecRef<T, W> acc, VecRef<T, W> a, VecRef<T, W> b)
{
    return acc + a * b;
}

/** Fixed halving-tree horizontal sum (see file header). */
template <typename T, std::size_t W>
inline T
hsum(VecRef<T, W> v)
{
    for (std::size_t half = W / 2; half >= 1; half /= 2)
        for (std::size_t i = 0; i < half; ++i)
            v.lane[i] = v.lane[i] + v.lane[i + half];
    return v.lane[0];
}

namespace detail {

template <typename T, std::size_t W>
inline VecRef<T, W>
maskFromBool(const bool (&m)[W])
{
    using U = typename VecRef<T, W>::UInt;
    VecRef<T, W> r;
    for (std::size_t i = 0; i < W; ++i)
        r.lane[i] = std::bit_cast<T>(m[i] ? U(~U(0)) : U(0));
    return r;
}

} // namespace detail

template <typename T, std::size_t W>
inline VecRef<T, W>
cmpGT(VecRef<T, W> a, VecRef<T, W> b)
{
    bool m[W];
    for (std::size_t i = 0; i < W; ++i)
        m[i] = a.lane[i] > b.lane[i];
    return detail::maskFromBool<T, W>(m);
}

template <typename T, std::size_t W>
inline VecRef<T, W>
cmpLT(VecRef<T, W> a, VecRef<T, W> b)
{
    bool m[W];
    for (std::size_t i = 0; i < W; ++i)
        m[i] = a.lane[i] < b.lane[i];
    return detail::maskFromBool<T, W>(m);
}

template <typename T, std::size_t W>
inline VecRef<T, W>
cmpGE(VecRef<T, W> a, VecRef<T, W> b)
{
    bool m[W];
    for (std::size_t i = 0; i < W; ++i)
        m[i] = a.lane[i] >= b.lane[i];
    return detail::maskFromBool<T, W>(m);
}

template <typename T, std::size_t W>
inline VecRef<T, W>
bitAnd(VecRef<T, W> a, VecRef<T, W> b)
{
    using U = typename VecRef<T, W>::UInt;
    for (std::size_t i = 0; i < W; ++i)
        a.lane[i] = std::bit_cast<T>(
            static_cast<U>(std::bit_cast<U>(a.lane[i]) &
                           std::bit_cast<U>(b.lane[i])));
    return a;
}

template <typename T, std::size_t W>
inline VecRef<T, W>
bitOr(VecRef<T, W> a, VecRef<T, W> b)
{
    using U = typename VecRef<T, W>::UInt;
    for (std::size_t i = 0; i < W; ++i)
        a.lane[i] = std::bit_cast<T>(
            static_cast<U>(std::bit_cast<U>(a.lane[i]) |
                           std::bit_cast<U>(b.lane[i])));
    return a;
}

template <typename T, std::size_t W>
inline VecRef<T, W>
bitXor(VecRef<T, W> a, VecRef<T, W> b)
{
    using U = typename VecRef<T, W>::UInt;
    for (std::size_t i = 0; i < W; ++i)
        a.lane[i] = std::bit_cast<T>(
            static_cast<U>(std::bit_cast<U>(a.lane[i]) ^
                           std::bit_cast<U>(b.lane[i])));
    return a;
}

/** ~mask & v per lane (andnot operand order matches _mm_andnot). */
template <typename T, std::size_t W>
inline VecRef<T, W>
andNot(VecRef<T, W> mask, VecRef<T, W> v)
{
    using U = typename VecRef<T, W>::UInt;
    for (std::size_t i = 0; i < W; ++i)
        mask.lane[i] = std::bit_cast<T>(
            static_cast<U>(~std::bit_cast<U>(mask.lane[i]) &
                           std::bit_cast<U>(v.lane[i])));
    return mask;
}

/** mask ? a : b per lane (bitwise blend). */
template <typename T, std::size_t W>
inline VecRef<T, W>
select(VecRef<T, W> mask, VecRef<T, W> a, VecRef<T, W> b)
{
    return bitOr(bitAnd(mask, a), andNot(mask, b));
}

/** Sign bits of all lanes, lane 0 = bit 0 (movemask semantics). */
template <typename T, std::size_t W>
inline int
maskBits(VecRef<T, W> v)
{
    using U = typename VecRef<T, W>::UInt;
    int bits = 0;
    for (std::size_t i = 0; i < W; ++i)
        if (std::bit_cast<U>(v.lane[i]) >> (sizeof(T) * 8 - 1))
            bits |= 1 << i;
    return bits;
}

// Complex-pair helpers for interleaved (re, im) data in Vec<double,4>
// (two complex numbers per vector).

/** [v0, v0, v2, v2] */
inline VecRef<double, 4>
dupEven(VecRef<double, 4> v)
{
    return {v.lane[0], v.lane[0], v.lane[2], v.lane[2]};
}

/** [v1, v1, v3, v3] */
inline VecRef<double, 4>
dupOdd(VecRef<double, 4> v)
{
    return {v.lane[1], v.lane[1], v.lane[3], v.lane[3]};
}

/** [v1, v0, v3, v2] */
inline VecRef<double, 4>
swapPairs(VecRef<double, 4> v)
{
    return {v.lane[1], v.lane[0], v.lane[3], v.lane[2]};
}

/** a + (-b0, +b1, -b2, +b3): subtract even lanes, add odd lanes. */
inline VecRef<double, 4>
addSub(VecRef<double, 4> a, VecRef<double, 4> b)
{
    return {a.lane[0] - b.lane[0], a.lane[1] + b.lane[1],
            a.lane[2] - b.lane[2], a.lane[3] + b.lane[3]};
}

/** Load 4 consecutive floats widened to double (exact conversion). */
inline VecRef<double, 4>
widenLoad4(const float *p, VecRef<double, 4> *)
{
    return {static_cast<double>(p[0]), static_cast<double>(p[1]),
            static_cast<double>(p[2]), static_cast<double>(p[3])};
}

/** Store 4 doubles narrowed to float (IEEE round-to-nearest). */
inline void
narrowStore4(VecRef<double, 4> v, float *p)
{
    p[0] = static_cast<float>(v.lane[0]);
    p[1] = static_cast<float>(v.lane[1]);
    p[2] = static_cast<float>(v.lane[2]);
    p[3] = static_cast<float>(v.lane[3]);
}

/**
 * Each lane converted to int32 with truncation and back to double:
 * exactly `static_cast<double>(static_cast<int>(x))`, so -0.0 and
 * (-1, 0) become +0.0. Lanes must lie in int range.
 */
inline VecRef<double, 4>
truncInt(VecRef<double, 4> v)
{
    for (double &l : v.lane)
        l = static_cast<double>(static_cast<std::int32_t>(l));
    return v;
}

/** std::floor per lane: exact, and -0.0 stays -0.0. */
inline VecRef<double, 4>
floor(VecRef<double, 4> v)
{
    for (double &l : v.lane)
        l = std::floor(l);
    return v;
}

/**
 * base[ia] and base[ib] widened to double per lane, in one 8-element
 * gather on AVX2. Each lane of @p ia and @p ib must hold an exact
 * integer that indexes a valid element.
 */
inline void
gatherWiden2(const float *base, VecRef<double, 4> ia, VecRef<double, 4> ib,
             VecRef<double, 4> &a, VecRef<double, 4> &b)
{
    for (std::size_t i = 0; i < 4; ++i) {
        a.lane[i] = base[static_cast<int>(ia.lane[i])];
        b.lane[i] = base[static_cast<int>(ib.lane[i])];
    }
}

#if !defined(ILLIXR_SIMD_BACKEND_AVX2)

// ---------------------------------------------------------------------
// Scalar backend: the reference IS the implementation.
// ---------------------------------------------------------------------

template <typename T, std::size_t W> using Vec = VecRef<T, W>;

#else

// ---------------------------------------------------------------------
// AVX2 backend. The generic template stays the scalar lane array
// (used for widths without a register mapping); float x 8 and
// double x 4 get register implementations below.
// ---------------------------------------------------------------------

template <typename T, std::size_t W> struct Vec : VecRef<T, W>
{
    Vec() = default;
    Vec(VecRef<T, W> v) : VecRef<T, W>(v) {}
};

template <> struct Vec<float, 8>
{
    __m256 v;

    static Vec
    load(const float *p)
    {
        return {_mm256_loadu_ps(p)};
    }

    void
    store(float *p) const
    {
        _mm256_storeu_ps(p, v);
    }

    static Vec
    broadcast(float s)
    {
        return {_mm256_set1_ps(s)};
    }

    static Vec
    zero()
    {
        return {_mm256_setzero_ps()};
    }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {_mm256_add_ps(a.v, b.v)};
    }

    friend Vec
    operator-(Vec a, Vec b)
    {
        return {_mm256_sub_ps(a.v, b.v)};
    }

    friend Vec
    operator*(Vec a, Vec b)
    {
        return {_mm256_mul_ps(a.v, b.v)};
    }

    friend Vec
    operator/(Vec a, Vec b)
    {
        return {_mm256_div_ps(a.v, b.v)};
    }
};

inline Vec<float, 8>
vmin(Vec<float, 8> a, Vec<float, 8> b)
{
    return {_mm256_min_ps(a.v, b.v)};
}

inline Vec<float, 8>
vmax(Vec<float, 8> a, Vec<float, 8> b)
{
    return {_mm256_max_ps(a.v, b.v)};
}

inline Vec<float, 8>
madd(Vec<float, 8> acc, Vec<float, 8> a, Vec<float, 8> b)
{
    return acc + a * b; // -ffp-contract=off and no -mfma: never fused.
}

inline float
hsum(Vec<float, 8> v)
{
    // The reference tree: halves, then quarters.
    const __m128 m =
        _mm_add_ps(_mm256_castps256_ps128(v.v),
                   _mm256_extractf128_ps(v.v, 1));
    const __m128 n = _mm_add_ps(m, _mm_movehl_ps(m, m));
    const __m128 r =
        _mm_add_ss(n, _mm_shuffle_ps(n, n, _MM_SHUFFLE(1, 1, 1, 1)));
    return _mm_cvtss_f32(r);
}

inline Vec<float, 8>
cmpGT(Vec<float, 8> a, Vec<float, 8> b)
{
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
}

inline Vec<float, 8>
cmpLT(Vec<float, 8> a, Vec<float, 8> b)
{
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
}

inline Vec<float, 8>
cmpGE(Vec<float, 8> a, Vec<float, 8> b)
{
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)};
}

inline Vec<float, 8>
bitAnd(Vec<float, 8> a, Vec<float, 8> b)
{
    return {_mm256_and_ps(a.v, b.v)};
}

inline Vec<float, 8>
bitOr(Vec<float, 8> a, Vec<float, 8> b)
{
    return {_mm256_or_ps(a.v, b.v)};
}

inline Vec<float, 8>
bitXor(Vec<float, 8> a, Vec<float, 8> b)
{
    return {_mm256_xor_ps(a.v, b.v)};
}

inline Vec<float, 8>
andNot(Vec<float, 8> mask, Vec<float, 8> v)
{
    return {_mm256_andnot_ps(mask.v, v.v)};
}

inline Vec<float, 8>
select(Vec<float, 8> mask, Vec<float, 8> a, Vec<float, 8> b)
{
    return bitOr(bitAnd(mask, a), andNot(mask, b));
}

inline int
maskBits(Vec<float, 8> v)
{
    return _mm256_movemask_ps(v.v);
}

template <> struct Vec<double, 4>
{
    __m256d v;

    static Vec
    load(const double *p)
    {
        return {_mm256_loadu_pd(p)};
    }

    void
    store(double *p) const
    {
        _mm256_storeu_pd(p, v);
    }

    static Vec
    broadcast(double s)
    {
        return {_mm256_set1_pd(s)};
    }

    static Vec
    zero()
    {
        return {_mm256_setzero_pd()};
    }

    friend Vec
    operator+(Vec a, Vec b)
    {
        return {_mm256_add_pd(a.v, b.v)};
    }

    friend Vec
    operator-(Vec a, Vec b)
    {
        return {_mm256_sub_pd(a.v, b.v)};
    }

    friend Vec
    operator*(Vec a, Vec b)
    {
        return {_mm256_mul_pd(a.v, b.v)};
    }

    friend Vec
    operator/(Vec a, Vec b)
    {
        return {_mm256_div_pd(a.v, b.v)};
    }
};

inline Vec<double, 4>
vmin(Vec<double, 4> a, Vec<double, 4> b)
{
    return {_mm256_min_pd(a.v, b.v)};
}

inline Vec<double, 4>
vmax(Vec<double, 4> a, Vec<double, 4> b)
{
    return {_mm256_max_pd(a.v, b.v)};
}

inline Vec<double, 4>
madd(Vec<double, 4> acc, Vec<double, 4> a, Vec<double, 4> b)
{
    return acc + a * b;
}

inline double
hsum(Vec<double, 4> v)
{
    const __m128d m =
        _mm_add_pd(_mm256_castpd256_pd128(v.v),
                   _mm256_extractf128_pd(v.v, 1));
    const __m128d r = _mm_add_sd(m, _mm_unpackhi_pd(m, m));
    return _mm_cvtsd_f64(r);
}

inline Vec<double, 4>
cmpGT(Vec<double, 4> a, Vec<double, 4> b)
{
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}

inline Vec<double, 4>
cmpLT(Vec<double, 4> a, Vec<double, 4> b)
{
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}

inline Vec<double, 4>
cmpGE(Vec<double, 4> a, Vec<double, 4> b)
{
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}

inline Vec<double, 4>
bitAnd(Vec<double, 4> a, Vec<double, 4> b)
{
    return {_mm256_and_pd(a.v, b.v)};
}

inline Vec<double, 4>
bitOr(Vec<double, 4> a, Vec<double, 4> b)
{
    return {_mm256_or_pd(a.v, b.v)};
}

inline Vec<double, 4>
bitXor(Vec<double, 4> a, Vec<double, 4> b)
{
    return {_mm256_xor_pd(a.v, b.v)};
}

inline Vec<double, 4>
andNot(Vec<double, 4> mask, Vec<double, 4> v)
{
    return {_mm256_andnot_pd(mask.v, v.v)};
}

inline Vec<double, 4>
select(Vec<double, 4> mask, Vec<double, 4> a, Vec<double, 4> b)
{
    return bitOr(bitAnd(mask, a), andNot(mask, b));
}

inline int
maskBits(Vec<double, 4> v)
{
    return _mm256_movemask_pd(v.v);
}

inline Vec<double, 4>
dupEven(Vec<double, 4> v)
{
    return {_mm256_movedup_pd(v.v)}; // [v0, v0, v2, v2]
}

inline Vec<double, 4>
dupOdd(Vec<double, 4> v)
{
    return {_mm256_permute_pd(v.v, 0xF)}; // [v1, v1, v3, v3]
}

inline Vec<double, 4>
swapPairs(Vec<double, 4> v)
{
    return {_mm256_permute_pd(v.v, 0x5)}; // [v1, v0, v3, v2]
}

inline Vec<double, 4>
addSub(Vec<double, 4> a, Vec<double, 4> b)
{
    const __m256d flip = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
    return {_mm256_add_pd(a.v, _mm256_xor_pd(b.v, flip))};
}

inline Vec<double, 4>
widenLoad4(const float *p, Vec<double, 4> *)
{
    return {_mm256_cvtps_pd(_mm_loadu_ps(p))};
}

inline void
narrowStore4(Vec<double, 4> v, float *p)
{
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v.v));
}

inline Vec<double, 4>
truncInt(Vec<double, 4> v)
{
    return {_mm256_cvtepi32_pd(_mm256_cvttpd_epi32(v.v))};
}

inline Vec<double, 4>
floor(Vec<double, 4> v)
{
    return {_mm256_floor_pd(v.v)};
}

inline void
gatherWiden2(const float *base, Vec<double, 4> ia, Vec<double, 4> ib,
             Vec<double, 4> &a, Vec<double, 4> &b)
{
    // One ymm gather: the 4-element xmm form costs about twice as much
    // per element on current Intel cores.
    const __m256 v = _mm256_i32gather_ps(
        base,
        _mm256_set_m128i(_mm256_cvttpd_epi32(ib.v),
                         _mm256_cvttpd_epi32(ia.v)),
        4);
    a.v = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    b.v = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

#endif // ILLIXR_SIMD_BACKEND_AVX2

/** The fixed algorithmic widths used by the kernels. */
using VecF8 = Vec<float, 8>;
using VecD4 = Vec<double, 4>;

/** widenLoad4 without spelling the tag-dispatch pointer. */
inline VecD4
widenLoad(const float *p)
{
    return widenLoad4(p, static_cast<VecD4 *>(nullptr));
}

/**
 * Lane i = v_i widened to double (exact conversion): four scalar
 * loads into one vector, the alternative to gatherWiden2 where a
 * gather costs more than the loads it replaces.
 */
inline VecD4
widen4(float v0, float v1, float v2, float v3)
{
#if defined(ILLIXR_SIMD_BACKEND_AVX2)
    return {_mm256_cvtps_pd(_mm_setr_ps(v0, v1, v2, v3))};
#else
    return {static_cast<double>(v0), static_cast<double>(v1),
            static_cast<double>(v2), static_cast<double>(v3)};
#endif
}

/**
 * Complex multiply of two interleaved (re, im) pairs:
 *   out.re = a.re*b.re - a.im*b.im
 *   out.im = a.re*b.im + a.im*b.re
 * computed with the exact operation sequence of the std::complex
 * naive formula (finite operands), so FFT butterflies built on it
 * match the scalar std::complex code bit-for-bit.
 */
inline VecD4
complexMul(VecD4 a, VecD4 b)
{
    const VecD4 t1 = a * dupEven(b);            // a.re*b.re, a.im*b.re
    const VecD4 t2 = swapPairs(a) * dupOdd(b);  // a.im*b.im, a.re*b.im
    return addSub(t1, t2);
}

} // namespace illixr::simd
