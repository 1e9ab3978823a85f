/**
 * @file
 * Tests for the portable SIMD abstraction (foundation/simd.hpp) and
 * the vectorized kernels built on it:
 *
 *  - every lane op of the compiled backend matches the VecRef scalar
 *    oracle or the scalar cast it mirrors bit-for-bit (the
 *    cross-backend identity contract),
 *  - horizontal reductions use the documented fixed halving tree,
 *  - remainder loops (sizes that are not multiples of the vector
 *    width) match scalar references bit-for-bit,
 *  - the FFT, fft2d and the GS hologram match their earlier
 *    implementations byte for byte, and the hologram makes no
 *    kernel-pool launch,
 *  - the raw-pointer kernel entry points abort on overlapping
 *    src/dst ranges (aliasing precondition).
 */

#include "foundation/simd.hpp"

#include "eyetrack/layers.hpp"
#include "foundation/rng.hpp"
#include "image/filter.hpp"
#include "linalg/matrix.hpp"
#include "recon/tsdf.hpp"
#include "runtime/parallel.hpp"
#include "signal/fft.hpp"
#include "slam/fast.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace.hpp"
#include "visual/hologram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace illixr {
namespace {

using simd::VecD4;
using simd::VecF8;
using RefF8 = simd::VecRef<float, 8>;
using RefD4 = simd::VecRef<double, 4>;

// Bitwise float equality (EXPECT_EQ compares values, which is the
// same thing for the non-NaN data used here, but comparing the bit
// patterns also distinguishes -0.0 from +0.0).
template <typename T>
::testing::AssertionResult
bitEqual(T a, T b)
{
    using U = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                 std::uint64_t>;
    if (std::bit_cast<U>(a) == std::bit_cast<U>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
}

// Values chosen so reordered or fused arithmetic would change the
// result: mixed magnitudes force rounding at every step.
const float kFloatLanes[8] = {1e7f,       -3.25f,  0.1f,  -1e-7f,
                              123456.78f, -0.0f,   2.5f,  7e6f};
const float kFloatLanes2[8] = {3.0f,   -1e7f, 0.25f, 5e-8f,
                               -7.75f, 2e6f,  -0.5f, 9.125f};
const double kDoubleLanes[4] = {1e15, -2.75, 3e-9, -123456.789};
const double kDoubleLanes2[4] = {-3e14, 7.125, -0.1, 2.5e8};

TEST(SimdLaneOps, FloatOpsMatchScalarOracleBitwise)
{
    const VecF8 a = VecF8::load(kFloatLanes);
    const VecF8 b = VecF8::load(kFloatLanes2);
    const RefF8 ra = RefF8::load(kFloatLanes);
    const RefF8 rb = RefF8::load(kFloatLanes2);

    auto check = [](VecF8 v, RefF8 r, const char *what) {
        float got[8], want[8];
        v.store(got);
        r.store(want);
        for (int i = 0; i < 8; ++i)
            EXPECT_TRUE(bitEqual(got[i], want[i]))
                << what << " lane " << i;
    };
    check(a + b, ra + rb, "add");
    check(a - b, ra - rb, "sub");
    check(a * b, ra * rb, "mul");
    check(a / b, ra / rb, "div");
    check(simd::vmin(a, b), simd::vmin(ra, rb), "vmin");
    check(simd::vmax(a, b), simd::vmax(ra, rb), "vmax");
    check(simd::madd(a, b, a), simd::madd(ra, rb, ra), "madd");
    check(simd::select(simd::cmpGT(a, b), a, b),
          simd::select(simd::cmpGT(ra, rb), ra, rb), "select");
    check(simd::bitXor(a, b), simd::bitXor(ra, rb), "bitXor");
    check(VecF8::broadcast(-0.0f), RefF8::broadcast(-0.0f),
          "broadcast");
}

TEST(SimdLaneOps, DoubleOpsMatchScalarOracleBitwise)
{
    const VecD4 a = VecD4::load(kDoubleLanes);
    const VecD4 b = VecD4::load(kDoubleLanes2);
    const RefD4 ra = RefD4::load(kDoubleLanes);
    const RefD4 rb = RefD4::load(kDoubleLanes2);

    auto check = [](VecD4 v, RefD4 r, const char *what) {
        double got[4], want[4];
        v.store(got);
        r.store(want);
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(bitEqual(got[i], want[i]))
                << what << " lane " << i;
    };
    check(a + b, ra + rb, "add");
    check(a - b, ra - rb, "sub");
    check(a * b, ra * rb, "mul");
    check(a / b, ra / rb, "div");
    check(simd::vmin(a, b), simd::vmin(ra, rb), "vmin");
    check(simd::vmax(a, b), simd::vmax(ra, rb), "vmax");
    check(simd::madd(a, b, a), simd::madd(ra, rb, ra), "madd");
    check(simd::dupEven(a), simd::dupEven(ra), "dupEven");
    check(simd::dupOdd(a), simd::dupOdd(ra), "dupOdd");
    check(simd::swapPairs(a), simd::swapPairs(ra), "swapPairs");
    check(simd::addSub(a, b), simd::addSub(ra, rb), "addSub");
}

TEST(SimdLaneOps, ReductionUsesTheFixedHalvingTree)
{
    // The tree order and a serial sweep disagree for these lanes —
    // this test would catch a backend "optimizing" the reduction into
    // a different association.
    const float f[8] = {1e7f, 1.0f,  -1e7f, 2.0f,
                       3.0f, -4.0f, 5.5f,  0.25f};
    const float tree =
        ((f[0] + f[4]) + (f[2] + f[6])) + ((f[1] + f[5]) + (f[3] + f[7]));
    float serial = 0.0f;
    for (float v : f)
        serial += v;
    ASSERT_FALSE(bitEqual(tree, serial))
        << "lanes no longer order-sensitive; pick nastier values";

    EXPECT_TRUE(bitEqual(simd::hsum(VecF8::load(f)), tree));
    EXPECT_TRUE(bitEqual(simd::hsum(RefF8::load(f)), tree));

    const double d[4] = {1e15, 1.0, -1e15, 2.0};
    const double tree_d = (d[0] + d[2]) + (d[1] + d[3]);
    EXPECT_TRUE(bitEqual(simd::hsum(VecD4::load(d)), tree_d));
    EXPECT_TRUE(bitEqual(simd::hsum(RefD4::load(d)), tree_d));
}

TEST(SimdLaneOps, CompareMasksAndMaskBits)
{
    const float a[8] = {1, 5, 3, 3, -1, 0, 9, 2};
    const float b[8] = {2, 4, 3, 1, -2, 0, 8, 3};
    const VecF8 gt = simd::cmpGT(VecF8::load(a), VecF8::load(b));
    const VecF8 lt = simd::cmpLT(VecF8::load(a), VecF8::load(b));
    const VecF8 ge = simd::cmpGE(VecF8::load(a), VecF8::load(b));
    EXPECT_EQ(simd::maskBits(gt), 0b01011010);
    EXPECT_EQ(simd::maskBits(lt), 0b10000001);
    EXPECT_EQ(simd::maskBits(ge), 0b01111110);

    // Mask lanes are all-ones / all-zero bit patterns.
    float lanes[8];
    gt.store(lanes);
    for (int i = 0; i < 8; ++i) {
        const std::uint32_t bits = std::bit_cast<std::uint32_t>(lanes[i]);
        EXPECT_TRUE(bits == 0u || bits == ~0u) << "lane " << i;
    }

    const double c[4] = {1, -3, 2, 2};
    const double e[4] = {0, -2, 2, 3};
    EXPECT_EQ(simd::maskBits(simd::cmpGT(VecD4::load(c), VecD4::load(e))),
              0b0001);
    EXPECT_EQ(simd::maskBits(simd::cmpGE(VecD4::load(c), VecD4::load(e))),
              0b0101);
}

TEST(SimdLaneOps, ComplexMulMatchesStdComplexBitwise)
{
    // complexMul's documented contract: the exact operation sequence
    // of the std::complex naive formula for finite operands.
    const double av[4] = {1.25, -3e7, 0.5, 17.75};
    const double bv[4] = {-2.5, 1e-3, 4.0, -0.125};
    double out[4];
    simd::complexMul(VecD4::load(av), VecD4::load(bv)).store(out);
    for (int p = 0; p < 2; ++p) {
        const std::complex<double> a(av[2 * p], av[2 * p + 1]);
        const std::complex<double> b(bv[2 * p], bv[2 * p + 1]);
        const std::complex<double> want = a * b;
        EXPECT_TRUE(bitEqual(out[2 * p], want.real())) << "pair " << p;
        EXPECT_TRUE(bitEqual(out[2 * p + 1], want.imag()))
            << "pair " << p;
    }
}

TEST(SimdLaneOps, WidenAndNarrowRoundExactly)
{
    const float f[4] = {1.1f, -3e7f, 0.0625f, -0.0f};
    double wide[4];
    simd::widenLoad(f).store(wide);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bitEqual(wide[i], static_cast<double>(f[i])));
    simd::widen4(f[0], f[1], f[2], f[3]).store(wide);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bitEqual(wide[i], static_cast<double>(f[i])));

    // Values that round on the way back down.
    const double d[4] = {0.1, 1e20, -1.0000000001, 3.14159265358979};
    float narrow[4];
    simd::narrowStore4(VecD4::load(d), narrow);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bitEqual(narrow[i], static_cast<float>(d[i])));
}

TEST(SimdLaneOps, TruncIntAndGatherMatchScalarCasts)
{
    // Truncation toward zero, including the -0.0 and (-1, 0) lanes
    // that std::trunc would keep negative but an int cast does not.
    const double d[4] = {-0.0, -0.75, 2.999999999, 79.5};
    double got[4];
    simd::truncInt(VecD4::load(d)).store(got);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bitEqual(
            got[i], static_cast<double>(static_cast<int>(d[i]))));

    const float table[6] = {0.5f, -2.25f, 1e-30f, 7.0f, -0.0f, 3.5f};
    const double ia[4] = {4.0, 0.0, 5.0, 2.0};
    const double ib[4] = {1.0, 1.0, 3.0, 0.0};
    VecD4 a, b;
    simd::gatherWiden2(table, VecD4::load(ia), VecD4::load(ib), a, b);
    double got_b[4];
    a.store(got);
    b.store(got_b);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bitEqual(
            got[i], static_cast<double>(table[static_cast<int>(ia[i])])));
        EXPECT_TRUE(bitEqual(
            got_b[i], static_cast<double>(table[static_cast<int>(ib[i])])));
    }
}

TEST(SimdLaneOps, FloorMatchesStdFloorBitwise)
{
    // Negative non-integers, signed zeros, halves, exact integers and
    // magnitudes past 2^52 (already integers) and near 2^31.
    const double d[] = {-0.75,     -1.5,           -2.0000000001,
                        -1e-300,   -0.0,           0.0,
                        0.5,       -0.5,           3.0,
                        -7.0,      2.999999999999, 4503599627370497.0,
                        -9.1e18,   2147483647.5,   -2147483648.25,
                        1e308};
    static_assert(std::size(d) % 4 == 0);
    for (std::size_t i = 0; i < std::size(d); i += 4) {
        double got[4];
        simd::floor(VecD4::load(d + i)).store(got);
        for (std::size_t l = 0; l < 4; ++l)
            EXPECT_TRUE(bitEqual(got[l], std::floor(d[i + l])))
                << d[i + l];
    }
}

// ---------------------------------------------------------------------
// Remainder loops: kernel outputs at sizes that are NOT multiples of
// the vector width must match a scalar reference bit-for-bit.
// ---------------------------------------------------------------------

TEST(SimdKernels, ConvChannelTailMatchesScalarReference)
{
    // 10 output channels = one 8-wide block + a tail of 2; 9x7 input.
    constexpr int kIn = 3, kOut = 10, kK = 3, kH = 7, kW = 9;
    Rng rng(7);
    Conv2d conv(kIn, kOut, kK);
    conv.initializeHe(rng);
    for (int oc = 0; oc < kOut; ++oc)
        conv.bias(oc) = static_cast<float>(rng.uniform(-0.5, 0.5));

    Tensor input(kIn, kH, kW);
    for (int c = 0; c < kIn; ++c)
        for (int y = 0; y < kH; ++y)
            for (int x = 0; x < kW; ++x)
                input.at(c, y, x) =
                    static_cast<float>(rng.uniform(-1.0, 1.0));

    const Tensor out = conv.forward(input);

    // Scalar reference with the kernel's accumulation order: bias
    // first, then ic -> ky -> kx ascending.
    constexpr int kPad = kK / 2;
    for (int oc = 0; oc < kOut; ++oc) {
        for (int y = 0; y < kH; ++y) {
            for (int x = 0; x < kW; ++x) {
                float acc = conv.bias(oc);
                for (int ic = 0; ic < kIn; ++ic)
                    for (int ky = 0; ky < kK; ++ky)
                        for (int kx = 0; kx < kK; ++kx)
                            acc += conv.weight(oc, ic, ky, kx) *
                                   input.atPadded(ic, y + ky - kPad,
                                                  x + kx - kPad);
                EXPECT_TRUE(bitEqual(out.at(oc, y, x), acc))
                    << "oc=" << oc << " y=" << y << " x=" << x;
            }
        }
    }
}

TEST(SimdKernels, GaussianBlurOddWidthMatchesScalarReference)
{
    // Width 13: the 4-wide interior loop leaves head and tail pixels
    // on the scalar path, and the last vector block is partial.
    constexpr int kW = 13, kH = 5;
    const double sigma = 1.2;
    Rng rng(9);
    ImageF src(kW, kH);
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x)
            src.at(x, y) = static_cast<float>(rng.uniform(0.0, 1.0));

    const ImageF out = gaussianBlur(src, sigma);

    // Reference: the pre-SIMD two-pass separable blur (double
    // accumulator, serial taps, clamped borders).
    const int radius =
        std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    std::vector<double> kernel(2 * radius + 1);
    double sum = 0.0;
    for (int i = -radius; i <= radius; ++i) {
        kernel[i + radius] = std::exp(-(i * i) / (2.0 * sigma * sigma));
        sum += kernel[i + radius];
    }
    for (double &v : kernel)
        v /= sum;
    auto clampi = [](int v, int lo, int hi) {
        return std::min(std::max(v, lo), hi);
    };
    std::vector<float> tmp(kW * kH);
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x) {
            double acc = 0.0;
            for (int k = -radius; k <= radius; ++k)
                acc += kernel[k + radius] *
                       src.at(clampi(x + k, 0, kW - 1), y);
            tmp[y * kW + x] = static_cast<float>(acc);
        }
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x) {
            double acc = 0.0;
            for (int k = -radius; k <= radius; ++k)
                acc += kernel[k + radius] *
                       tmp[clampi(y + k, 0, kH - 1) * kW + x];
            EXPECT_TRUE(bitEqual(out.at(x, y),
                                 static_cast<float>(acc)))
                << "x=" << x << " y=" << y;
        }
}

TEST(SimdKernels, GemmOddColumnsMatchScalarReference)
{
    // 7 columns: one 4-wide axpy block + a tail of 3.
    Rng rng(13);
    // a * b needs b with a's 5 columns as rows; a^T * c needs c with
    // a's 6 rows.
    MatX a(6, 5), b(5, 7), c(6, 7);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            a(i, j) = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            b(i, j) = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            c(i, j) = rng.uniform(-1.0, 1.0);
    a(2, 3) = 0.0; // Exercise the zero-skip.

    const MatX prod = a * b;
    const MatX tn = a.transposeTimes(c);

    // Reference with the kernel's k-ascending axpy order.
    MatX want(6, 7);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t k = 0; k < 5; ++k) {
            const double s = a(i, k);
            if (s == 0.0)
                continue;
            for (std::size_t j = 0; j < 7; ++j)
                want(i, j) += s * b(k, j);
        }
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            EXPECT_TRUE(bitEqual(prod(i, j), want(i, j)))
                << i << "," << j;

    MatX want_tn(5, 7);
    for (std::size_t k = 0; k < 6; ++k)
        for (std::size_t i = 0; i < 5; ++i) {
            const double s = a(k, i);
            if (s == 0.0)
                continue;
            for (std::size_t j = 0; j < 7; ++j)
                want_tn(i, j) += s * c(k, j);
        }
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            EXPECT_TRUE(bitEqual(tn(i, j), want_tn(i, j)))
                << i << "," << j;
}

/** Reference FAST detector: the pre-SIMD scalar algorithm verbatim. */
std::vector<Corner>
referenceFast(const ImageF &img, const FastParams &p)
{
    constexpr int kCircle[16][2] = {{0, -3},  {1, -3},  {2, -2},  {3, -1},
                                    {3, 0},   {3, 1},   {2, 2},   {1, 3},
                                    {0, 3},   {-1, 3},  {-2, 2},  {-3, 1},
                                    {-3, 0},  {-3, -1}, {-2, -2}, {-1, -3}};
    const int w = img.width();
    const int h = img.height();
    const int border = std::max(p.border, 3);
    auto score_of = [&](int x, int y) -> float {
        const float center = img.at(x, y);
        const float hi = center + p.threshold;
        const float lo = center - p.threshold;
        int state[16];
        int n_bright = 0, n_dark = 0;
        for (int i = 0; i < 16; ++i) {
            const float v = img.at(x + kCircle[i][0], y + kCircle[i][1]);
            if (v > hi) {
                state[i] = 1;
                ++n_bright;
            } else if (v < lo) {
                state[i] = -1;
                ++n_dark;
            } else {
                state[i] = 0;
            }
        }
        if (n_bright < p.min_contiguous && n_dark < p.min_contiguous)
            return 0.0f;
        auto longest_run = [&state](int polarity) {
            int best = 0, run = 0;
            for (int i = 0; i < 32; ++i) {
                if (state[i & 15] == polarity) {
                    ++run;
                    best = std::max(best, run);
                } else {
                    run = 0;
                }
            }
            return std::min(best, 16);
        };
        if (longest_run(1) < p.min_contiguous &&
            longest_run(-1) < p.min_contiguous)
            return 0.0f;
        float score = 0.0f;
        for (int i = 0; i < 16; ++i) {
            const float v = img.at(x + kCircle[i][0], y + kCircle[i][1]);
            const float d = std::fabs(v - center);
            if (d > p.threshold)
                score += d - p.threshold;
        }
        return score;
    };

    std::vector<float> scores(static_cast<std::size_t>(w) * h, 0.0f);
    for (int y = border; y < h - border; ++y)
        for (int x = border; x < w - border; ++x)
            scores[static_cast<std::size_t>(y) * w + x] = score_of(x, y);

    std::vector<Corner> out;
    for (int y = border; y < h - border; ++y)
        for (int x = border; x < w - border; ++x) {
            const float s = scores[static_cast<std::size_t>(y) * w + x];
            if (s <= 0.0f)
                continue;
            bool is_max = true;
            for (int dy = -1; dy <= 1 && is_max; ++dy)
                for (int dx = -1; dx <= 1; ++dx) {
                    const int nx = std::clamp(x + dx, 0, w - 1);
                    const int ny = std::clamp(y + dy, 0, h - 1);
                    if ((dx || dy) &&
                        scores[static_cast<std::size_t>(ny) * w + nx] >
                            s) {
                        is_max = false;
                        break;
                    }
                }
            if (is_max)
                out.push_back({Vec2(x, y), s});
        }
    return out;
}

TEST(SimdKernels, FastDetectOddWidthMatchesScalarReference)
{
    // 37 - 2*4 = 29 candidate columns per row: three full 8-wide
    // blocks plus a scalar tail of 5.
    constexpr int kW = 37, kH = 29;
    Rng rng(21);
    ImageF img(kW, kH);
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x)
            img.at(x, y) = static_cast<float>(rng.uniform(0.0, 1.0));
    // Plant a few strong corners so the list is non-trivial.
    for (int cy : {8, 16, 22})
        for (int dy = 0; dy < 3; ++dy)
            for (int dx = 0; dx < 3; ++dx)
                img.at(10 + dx, cy + dy) = 1.0f;

    const FastParams params;
    const auto got = detectFast(img, params);
    const auto want = referenceFast(img, params);

    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].position.x, want[i].position.x) << i;
        EXPECT_EQ(got[i].position.y, want[i].position.y) << i;
        EXPECT_TRUE(bitEqual(got[i].score, want[i].score)) << i;
    }
}

TEST(SimdKernels, TsdfScalarTailMatchesVectorLanes)
{
    // Two volumes over the SAME voxel grid (identical voxel size and
    // origin), resolutions 13 and 16. A voxel's update depends only
    // on its own world-space center, so voxels shared by both grids
    // must come out bit-identical — but in the res-13 volume the
    // x = 8..12 columns run the scalar remainder loop while res 16
    // puts them in full vector lanes. Sampling sdfAt (a pure function
    // of the 8 surrounding voxels) at interior points compares the
    // two paths bitwise.
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(64, 48, 1.2);
    DepthImage depth(64, 48, 2.0f);
    for (int y = 0; y < 48; ++y)
        for (int x = 0; x < 64; ++x)
            depth.at(x, y) += 0.02f * static_cast<float>((x * 7 + y) % 5);

    const double vs = 0.25;
    TsdfParams p13;
    p13.resolution = 13;
    p13.side_meters = 13 * vs;
    p13.origin = Vec3(-2.0, -2.0, -0.5);
    TsdfParams p16 = p13;
    p16.resolution = 16;
    p16.side_meters = 16 * vs;

    TsdfVolume v13(p13), v16(p16);
    ASSERT_EQ(v13.voxelSize(), v16.voxelSize());
    v13.integrate(depth, intr, Pose::identity());
    v16.integrate(depth, intr, Pose::identity());

    int observed = 0;
    for (int zi = 0; zi <= 11; ++zi)
        for (int yi = 0; yi <= 11; ++yi)
            for (int xi = 0; xi <= 11; ++xi) {
                const Vec3 pt = p13.origin +
                                Vec3((xi + 0.7) * vs, (yi + 0.7) * vs,
                                     (zi + 0.7) * vs);
                const float a = v13.sdfAt(pt);
                const float b = v16.sdfAt(pt);
                EXPECT_TRUE(bitEqual(a, b))
                    << "voxel " << xi << "," << yi << "," << zi;
                if (a != 1.0f)
                    ++observed;
            }
    EXPECT_GT(observed, 50) << "probe grid missed the observed region";
}

TEST(SimdKernels, FftSmallAndOddStagesMatchDft)
{
    // n = 4 runs only the scalar len-2 stage plus a single vector
    // butterfly; n = 8 adds a full vector stage. Check both against a
    // direct DFT and the inverse round-trip.
    for (const std::size_t n : {4u, 8u, 32u}) {
        Rng rng(31 + static_cast<int>(n));
        std::vector<Complex> x(n);
        for (auto &v : x)
            v = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        std::vector<Complex> f = x;
        fft(f, false);
        for (std::size_t k = 0; k < n; ++k) {
            Complex want(0.0, 0.0);
            for (std::size_t j = 0; j < n; ++j)
                want += x[j] *
                        std::polar(1.0, -2.0 * M_PI *
                                            static_cast<double>(j * k) /
                                            static_cast<double>(n));
            EXPECT_NEAR(f[k].real(), want.real(), 1e-9) << n << ":" << k;
            EXPECT_NEAR(f[k].imag(), want.imag(), 1e-9) << n << ":" << k;
        }
        fft(f, true);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_NEAR(f[j].real(), x[j].real(), 1e-12);
            EXPECT_NEAR(f[j].imag(), x[j].imag(), 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// FFT and hologram bit-identity oracles. The references below are the
// earlier implementations kept verbatim in shape: fft() recomputing
// its bit-reversal per call over map-cached twiddles, fft2d() staging
// every row and column through fft(), and a weighted-GS hologram that
// allocates fresh buffers and takes each plane amplitude's sqrt twice.
// ---------------------------------------------------------------------

void
referenceFft(std::vector<Complex> &data, bool inverse)
{
    const std::size_t n = data.size();
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }
    struct StageTables
    {
        std::vector<Complex> fwd, inv;
    };
    static thread_local std::map<std::size_t, StageTables> twiddle_cache;
    StageTables &tables = twiddle_cache[n];
    if (tables.fwd.size() != n - 1) {
        std::vector<Complex> master(n / 2);
        for (std::size_t k = 0; k < n / 2; ++k) {
            const double angle = -2.0 * M_PI * static_cast<double>(k) /
                                 static_cast<double>(n);
            master[k] = Complex(std::cos(angle), std::sin(angle));
        }
        tables.fwd.resize(n - 1);
        tables.inv.resize(n - 1);
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const std::size_t stride = n / len;
            const std::size_t off = len / 2 - 1;
            for (std::size_t k = 0; k < len / 2; ++k) {
                tables.fwd[off + k] = master[k * stride];
                tables.inv[off + k] = std::conj(master[k * stride]);
            }
        }
    }
    const std::vector<Complex> &stage_tw =
        inverse ? tables.inv : tables.fwd;
    double *raw = reinterpret_cast<double *>(data.data());
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const Complex *tw = stage_tw.data() + (half - 1);
        if (half < 2) {
            for (std::size_t i = 0; i < n; i += len) {
                const Complex even = data[i];
                const Complex odd = data[i + 1] * tw[0];
                data[i] = even + odd;
                data[i + 1] = even - odd;
            }
            continue;
        }
        const double *tw_raw = reinterpret_cast<const double *>(tw);
        for (std::size_t i = 0; i < n; i += len) {
            double *even_p = raw + 2 * i;
            double *odd_p = raw + 2 * (i + half);
            for (std::size_t k = 0; k < half; k += 2) {
                const VecD4 even = VecD4::load(even_p + 2 * k);
                const VecD4 odd = simd::complexMul(
                    VecD4::load(odd_p + 2 * k),
                    VecD4::load(tw_raw + 2 * k));
                (even + odd).store(even_p + 2 * k);
                (even - odd).store(odd_p + 2 * k);
            }
        }
    }
    if (inverse) {
        const VecD4 scale =
            VecD4::broadcast(1.0 / static_cast<double>(n));
        std::size_t i = 0;
        for (; i + 2 <= n; i += 2)
            (VecD4::load(raw + 2 * i) * scale).store(raw + 2 * i);
        for (; i < n; ++i)
            data[i] *= 1.0 / static_cast<double>(n);
    }
}

void
referenceFft2d(std::vector<Complex> &grid, std::size_t width,
               std::size_t height, bool inverse)
{
    std::vector<Complex> row(width);
    for (std::size_t y = 0; y < height; ++y) {
        std::memcpy(row.data(), grid.data() + y * width,
                    width * sizeof(Complex));
        referenceFft(row, inverse);
        std::memcpy(grid.data() + y * width, row.data(),
                    width * sizeof(Complex));
    }
    std::vector<Complex> col(height);
    for (std::size_t x = 0; x < width; ++x) {
        for (std::size_t y = 0; y < height; ++y)
            col[y] = grid[y * width + x];
        referenceFft(col, inverse);
        for (std::size_t y = 0; y < height; ++y)
            grid[y * width + x] = col[y];
    }
}

bool
sameBytes(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) ==
               0;
}

std::vector<Complex>
randomComplex(std::size_t n, int seed)
{
    Rng rng(seed);
    std::vector<Complex> v(n);
    for (Complex &c : v)
        c = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return v;
}

TEST(SimdKernels, FftPlanMatchesReference)
{
    // Sizes interleaved on one thread, so a plan cached for the
    // previous call's size would be reused at the wrong size.
    const std::size_t sizes[] = {64,  8,   64, 1024, 2,   64,  1,   512,
                                 64,  4,   16, 32,   128, 256, 1024, 8,
                                 512, 128, 1,  2,    32,  4,   256, 16};
    int seed = 100;
    for (const std::size_t n : sizes) {
        for (const bool inverse : {false, true}) {
            const std::vector<Complex> input = randomComplex(n, seed++);
            std::vector<Complex> got = input, want = input;
            fft(got, inverse);
            referenceFft(want, inverse);
            EXPECT_TRUE(sameBytes(got, want))
                << "n=" << n << " inverse=" << inverse;
        }
    }

    const std::pair<std::size_t, std::size_t> grids[] = {
        {64, 64}, {16, 4}, {4, 32}, {1, 8}};
    for (const auto &[w, h] : grids) {
        for (const bool inverse : {false, true}) {
            const std::vector<Complex> input = randomComplex(w * h, seed++);
            std::vector<Complex> got = input, want = input;
            fft2d(got, w, h, inverse);
            referenceFft2d(want, w, h, inverse);
            EXPECT_TRUE(sameBytes(got, want))
                << w << "x" << h << " inverse=" << inverse;
        }
    }
}

/** The earlier weighted-GS generator, fresh buffers per call. */
class ReferenceHologram
{
  public:
    explicit ReferenceHologram(const HologramParams &params)
        : params_(params)
    {
        const int n = params_.resolution;
        const std::size_t count = static_cast<std::size_t>(n) * n;
        phase_fwd_.assign(params_.depth_planes, {});
        phase_bwd_.assign(params_.depth_planes, {});
        for (int d = 0; d < params_.depth_planes; ++d) {
            phase_fwd_[d].resize(2 * count);
            phase_bwd_[d].resize(2 * count);
            for (int y = 0; y < n; ++y) {
                for (int x = 0; x < n; ++x) {
                    const std::size_t i =
                        static_cast<std::size_t>(y) * n + x;
                    const double phi = lensPhaseAt(x, y, d);
                    phase_fwd_[d][2 * i] = std::cos(phi);
                    phase_fwd_[d][2 * i + 1] = std::sin(phi);
                    phase_bwd_[d][2 * i] = std::cos(-phi) * n;
                    phase_bwd_[d][2 * i + 1] = std::sin(-phi) * n;
                }
            }
        }
    }

    HologramResult
    compute(const RgbImage &frame, const ImageF *depth) const
    {
        const int n = params_.resolution;
        const int planes = params_.depth_planes;
        const std::size_t count = static_cast<std::size_t>(n) * n;

        std::vector<std::vector<double>> targets(planes);
        const ImageF lum = resizeBilinear(frame.luminance(), n, n);
        ImageF depth_r;
        if (depth)
            depth_r = resizeBilinear(*depth, n, n);
        for (int d = 0; d < planes; ++d) {
            targets[d].assign(count, 0.0);
            const double band_lo = static_cast<double>(d) / planes;
            const double band_hi = static_cast<double>(d + 1) / planes;
            double energy = 0.0;
            for (int y = 0; y < n; ++y) {
                for (int x = 0; x < n; ++x) {
                    double a =
                        std::sqrt(std::max(0.0f, lum.at(x, y)) + 1e-6);
                    if (depth) {
                        const double zn = (depth_r.at(x, y) + 1.0) / 2.0;
                        if (zn < band_lo || zn >= band_hi)
                            a = 0.0;
                    }
                    targets[d][static_cast<std::size_t>(y) * n + x] = a;
                    energy += a * a;
                }
            }
            if (energy > 0.0) {
                const double s = static_cast<double>(n) /
                                 std::sqrt(energy * planes);
                for (double &a : targets[d])
                    a *= s;
            }
        }

        std::vector<Complex> hologram(count);
        Rng rng(2718);
        for (Complex &c : hologram) {
            const double phi = rng.uniform(0.0, 2.0 * M_PI);
            c = Complex(std::cos(phi), std::sin(phi));
        }

        HologramResult result;
        result.plane_weights.assign(planes, 1.0);
        for (int iter = 0; iter < params_.iterations; ++iter) {
            std::vector<std::vector<Complex>> plane_fields(planes);
            std::vector<double> plane_err(planes, 0.0);
            for (int d = 0; d < planes; ++d)
                plane_fields[d] = propagateToPlane(hologram, d);

            double total_err = 0.0;
            for (int d = 0; d < planes; ++d) {
                double err = 0.0, norm = 0.0;
                const double *f = reinterpret_cast<const double *>(
                    plane_fields[d].data());
                for (std::size_t i = 0; i < count; ++i) {
                    const double a = std::sqrt(f[2 * i] * f[2 * i] +
                                               f[2 * i + 1] * f[2 * i + 1]);
                    const double t = targets[d][i];
                    err += (a - t) * (a - t);
                    norm += t * t;
                }
                plane_err[d] = norm > 0.0 ? std::sqrt(err / norm) : 0.0;
                total_err += plane_err[d];
                result.plane_weights[d] *= (1.0 + 0.5 * plane_err[d]);
            }
            result.error_history.push_back(total_err / planes);

            std::vector<Complex> combined(count, Complex(0.0, 0.0));
            for (int d = 0; d < planes; ++d) {
                std::vector<Complex> constrained(count);
                const double *f = reinterpret_cast<const double *>(
                    plane_fields[d].data());
                for (std::size_t i = 0; i < count; ++i) {
                    const double re = f[2 * i];
                    const double im = f[2 * i + 1];
                    const double mag = std::sqrt(re * re + im * im);
                    const double t = targets[d][i];
                    constrained[i] =
                        (mag > 1e-12)
                            ? Complex(re * (t / mag), im * (t / mag))
                            : Complex(t, 0.0);
                }
                const auto back = propagateFromPlane(constrained, d);
                const double w = result.plane_weights[d];
                const VecD4 wv = VecD4::broadcast(w);
                double *cb = reinterpret_cast<double *>(combined.data());
                const double *bk =
                    reinterpret_cast<const double *>(back.data());
                std::size_t j = 0;
                for (; j + 4 <= 2 * count; j += 4)
                    simd::madd(VecD4::load(cb + j), VecD4::load(bk + j),
                               wv)
                        .store(cb + j);
                for (; j < 2 * count; ++j)
                    cb[j] += bk[j] * w;
            }
            const double *cb =
                reinterpret_cast<const double *>(combined.data());
            for (std::size_t i = 0; i < count; ++i) {
                const double re = cb[2 * i];
                const double im = cb[2 * i + 1];
                const double mag = std::sqrt(re * re + im * im);
                hologram[i] = (mag > 1e-12) ? Complex(re * (1.0 / mag),
                                                      im * (1.0 / mag))
                                            : Complex(1.0, 0.0);
            }
        }

        result.rms_error = result.error_history.empty()
                               ? 0.0
                               : result.error_history.back();
        result.phase = ImageF(n, n);
        for (int y = 0; y < n; ++y) {
            for (int x = 0; x < n; ++x) {
                const Complex &c =
                    hologram[static_cast<std::size_t>(y) * n + x];
                result.phase.at(x, y) =
                    static_cast<float>(std::atan2(c.imag(), c.real()));
            }
        }
        return result;
    }

  private:
    double
    lensPhaseAt(int x, int y, int d) const
    {
        const int n = params_.resolution;
        const double focus =
            params_.min_focus +
            (params_.max_focus - params_.min_focus) *
                (params_.depth_planes > 1
                     ? static_cast<double>(d) / (params_.depth_planes - 1)
                     : 0.5);
        const double nx = (2.0 * x / n) - 1.0;
        const double ny = (2.0 * y / n) - 1.0;
        return M_PI * focus * (nx * nx + ny * ny) * n / 8.0;
    }

    static void
    multiplyPhase(const double *src, const double *tab, double *dst,
                  std::size_t end)
    {
        std::size_t j = 0;
        for (; j + 4 <= end; j += 4)
            simd::complexMul(VecD4::load(src + j), VecD4::load(tab + j))
                .store(dst + j);
        for (; j < end; j += 2) {
            const Complex r =
                Complex(src[j], src[j + 1]) * Complex(tab[j], tab[j + 1]);
            dst[j] = r.real();
            dst[j + 1] = r.imag();
        }
    }

    std::vector<Complex>
    propagateToPlane(const std::vector<Complex> &hologram, int d) const
    {
        const int n = params_.resolution;
        std::vector<Complex> field(hologram.size());
        double *dst = reinterpret_cast<double *>(field.data());
        multiplyPhase(reinterpret_cast<const double *>(hologram.data()),
                      phase_fwd_[d].data(), dst, 2 * field.size());
        referenceFft2d(field, n, n, false);
        const VecD4 scale = VecD4::broadcast(1.0 / n);
        const std::size_t end = 2 * field.size();
        std::size_t j = 0;
        for (; j + 4 <= end; j += 4)
            (VecD4::load(dst + j) * scale).store(dst + j);
        for (; j < end; ++j)
            dst[j] *= 1.0 / n;
        return field;
    }

    std::vector<Complex>
    propagateFromPlane(const std::vector<Complex> &plane_field, int d) const
    {
        const int n = params_.resolution;
        std::vector<Complex> field = plane_field;
        referenceFft2d(field, n, n, true);
        double *dst = reinterpret_cast<double *>(field.data());
        multiplyPhase(dst, phase_bwd_[d].data(), dst, 2 * field.size());
        return field;
    }

    HologramParams params_;
    std::vector<std::vector<double>> phase_fwd_, phase_bwd_;
};

void
expectSameHologram(const HologramResult &got, const HologramResult &want,
                   const std::string &what)
{
    ASSERT_EQ(got.phase.width(), want.phase.width()) << what;
    ASSERT_EQ(got.phase.height(), want.phase.height()) << what;
    EXPECT_EQ(std::memcmp(got.phase.data(), want.phase.data(),
                          static_cast<std::size_t>(got.phase.width()) *
                              got.phase.height() * sizeof(float)),
              0)
        << what << ": phase bytes differ";
    ASSERT_EQ(got.error_history.size(), want.error_history.size()) << what;
    for (std::size_t i = 0; i < got.error_history.size(); ++i)
        EXPECT_TRUE(bitEqual(got.error_history[i], want.error_history[i]))
            << what << ": error_history[" << i << "]";
    ASSERT_EQ(got.plane_weights.size(), want.plane_weights.size()) << what;
    for (std::size_t i = 0; i < got.plane_weights.size(); ++i)
        EXPECT_TRUE(bitEqual(got.plane_weights[i], want.plane_weights[i]))
            << what << ": plane_weights[" << i << "]";
    EXPECT_TRUE(bitEqual(got.rms_error, want.rms_error)) << what;
}

/** RAII kernel-pool width override (restores serial on exit). */
class WidthGuard
{
  public:
    explicit WidthGuard(std::size_t width)
    {
        KernelPool::instance().setWidth(width);
    }
    ~WidthGuard() { KernelPool::instance().setWidth(1); }
};

/** A frame with structure at every scale, so no plane is uniform. */
RgbImage
hologramFrame(int size, int seed)
{
    Rng rng(seed);
    RgbImage frame(size, size);
    for (int y = 0; y < size; ++y)
        for (int x = 0; x < size; ++x)
            frame.setPixel(x, y,
                           Vec3(rng.uniform(0.0, 1.0),
                                0.5 + 0.5 * std::sin(0.3 * x + 0.2 * y),
                                ((x ^ y) & 7) / 7.0));
    return frame;
}

TEST(SimdKernels, HologramMatchesReference)
{
    struct Case
    {
        int resolution, planes, iterations;
        bool with_depth;
    };
    const Case cases[] = {
        {64, 3, 6, false}, // the benchmark's configuration
        {32, 1, 4, false},
        {16, 4, 3, true},
    };
    for (const std::size_t width : {1u, 4u}) {
        const WidthGuard guard(width);
        for (const Case &c : cases) {
            HologramParams params;
            params.resolution = c.resolution;
            params.depth_planes = c.planes;
            params.iterations = c.iterations;
            // Depth in [-1, 1] covering every band, with some pixels at
            // exactly 1.0 (normalized depth 1.0 lies in no band).
            ImageF depth(c.resolution, c.resolution);
            for (int y = 0; y < c.resolution; ++y)
                for (int x = 0; x < c.resolution; ++x)
                    depth.at(x, y) =
                        (x + y) % 5 == 0
                            ? 1.0f
                            : -1.0f + 2.0f * static_cast<float>(x) /
                                          c.resolution;
            const ImageF *depth_arg = c.with_depth ? &depth : nullptr;
            const ReferenceHologram ref(params);
            // Two calls on one generator exercise its cached tables
            // and initial phase.
            HologramGenerator gen(params);
            for (int call = 0; call < 2; ++call) {
                const RgbImage frame =
                    hologramFrame(c.resolution * 2, 40 + call);
                expectSameHologram(
                    gen.compute(frame, depth_arg),
                    ref.compute(frame, depth_arg),
                    std::to_string(c.resolution) + "^2 x" +
                        std::to_string(c.planes) + " width " +
                        std::to_string(width) + " call " +
                        std::to_string(call));
            }
        }
    }
}

TEST(SimdKernels, HologramMakesNoKernelLaunches)
{
    // Each GS stage is a few µs of work; a return to per-stage
    // launches would record 126 kernel spans here.
    const WidthGuard guard(4);
    HologramParams params;
    params.resolution = 64;
    params.depth_planes = 3;
    params.iterations = 6;
    HologramGenerator gen(params);
    MetricsRegistry metrics;
    TraceSink sink;
    {
        KernelPool::MetricsScope scope(&metrics, &sink);
        gen.compute(hologramFrame(64, 7));
    }
    std::size_t kernel_spans = 0;
    for (const Span &span : sink.spans())
        if (span.task.rfind("kernel.", 0) == 0)
            ++kernel_spans;
    EXPECT_EQ(kernel_spans, 0u);
}

// ---------------------------------------------------------------------
// Aliasing preconditions: the raw-pointer entry points must refuse
// overlapping src/dst instead of silently corrupting output.
// ---------------------------------------------------------------------

using SimdOverlapDeathTest = ::testing::Test;

TEST(SimdOverlapDeathTest, GaussianBlurAbortsOnOverlap)
{
    std::vector<float> buf(64 * 2, 0.5f);
    EXPECT_DEATH(
        detail::gaussianBlurRaw(buf.data(), 8, 8, 1.0, buf.data() + 16),
        "overlapping");
}

TEST(SimdOverlapDeathTest, DownsampleAbortsOnOverlap)
{
    std::vector<float> buf(64, 0.5f);
    EXPECT_DEATH(
        detail::downsampleHalfRaw(buf.data(), 8, 8, buf.data() + 4),
        "overlapping");
}

TEST(SimdOverlapDeathTest, DisjointRangesPass)
{
    std::vector<float> src(64, 0.5f), dst(64, 0.0f);
    // No abort: distinct ranges satisfy the precondition.
    detail::gaussianBlurRaw(src.data(), 8, 8, 1.0, dst.data());
    ASSERT_NE(dst[27], 0.0f);
}

} // namespace
} // namespace illixr
