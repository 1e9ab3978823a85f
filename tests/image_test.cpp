/**
 * @file
 * Unit tests for the image substrate: containers, filters, pyramids,
 * I/O, SSIM, and FLIP.
 */

#include "foundation/rng.hpp"
#include "image/filter.hpp"
#include "image/flip.hpp"
#include "image/image.hpp"
#include "image/io.hpp"
#include "image/pyramid.hpp"
#include "image/ssim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

namespace illixr {
namespace {

/** Deterministic structured test image (gradient + bump). */
ImageF
makeTestImage(int w, int h)
{
    ImageF img(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const double gx = static_cast<double>(x) / w;
            const double gy = static_cast<double>(y) / h;
            const double bump = std::exp(
                -((x - w / 2.0) * (x - w / 2.0) +
                  (y - h / 2.0) * (y - h / 2.0)) /
                (0.02 * w * h));
            img.at(x, y) =
                static_cast<float>(0.3 * gx + 0.3 * gy + 0.4 * bump);
        }
    }
    return img;
}

RgbImage
makeTestRgb(int w, int h)
{
    RgbImage img(w, h);
    const ImageF base = makeTestImage(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const double v = base.at(x, y);
            img.setPixel(x, y, Vec3(v, 0.8 * v + 0.1, 1.0 - v));
        }
    }
    return img;
}

TEST(ImageFTest, ConstructAndAccess)
{
    ImageF img(8, 4, 0.5f);
    EXPECT_EQ(img.width(), 8);
    EXPECT_EQ(img.height(), 4);
    EXPECT_EQ(img.pixelCount(), 32u);
    EXPECT_FLOAT_EQ(img.at(3, 2), 0.5f);
    img.at(3, 2) = 0.9f;
    EXPECT_FLOAT_EQ(img.at(3, 2), 0.9f);
}

TEST(ImageFTest, ClampedAccessAtBorders)
{
    ImageF img(4, 4);
    img.at(0, 0) = 1.0f;
    img.at(3, 3) = 0.25f;
    EXPECT_FLOAT_EQ(img.atClamped(-5, -5), 1.0f);
    EXPECT_FLOAT_EQ(img.atClamped(10, 10), 0.25f);
}

TEST(ImageFTest, BilinearSampleInterpolates)
{
    ImageF img(2, 1);
    img.at(0, 0) = 0.0f;
    img.at(1, 0) = 1.0f;
    EXPECT_NEAR(img.sampleBilinear(0.5, 0.0), 0.5, 1e-6);
    EXPECT_NEAR(img.sampleBilinear(0.25, 0.0), 0.25, 1e-6);
}

TEST(ImageFTest, MeanAndFill)
{
    ImageF img(10, 10);
    img.fill(0.25f);
    EXPECT_NEAR(img.mean(), 0.25, 1e-7);
}

TEST(RgbImageTest, PixelRoundTripAndLuminance)
{
    RgbImage img(4, 4);
    img.setPixel(1, 2, Vec3(1.0, 0.5, 0.25));
    const Vec3 p = img.pixel(1, 2);
    EXPECT_NEAR(p.x, 1.0, 1e-6);
    EXPECT_NEAR(p.y, 0.5, 1e-6);
    EXPECT_NEAR(p.z, 0.25, 1e-6);
    const ImageF lum = img.luminance();
    EXPECT_NEAR(lum.at(1, 2), 0.2126 + 0.7152 * 0.5 + 0.0722 * 0.25, 1e-5);
}

TEST(FilterTest, GaussianBlurPreservesMeanAndSmooths)
{
    Rng rng(3);
    ImageF img(32, 32);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            img.at(x, y) = static_cast<float>(rng.uniform());
    const ImageF blurred = gaussianBlur(img, 2.0);
    EXPECT_NEAR(blurred.mean(), img.mean(), 0.02);

    // Variance must shrink under blurring.
    auto variance = [](const ImageF &im) {
        const double m = im.mean();
        double acc = 0.0;
        for (int y = 0; y < im.height(); ++y)
            for (int x = 0; x < im.width(); ++x)
                acc += (im.at(x, y) - m) * (im.at(x, y) - m);
        return acc / im.pixelCount();
    };
    EXPECT_LT(variance(blurred), 0.25 * variance(img));
}

TEST(FilterTest, SobelDetectsVerticalEdge)
{
    ImageF img(16, 16);
    for (int y = 0; y < 16; ++y)
        for (int x = 8; x < 16; ++x)
            img.at(x, y) = 1.0f;
    const ImageF gx = sobelX(img);
    const ImageF gy = sobelY(img);
    EXPECT_GT(gx.at(7, 8), 0.2f); // Strong horizontal gradient on edge.
    EXPECT_NEAR(gy.at(7, 8), 0.0f, 1e-6);
    EXPECT_NEAR(gx.at(2, 8), 0.0f, 1e-6); // Flat away from the edge.
}

TEST(FilterTest, BilateralPreservesEdgesAndIgnoresInvalid)
{
    // Step edge with an invalid hole: the filter must not bleed the
    // edge or fill the hole.
    ImageF img(16, 16);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            img.at(x, y) = (x < 8) ? 1.0f : 3.0f;
    img.at(4, 4) = 0.0f; // Invalid.
    const ImageF out = bilateralFilter(img, 1.5, 0.2);
    EXPECT_NEAR(out.at(2, 8), 1.0f, 0.05);
    EXPECT_NEAR(out.at(12, 8), 3.0f, 0.05);
    EXPECT_FLOAT_EQ(out.at(4, 4), 0.0f);
}

TEST(FilterTest, BilateralMatchesReference)
{
    // Seeded random depth with invalid (<= 0) pixels, some on the
    // border, against the direct formula: both factors evaluated with
    // std::exp at every tap.
    Rng rng(42);
    ImageF depth(37, 29);
    for (int y = 0; y < depth.height(); ++y)
        for (int x = 0; x < depth.width(); ++x)
            depth.at(x, y) = rng.uniform() < 0.15
                                 ? 0.0f
                                 : static_cast<float>(rng.uniform(0.5, 4.0));
    depth.at(0, 0) = 0.0f;
    depth.at(36, 5) = -1.0f;
    depth.at(11, 28) = 0.0f;
    depth.at(0, 17) = -0.25f;
    const double range_sigma = 0.08;
    for (double spatial_sigma : {1.2, 1.5}) {
        SCOPED_TRACE(spatial_sigma);
        const int radius = std::max(
            1, static_cast<int>(std::ceil(2.0 * spatial_sigma)));
        const double inv_2ss = 1.0 / (2.0 * spatial_sigma * spatial_sigma);
        const double inv_2rs = 1.0 / (2.0 * range_sigma * range_sigma);
        const ImageF out = bilateralFilter(depth, spatial_sigma, range_sigma);
        for (int y = 0; y < depth.height(); ++y) {
            for (int x = 0; x < depth.width(); ++x) {
                const double center = depth.at(x, y);
                float expected = 0.0f;
                if (center > 0.0) {
                    double acc = 0.0;
                    double weight_sum = 0.0;
                    for (int dy = -radius; dy <= radius; ++dy) {
                        for (int dx = -radius; dx <= radius; ++dx) {
                            const double v = depth.atClamped(x + dx, y + dy);
                            if (v <= 0.0)
                                continue;
                            const double diff = v - center;
                            const double w =
                                std::exp(-(dx * dx + dy * dy) * inv_2ss) *
                                std::exp(-diff * diff * inv_2rs);
                            acc += w * v;
                            weight_sum += w;
                        }
                    }
                    expected = static_cast<float>(
                        weight_sum > 0.0 ? acc / weight_sum : 0.0);
                }
                const float got = out.at(x, y);
                ASSERT_EQ(std::memcmp(&got, &expected, sizeof(float)), 0)
                    << "pixel (" << x << ", " << y << "): " << got
                    << " vs " << expected;
            }
        }
    }
}

TEST(FilterTest, DownsampleHalfHalvesDimensions)
{
    const ImageF img = makeTestImage(64, 48);
    const ImageF half = downsampleHalf(img);
    EXPECT_EQ(half.width(), 32);
    EXPECT_EQ(half.height(), 24);
    EXPECT_NEAR(half.mean(), img.mean(), 0.01);
}

TEST(FilterTest, ResizeBilinearShapeAndRange)
{
    const ImageF img = makeTestImage(40, 30);
    const ImageF up = resizeBilinear(img, 80, 60);
    EXPECT_EQ(up.width(), 80);
    EXPECT_EQ(up.height(), 60);
    EXPECT_NEAR(up.mean(), img.mean(), 0.02);
}

TEST(PyramidTest, LevelsHalve)
{
    const ImageF img = makeTestImage(128, 96);
    ImagePyramid pyr(img, 3);
    ASSERT_EQ(pyr.levels(), 3);
    EXPECT_EQ(pyr.level(0).width(), 128);
    EXPECT_EQ(pyr.level(1).width(), 64);
    EXPECT_EQ(pyr.level(2).width(), 32);
}

TEST(PyramidTest, LevelZeroBorrowsTheBaseImage)
{
    // The shared_ptr overload aliases the caller's image instead of
    // copying it.
    auto base = std::make_shared<const ImageF>(makeTestImage(128, 96));
    ImagePyramid pyr(base, 3);
    EXPECT_EQ(pyr.level(0).data(), base->data());
}

TEST(PyramidTest, StopsBeforeTinyLevels)
{
    const ImageF img = makeTestImage(40, 40);
    ImagePyramid pyr(img, 6);
    EXPECT_LE(pyr.levels(), 2); // 40 -> 20 (too small to halve again).
}

TEST(IoTest, PgmRoundTrip)
{
    const ImageF img = makeTestImage(31, 17);
    const std::string path = "/tmp/illixr_test_roundtrip.pgm";
    ASSERT_TRUE(writePgm(img, path));
    const ImageF back = readPgm(path);
    ASSERT_EQ(back.width(), 31);
    ASSERT_EQ(back.height(), 17);
    for (int y = 0; y < 17; ++y)
        for (int x = 0; x < 31; ++x)
            EXPECT_NEAR(back.at(x, y), img.at(x, y), 1.0 / 255.0 + 1e-6);
    std::remove(path.c_str());
}

TEST(IoTest, PpmRoundTrip)
{
    const RgbImage img = makeTestRgb(23, 11);
    const std::string path = "/tmp/illixr_test_roundtrip.ppm";
    ASSERT_TRUE(writePpm(img, path));
    const RgbImage back = readPpm(path);
    ASSERT_EQ(back.width(), 23);
    ASSERT_EQ(back.height(), 11);
    EXPECT_NEAR(back.r.at(5, 5), img.r.at(5, 5), 1.0 / 255.0 + 1e-6);
    EXPECT_NEAR(back.g.at(5, 5), img.g.at(5, 5), 1.0 / 255.0 + 1e-6);
    EXPECT_NEAR(back.b.at(5, 5), img.b.at(5, 5), 1.0 / 255.0 + 1e-6);
    std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileReturnsEmpty)
{
    EXPECT_TRUE(readPgm("/tmp/does_not_exist_illixr.pgm").empty());
    EXPECT_TRUE(readPpm("/tmp/does_not_exist_illixr.ppm").empty());
}

TEST(SsimTest, IdenticalImagesScoreOne)
{
    const ImageF img = makeTestImage(64, 64);
    EXPECT_NEAR(ssim(img, img), 1.0, 1e-9);
}

TEST(SsimTest, NoiseDegradesScore)
{
    const ImageF img = makeTestImage(64, 64);
    Rng rng(9);
    ImageF noisy = img;
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            noisy.at(x, y) += static_cast<float>(rng.gaussian(0.0, 0.1));
    const double s = ssim(img, noisy);
    EXPECT_LT(s, 0.95);
    EXPECT_GT(s, 0.0);
}

TEST(SsimTest, MonotonicInNoiseLevel)
{
    const ImageF img = makeTestImage(64, 64);
    double prev = 1.0;
    for (double sigma : {0.02, 0.06, 0.15}) {
        Rng rng(10);
        ImageF noisy = img;
        for (int y = 0; y < 64; ++y)
            for (int x = 0; x < 64; ++x)
                noisy.at(x, y) +=
                    static_cast<float>(rng.gaussian(0.0, sigma));
        const double s = ssim(img, noisy);
        EXPECT_LT(s, prev);
        prev = s;
    }
}

TEST(SsimTest, SizeMismatchReturnsZero)
{
    EXPECT_DOUBLE_EQ(ssim(ImageF(8, 8), ImageF(9, 8)), 0.0);
}

TEST(FlipTest, IdenticalImagesScoreZero)
{
    const RgbImage img = makeTestRgb(48, 48);
    EXPECT_NEAR(flip(img, img), 0.0, 1e-9);
}

TEST(FlipTest, ColorShiftIsPenalized)
{
    const RgbImage img = makeTestRgb(48, 48);
    RgbImage shifted = img;
    for (int y = 0; y < 48; ++y) {
        for (int x = 0; x < 48; ++x) {
            Vec3 p = img.pixel(x, y);
            p.x = std::min(1.0, p.x + 0.3);
            shifted.setPixel(x, y, p);
        }
    }
    EXPECT_GT(flip(shifted, img), 0.05);
}

TEST(FlipTest, MonotonicInDistortion)
{
    const RgbImage img = makeTestRgb(48, 48);
    double prev = 0.0;
    for (double amount : {0.1, 0.3, 0.6}) {
        RgbImage distorted = img;
        for (int y = 0; y < 48; ++y) {
            for (int x = 0; x < 48; ++x) {
                Vec3 p = img.pixel(x, y);
                p.y = std::min(1.0, p.y + amount);
                distorted.setPixel(x, y, p);
            }
        }
        const double e = flip(distorted, img);
        EXPECT_GT(e, prev);
        prev = e;
    }
}

TEST(FlipTest, SizeMismatchIsMaxError)
{
    EXPECT_DOUBLE_EQ(flip(RgbImage(8, 8), RgbImage(9, 8)), 1.0);
}

TEST(FlipTest, ValuesInUnitRange)
{
    const RgbImage a = makeTestRgb(32, 32);
    RgbImage b(32, 32, Vec3(1.0, 0.0, 1.0)); // Max-contrast field.
    const ImageF map = flipMap(b, a);
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            EXPECT_GE(map.at(x, y), 0.0f);
            EXPECT_LE(map.at(x, y), 1.0f);
        }
    }
}

} // namespace
} // namespace illixr
