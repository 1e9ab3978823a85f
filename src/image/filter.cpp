#include "image/filter.hpp"

#include "foundation/simd.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace illixr {

namespace {

inline int
clampi(int v, int lo, int hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

/** Normalized 1-D Gaussian kernel with radius 3 sigma. */
std::vector<double>
gaussianKernel(double sigma)
{
    const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    std::vector<double> k(2 * radius + 1);
    double sum = 0.0;
    for (int i = -radius; i <= radius; ++i) {
        const double v = std::exp(-(i * i) / (2.0 * sigma * sigma));
        k[i + radius] = v;
        sum += v;
    }
    for (double &v : k)
        v /= sum;
    return k;
}

} // namespace

namespace detail {

void
gaussianBlurRaw(const float *src, int w, int h, double sigma, float *dst)
{
    if (w <= 0 || h <= 0)
        return;
    // The vectorized passes assume distinct src/dst ranges (in-place
    // blur was never a supported call pattern).
    simd::requireNoOverlap(src, static_cast<std::size_t>(w) * h *
                                    sizeof(float),
                           dst, static_cast<std::size_t>(w) * h *
                                    sizeof(float),
                           "gaussianBlurRaw");
    if (sigma <= 0.0) {
        std::copy(src, src + static_cast<std::size_t>(w) * h, dst);
        return;
    }
    const auto kernel = gaussianKernel(sigma);
    const int radius = static_cast<int>(kernel.size() / 2);

    std::vector<float> tmp_buf(static_cast<std::size_t>(w) * h);
    float *tmp = tmp_buf.data();

    using simd::VecD4;
    // Horizontal pass. Interior pixels — where the clamp is the
    // identity — run four at a time in Vec<double, 4> with the double
    // accumulator and serial tap order preserved (float -> double
    // widening is exact and the final narrowing store is the same IEEE
    // round, so results are bit-identical to the scalar loop; DESIGN.md
    // "SIMD & data layout"). Border pixels keep the scalar clamped path.
    for (int y = 0; y < h; ++y) {
        const float *row = src + static_cast<std::size_t>(y) * w;
        float *out_row = tmp + static_cast<std::size_t>(y) * w;
        auto scalar_px = [&](int x) {
            double acc = 0.0;
            for (int k = -radius; k <= radius; ++k)
                acc += kernel[k + radius] * row[clampi(x + k, 0, w - 1)];
            out_row[x] = static_cast<float>(acc);
        };
        const int interior_end = w - radius;
        int x = 0;
        for (; x < std::min(radius, w); ++x)
            scalar_px(x);
        for (; x + 4 <= interior_end; x += 4) {
            VecD4 acc = VecD4::zero();
            for (int k = -radius; k <= radius; ++k)
                acc = simd::madd(acc, VecD4::broadcast(kernel[k + radius]),
                                 simd::widenLoad(row + x + k));
            simd::narrowStore4(acc, out_row + x);
        }
        for (; x < w; ++x)
            scalar_px(x);
    }
    // Vertical pass over the materialized horizontal pass. The clamp
    // is on y — uniform across a row — so every x vectorizes.
    for (int y = 0; y < h; ++y) {
        float *out_row = dst + static_cast<std::size_t>(y) * w;
        int x = 0;
        for (; x + 4 <= w; x += 4) {
            VecD4 acc = VecD4::zero();
            for (int k = -radius; k <= radius; ++k) {
                const int yy = clampi(y + k, 0, h - 1);
                acc = simd::madd(
                    acc, VecD4::broadcast(kernel[k + radius]),
                    simd::widenLoad(tmp + static_cast<std::size_t>(yy) * w +
                                    x));
            }
            simd::narrowStore4(acc, out_row + x);
        }
        for (; x < w; ++x) {
            double acc = 0.0;
            for (int k = -radius; k <= radius; ++k) {
                const int yy = clampi(y + k, 0, h - 1);
                acc += kernel[k + radius] *
                       tmp[static_cast<std::size_t>(yy) * w + x];
            }
            out_row[x] = static_cast<float>(acc);
        }
    }
}

void
downsampleHalfRaw(const float *src, int w, int h, float *dst)
{
    const int ow = std::max(1, w / 2);
    const int oh = std::max(1, h / 2);
    // dst rows read src rows at different offsets; overlap corrupts.
    simd::requireNoOverlap(src, static_cast<std::size_t>(w) * h *
                                    sizeof(float),
                           dst, static_cast<std::size_t>(ow) * oh *
                                    sizeof(float),
                           "downsampleHalfRaw");
    for (int y = 0; y < oh; ++y) {
        float *out_row = dst + static_cast<std::size_t>(y) * ow;
        const int y0 = clampi(2 * y, 0, h - 1);
        const int y1 = clampi(2 * y + 1, 0, h - 1);
        for (int x = 0; x < ow; ++x) {
            const int x0 = clampi(2 * x, 0, w - 1);
            const int x1 = clampi(2 * x + 1, 0, w - 1);
            const double v = (src[static_cast<std::size_t>(y0) * w + x0] +
                              src[static_cast<std::size_t>(y0) * w + x1] +
                              src[static_cast<std::size_t>(y1) * w + x0] +
                              src[static_cast<std::size_t>(y1) * w + x1]) /
                             4.0;
            out_row[x] = static_cast<float>(v);
        }
    }
}

} // namespace detail

ImageF
gaussianBlur(const ImageF &src, double sigma)
{
    if (src.empty() || sigma <= 0.0)
        return src;
    ImageF out(src.width(), src.height());
    detail::gaussianBlurRaw(src.data(), src.width(), src.height(), sigma,
                            out.data());
    return out;
}

ImageF
sobelX(const ImageF &src)
{
    ImageF out(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            const double v =
                -src.atClamped(x - 1, y - 1) + src.atClamped(x + 1, y - 1) -
                2.0 * src.atClamped(x - 1, y) + 2.0 * src.atClamped(x + 1, y) -
                src.atClamped(x - 1, y + 1) + src.atClamped(x + 1, y + 1);
            out.at(x, y) = static_cast<float>(v / 8.0);
        }
    }
    return out;
}

ImageF
sobelY(const ImageF &src)
{
    ImageF out(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            const double v =
                -src.atClamped(x - 1, y - 1) - 2.0 * src.atClamped(x, y - 1) -
                src.atClamped(x + 1, y - 1) + src.atClamped(x - 1, y + 1) +
                2.0 * src.atClamped(x, y + 1) + src.atClamped(x + 1, y + 1);
            out.at(x, y) = static_cast<float>(v / 8.0);
        }
    }
    return out;
}

ImageF
bilateralFilter(const ImageF &src, double spatial_sigma, double range_sigma)
{
    const int radius =
        std::max(1, static_cast<int>(std::ceil(2.0 * spatial_sigma)));
    ImageF out(src.width(), src.height());
    const double inv_2ss = 1.0 / (2.0 * spatial_sigma * spatial_sigma);
    const double inv_2rs = 1.0 / (2.0 * range_sigma * range_sigma);

    // Spatial factor of each tap in row-major tap order, the same
    // expression for every pixel.
    std::vector<double> spatial;
    for (int dy = -radius; dy <= radius; ++dy)
        for (int dx = -radius; dx <= radius; ++dx)
            spatial.push_back(std::exp(-(dx * dx + dy * dy) * inv_2ss));

    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            const double center = src.at(x, y);
            if (center <= 0.0) {
                out.at(x, y) = 0.0f; // Invalid stays invalid.
                continue;
            }
            double acc = 0.0;
            double weight_sum = 0.0;
            const double *tap = spatial.data();
            for (int dy = -radius; dy <= radius; ++dy) {
                for (int dx = -radius; dx <= radius; ++dx, ++tap) {
                    const double v = src.atClamped(x + dx, y + dy);
                    if (v <= 0.0)
                        continue; // Reject invalid neighbors.
                    const double diff = v - center;
                    const double w =
                        *tap * std::exp(-diff * diff * inv_2rs);
                    acc += w * v;
                    weight_sum += w;
                }
            }
            out.at(x, y) =
                static_cast<float>(weight_sum > 0.0 ? acc / weight_sum : 0.0);
        }
    }
    return out;
}

ImageF
downsampleHalf(const ImageF &src)
{
    const int w = std::max(1, src.width() / 2);
    const int h = std::max(1, src.height() / 2);
    ImageF out(w, h);
    if (!src.empty())
        detail::downsampleHalfRaw(src.data(), src.width(), src.height(),
                                  out.data());
    return out;
}

ImageF
resizeBilinear(const ImageF &src, int new_width, int new_height)
{
    ImageF out(new_width, new_height);
    const double sx =
        static_cast<double>(src.width()) / static_cast<double>(new_width);
    const double sy =
        static_cast<double>(src.height()) / static_cast<double>(new_height);
    for (int y = 0; y < new_height; ++y) {
        for (int x = 0; x < new_width; ++x) {
            out.at(x, y) = src.sampleBilinear((x + 0.5) * sx - 0.5,
                                              (y + 0.5) * sy - 0.5);
        }
    }
    return out;
}

} // namespace illixr
