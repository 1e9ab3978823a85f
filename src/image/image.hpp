/**
 * @file
 * Image containers shared by the camera path, the renderer, the
 * visual pipeline, and the QoE metrics.
 *
 * Grayscale images are single-plane float in [0, 1]; color images are
 * three planar float channels. Planar storage keeps the per-channel
 * kernels (blur, SSIM windows, chromatic-aberration sampling) simple
 * and cache-friendly.
 */

#pragma once

#include "foundation/vec.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace illixr {

/** Single-channel float image, row-major, values nominally in [0, 1]. */
class ImageF
{
  public:
    ImageF() = default;
    ImageF(int width, int height, float fill = 0.0f);

    int width() const { return width_; }
    int height() const { return height_; }
    bool empty() const { return data_.empty(); }
    std::size_t pixelCount() const { return data_.size(); }

    float &at(int x, int y) { return data_[idx(x, y)]; }
    float at(int x, int y) const { return data_[idx(x, y)]; }

    /** Clamped integer access (edge pixels repeat outside bounds). */
    float atClamped(int x, int y) const;

    /** Bilinear sample at continuous coordinates (pixel centers at
     *  integer coordinates); clamps to the image border. Inline: KLT
     *  and ICP call it in their innermost loops. */
    float
    sampleBilinear(double x, double y) const
    {
        x = std::clamp(x, 0.0, static_cast<double>(width_ - 1));
        y = std::clamp(y, 0.0, static_cast<double>(height_ - 1));
        const int x0 = static_cast<int>(x);
        const int y0 = static_cast<int>(y);
        const int x1 = std::min(x0 + 1, width_ - 1);
        const int y1 = std::min(y0 + 1, height_ - 1);
        const double fx = x - x0;
        const double fy = y - y0;
        const double top = at(x0, y0) * (1.0 - fx) + at(x1, y0) * fx;
        const double bot = at(x0, y1) * (1.0 - fx) + at(x1, y1) * fx;
        return static_cast<float>(top * (1.0 - fy) + bot * fy);
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Mean pixel value (0 for an empty image). */
    double mean() const;

    /** Fill every pixel. */
    void fill(float value);

    bool inBounds(int x, int y) const
    {
        return x >= 0 && y >= 0 && x < width_ && y < height_;
    }

  private:
    std::size_t idx(int x, int y) const
    {
        return static_cast<std::size_t>(y) * width_ + x;
    }

    int width_ = 0;
    int height_ = 0;
    std::vector<float> data_;
};

/** Three-plane RGB float image. */
class RgbImage
{
  public:
    RgbImage() = default;
    RgbImage(int width, int height, const Vec3 &fill = Vec3(0, 0, 0));

    int width() const { return r.width(); }
    int height() const { return r.height(); }
    bool empty() const { return r.empty(); }

    /** Set one pixel from an RGB triple (components in [0, 1]). */
    void setPixel(int x, int y, const Vec3 &rgb);

    /** Read one pixel as an RGB triple. */
    Vec3 pixel(int x, int y) const;

    /** Bilinear sample of all channels. */
    Vec3 sampleBilinear(double x, double y) const;

    /** ITU-R BT.709 luminance image. */
    ImageF luminance() const;

    ImageF r;
    ImageF g;
    ImageF b;
};

/** Single-channel float depth image in meters; 0 marks invalid. */
using DepthImage = ImageF;

} // namespace illixr
