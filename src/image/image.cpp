#include "image/image.hpp"

#include <algorithm>
#include <cmath>

namespace illixr {

ImageF::ImageF(int width, int height, float fill)
    : width_(width), height_(height),
      data_(static_cast<std::size_t>(width) * height, fill)
{
}

float
ImageF::atClamped(int x, int y) const
{
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return data_[idx(x, y)];
}

double
ImageF::mean() const
{
    if (data_.empty())
        return 0.0;
    double acc = 0.0;
    for (float v : data_)
        acc += v;
    return acc / static_cast<double>(data_.size());
}

void
ImageF::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

RgbImage::RgbImage(int width, int height, const Vec3 &fill)
    : r(width, height, static_cast<float>(fill.x)),
      g(width, height, static_cast<float>(fill.y)),
      b(width, height, static_cast<float>(fill.z))
{
}

void
RgbImage::setPixel(int x, int y, const Vec3 &rgb)
{
    r.at(x, y) = static_cast<float>(rgb.x);
    g.at(x, y) = static_cast<float>(rgb.y);
    b.at(x, y) = static_cast<float>(rgb.z);
}

Vec3
RgbImage::pixel(int x, int y) const
{
    return {r.at(x, y), g.at(x, y), b.at(x, y)};
}

Vec3
RgbImage::sampleBilinear(double x, double y) const
{
    return {r.sampleBilinear(x, y), g.sampleBilinear(x, y),
            b.sampleBilinear(x, y)};
}

ImageF
RgbImage::luminance() const
{
    ImageF lum(width(), height());
    for (int y = 0; y < height(); ++y) {
        for (int x = 0; x < width(); ++x) {
            lum.at(x, y) = 0.2126f * r.at(x, y) + 0.7152f * g.at(x, y) +
                           0.0722f * b.at(x, y);
        }
    }
    return lum;
}

} // namespace illixr
