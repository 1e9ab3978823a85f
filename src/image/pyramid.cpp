#include "image/pyramid.hpp"

#include "image/filter.hpp"

#include <algorithm>
#include <vector>

namespace illixr {

ImagePyramid::ImagePyramid(const ImageF &base, int levels)
    : base_(std::make_shared<const ImageF>(base))
{
    build(levels);
}

ImagePyramid::ImagePyramid(std::shared_ptr<const ImageF> base, int levels)
    : base_(std::move(base))
{
    if (base_)
        build(levels);
}

void
ImagePyramid::build(int levels)
{
    const ImageF *prev = base_.get();
    for (int i = 1; i < levels; ++i) {
        if (prev->width() < 32 || prev->height() < 32)
            break;
        const int w = prev->width();
        const int h = prev->height();
        // The blurred full-resolution intermediate only feeds the
        // downsample.
        std::vector<float> blurred(static_cast<std::size_t>(w) * h);
        detail::gaussianBlurRaw(prev->data(), w, h, 1.0, blurred.data());
        ImageF next(std::max(1, w / 2), std::max(1, h / 2));
        detail::downsampleHalfRaw(blurred.data(), w, h, next.data());
        higher_.push_back(std::move(next));
        prev = &higher_.back();
    }
}

} // namespace illixr
