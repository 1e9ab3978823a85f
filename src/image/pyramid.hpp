/**
 * @file
 * Image pyramid for the pyramidal Lucas–Kanade tracker.
 */

#pragma once

#include "image/image.hpp"

#include <memory>
#include <vector>

namespace illixr {

/**
 * Gaussian image pyramid: level 0 is the source image, each higher
 * level is blurred and halved.
 *
 * Level 0 is held by shared_ptr, so a pyramid built from a camera
 * frame event aliases the event's image instead of deep-copying it,
 * and every consumer of the same frame shares one pyramid
 * (`std::shared_ptr<const ImagePyramid>` on the camera->pyramid->
 * tracker path).
 */
class ImagePyramid
{
  public:
    ImagePyramid() = default;

    /**
     * Build @p levels levels from @p base (levels >= 1). Stops early
     * when a level would fall below 32 pixels on a side. Copies the
     * base image; prefer the shared_ptr overload on hot paths.
     */
    ImagePyramid(const ImageF &base, int levels);

    /** Zero-copy build: level 0 aliases @p base. */
    ImagePyramid(std::shared_ptr<const ImageF> base, int levels);

    int levels() const
    {
        return base_ ? 1 + static_cast<int>(higher_.size()) : 0;
    }

    const ImageF &level(int i) const
    {
        return i == 0 ? *base_ : higher_[i - 1];
    }

    /** The shared base image (level 0). */
    const std::shared_ptr<const ImageF> &baseShared() const
    {
        return base_;
    }

  private:
    void build(int levels);

    std::shared_ptr<const ImageF> base_;
    std::vector<ImageF> higher_; ///< Levels 1..n-1.
};

} // namespace illixr
