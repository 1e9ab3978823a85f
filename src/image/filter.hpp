/**
 * @file
 * Image filtering kernels: separable Gaussian blur, Sobel gradients,
 * bilateral filtering (used by scene reconstruction's camera
 * processing task), and simple resampling.
 */

#pragma once

#include "image/image.hpp"

namespace illixr {

/** Separable Gaussian blur with the given sigma (radius = 3 sigma). */
ImageF gaussianBlur(const ImageF &src, double sigma);

/** Horizontal Sobel gradient (dI/dx). */
ImageF sobelX(const ImageF &src);

/** Vertical Sobel gradient (dI/dy). */
ImageF sobelY(const ImageF &src);

/**
 * Bilateral filter: Gaussian in space and in intensity. Invalid
 * pixels (value <= 0) are ignored — matching the depth-map denoise +
 * invalid-depth-rejection step of scene reconstruction.
 *
 * @param spatial_sigma Space kernel sigma in pixels.
 * @param range_sigma   Intensity kernel sigma in image units.
 */
ImageF bilateralFilter(const ImageF &src, double spatial_sigma,
                       double range_sigma);

/** Downsample by 2 with a 2x2 box average. */
ImageF downsampleHalf(const ImageF &src);

namespace detail {

/**
 * Separable Gaussian into @p dst (w*h floats), so the pyramid path
 * writes each level without an ImageF copy. @p src and @p dst may not
 * alias.
 */
void gaussianBlurRaw(const float *src, int w, int h, double sigma,
                     float *dst);

/** 2x2 box downsample into dst (max(1,w/2) x max(1,h/2) floats). */
void downsampleHalfRaw(const float *src, int w, int h, float *dst);

} // namespace detail

/** Resize to an arbitrary resolution with bilinear sampling. */
ImageF resizeBilinear(const ImageF &src, int new_width, int new_height);

} // namespace illixr
