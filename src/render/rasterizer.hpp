/**
 * @file
 * Software rasterizer: the GPU-graphics substitute that renders the
 * application scenes (and whose modeled cost drives the "application"
 * component of the integrated system).
 *
 * Z-buffered triangle rasterization with per-vertex (Gouraud)
 * lighting, optional per-pixel (Phong-style) shading for the
 * Materials app, and backface culling.
 */

#pragma once

#include "foundation/mat.hpp"
#include "image/image.hpp"
#include "render/mesh.hpp"

#include <cstdint>
#include <vector>

namespace illixr {

/** Shading model selector. */
enum class ShadingModel
{
    Gouraud,  ///< Per-vertex diffuse (cheap).
    PerPixel, ///< Per-pixel diffuse+specular (Materials-style PBR-lite).
};

/** Simple directional light. */
struct DirectionalLight
{
    Vec3 direction{0.4, 1.0, 0.3}; ///< Toward the light (world).
    double intensity = 0.9;
    double ambient = 0.25;
};

/** Render statistics for the work model. */
struct RasterStats
{
    std::size_t triangles_submitted = 0;
    std::size_t triangles_rasterized = 0; ///< After culling/clip reject.
    std::size_t fragments_shaded = 0;
    std::size_t draw_calls = 0;

    void reset() { *this = RasterStats(); }
};

/** One mesh of a draw list: geometry, placement and shading. */
struct DrawCall
{
    const Mesh *mesh = nullptr;
    Mat4 model;                                   ///< Model-to-world.
    ShadingModel shading = ShadingModel::Gouraud;
};

/**
 * Color + depth framebuffer with draw calls.
 */
class Rasterizer
{
  public:
    Rasterizer(int width, int height);

    /** Clear color and depth. */
    void clear(const Vec3 &color);

    /**
     * Draw a list of meshes in submission order: later calls are
     * depth-tested against earlier ones exactly as if each were drawn
     * on its own, but the whole list costs one vertex-transform and
     * one band-raster kernel launch.
     *
     * @param calls   Meshes with their model transform and shading.
     * @param view    World-to-view transform.
     * @param proj    Perspective projection.
     * @param light   Scene light.
     */
    void draw(const std::vector<DrawCall> &calls, const Mat4 &view,
              const Mat4 &proj, const DirectionalLight &light);

    /** Draw one mesh (a one-element draw list). */
    void draw(const Mesh &mesh, const Mat4 &model, const Mat4 &view,
              const Mat4 &proj, const DirectionalLight &light,
              ShadingModel shading = ShadingModel::Gouraud)
    {
        draw({DrawCall{&mesh, model, shading}}, view, proj, light);
    }

    const RgbImage &color() const { return color_; }
    const ImageF &depth() const { return depth_; }
    RasterStats &stats() { return stats_; }
    const RasterStats &stats() const { return stats_; }

    int width() const { return color_.width(); }
    int height() const { return color_.height(); }

  private:
    RgbImage color_;
    ImageF depth_; ///< NDC depth in [-1, 1]; init +inf-like.
    RasterStats stats_;
};

} // namespace illixr
