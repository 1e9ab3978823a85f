#include "render/rasterizer.hpp"

#include "runtime/parallel.hpp"

#include <algorithm>
#include <cmath>

namespace illixr {

namespace {

/** Post-transform vertex. */
struct ShadedVertex
{
    Vec3 ndc;        ///< Normalized device coordinates.
    double inv_w = 0.0;
    Vec3 color;      ///< Gouraud-lit color (pre-divided by w).
    Vec3 normal;     ///< World normal / w (for per-pixel shading).
    Vec3 world;      ///< World position / w.
};

double
edgeFunction(double ax, double ay, double bx, double by, double cx,
             double cy)
{
    return (cx - ax) * (by - ay) - (cy - ay) * (bx - ax);
}

/** Screen-space triangle after setup/culling, ready to rasterize. */
struct SetupTriangle
{
    const ShadedVertex *a = nullptr;
    const ShadedVertex *b = nullptr;
    const ShadedVertex *c = nullptr;
    double ax, ay, bx, by, cx, cy;
    double inv_area;
    int x0, x1, y0, y1; ///< Clamped bounding box.
    ShadingModel shading; ///< Of the draw call the triangle belongs to.
};

/** Rows of the framebuffer covered by one rasterizer tile band. */
constexpr int kBandRows = 16;

} // namespace

Rasterizer::Rasterizer(int width, int height)
    : color_(width, height), depth_(width, height, 1e30f)
{
}

void
Rasterizer::clear(const Vec3 &color)
{
    for (int y = 0; y < height(); ++y)
        for (int x = 0; x < width(); ++x)
            color_.setPixel(x, y, color);
    depth_.fill(1e30f);
}

void
Rasterizer::draw(const std::vector<DrawCall> &calls, const Mat4 &view,
                 const Mat4 &proj, const DirectionalLight &light)
{
    const Vec3 light_dir = light.direction.normalized();
    // Camera position in world space (for specular).
    const Mat4 view_inv = view.inverse();
    const Vec3 eye(view_inv(0, 3), view_inv(1, 3), view_inv(2, 3));

    // Every call's vertices are transformed into one joined array;
    // call c owns [vert_base[c], vert_base[c + 1]).
    std::vector<Mat4> mvp(calls.size());
    std::vector<std::size_t> vert_base(calls.size() + 1, 0);
    std::size_t tri_count = 0;
    for (std::size_t c = 0; c < calls.size(); ++c) {
        mvp[c] = proj * (view * calls[c].model);
        vert_base[c + 1] = vert_base[c] + calls[c].mesh->vertices.size();
        tri_count += calls[c].mesh->triangleCount();
    }
    stats_.draw_calls += calls.size();
    stats_.triangles_submitted += tri_count;

    // Transform all vertices once. (`char`, not `vector<bool>`: tiles
    // write disjoint plain bytes, never shared packed words.)
    std::vector<ShadedVertex> tv(vert_base.back());
    std::vector<char> valid(vert_base.back(), 1);
    parallelFor("raster_xform", 0, vert_base.back(), 64,
                [&](std::size_t vb, std::size_t ve) {
    // First call owning vertex vb; a tile may span several calls.
    std::size_t c = static_cast<std::size_t>(
        std::upper_bound(vert_base.begin(), vert_base.end(), vb) -
        vert_base.begin() - 1);
    for (std::size_t i = vb; i < ve; ++i) {
        while (i >= vert_base[c + 1])
            ++c;
        const DrawCall &call = calls[c];
        const Vertex &v = call.mesh->vertices[i - vert_base[c]];
        const Vec3 world = call.model.transformPoint(v.position);
        const Vec4 clip = mvp[c] * Vec4(v.position, 1.0);
        if (clip.w <= 1e-6) {
            valid[i] = 0; // Behind the near plane.
            continue;
        }
        ShadedVertex &out = tv[i];
        out.inv_w = 1.0 / clip.w;
        out.ndc = Vec3(clip.x, clip.y, clip.z) * out.inv_w;
        const Vec3 n = call.model.transformDirection(v.normal).normalized();
        if (call.shading == ShadingModel::Gouraud) {
            const double diffuse =
                std::max(0.0, n.dot(light_dir)) * light.intensity;
            out.color = v.color * (light.ambient + diffuse);
        } else {
            out.color = v.color;
        }
        out.normal = n;
        out.world = world;
    }
                });

    const int w = width();
    const int h = height();
    const double half_w = w / 2.0;
    const double half_h = h / 2.0;

    // --- Triangle setup (serial): cull, clamp, and record screen
    // geometry in submission order, call after call. ---
    std::vector<SetupTriangle> tris;
    tris.reserve(tri_count);
    for (std::size_t ci = 0; ci < calls.size(); ++ci) {
        const std::vector<std::uint32_t> &indices = calls[ci].mesh->indices;
        const std::size_t base = vert_base[ci];
        for (std::size_t t = 0; t + 2 < indices.size(); t += 3) {
            const std::size_t ia = base + indices[t];
            const std::size_t ib = base + indices[t + 1];
            const std::size_t ic = base + indices[t + 2];
            if (!valid[ia] || !valid[ib] || !valid[ic])
                continue;
            const ShadedVertex &a = tv[ia];
            const ShadedVertex &b = tv[ib];
            const ShadedVertex &c = tv[ic];

            // Screen-space coordinates (y down).
            const double ax = (a.ndc.x + 1.0) * half_w;
            const double ay = (1.0 - a.ndc.y) * half_h;
            const double bx = (b.ndc.x + 1.0) * half_w;
            const double by = (1.0 - b.ndc.y) * half_h;
            const double cx = (c.ndc.x + 1.0) * half_w;
            const double cy = (1.0 - c.ndc.y) * half_h;

            const double area = edgeFunction(ax, ay, bx, by, cx, cy);
            if (area <= 0.0)
                continue; // Backface (front faces are CCW, positive area).

            // Bounding box clamp.
            const int x0 = std::max(
                0, static_cast<int>(std::floor(std::min({ax, bx, cx}))));
            const int x1 = std::min(
                w - 1,
                static_cast<int>(std::ceil(std::max({ax, bx, cx}))));
            const int y0 = std::max(
                0, static_cast<int>(std::floor(std::min({ay, by, cy}))));
            const int y1 = std::min(
                h - 1,
                static_cast<int>(std::ceil(std::max({ay, by, cy}))));
            if (x0 > x1 || y0 > y1)
                continue;
            ++stats_.triangles_rasterized;
            tris.push_back({&a, &b, &c, ax, ay, bx, by, cx, cy,
                            1.0 / area, x0, x1, y0, y1,
                            calls[ci].shading});
        }
    }

    // --- Bin triangles into horizontal tile bands (serial, so each
    // band sees its triangles in submission order). ---
    const std::size_t bands =
        (static_cast<std::size_t>(h) + kBandRows - 1) / kBandRows;
    std::vector<std::vector<std::size_t>> bins(bands);
    for (std::size_t i = 0; i < tris.size(); ++i) {
        for (int band = tris[i].y0 / kBandRows;
             band <= tris[i].y1 / kBandRows; ++band)
            bins[static_cast<std::size_t>(band)].push_back(i);
    }

    // --- Rasterize bands in parallel. Every pixel belongs to exactly
    // one band and each band replays its triangles in submission
    // order across all calls, so the depth-test sequence per pixel is
    // identical to drawing the calls one by one on a serial
    // rasterizer. Fragment counts combine in band order. ---
    std::vector<std::size_t> band_frags(bands, 0);
    parallelFor("raster_tiles", 0, bands, 1,
                [&](std::size_t bb, std::size_t be) {
    for (std::size_t band = bb; band < be; ++band) {
        const int band_y0 = static_cast<int>(band) * kBandRows;
        const int band_y1 = std::min(h - 1, band_y0 + kBandRows - 1);
        std::size_t frags = 0;
        for (const std::size_t ti : bins[band]) {
            const SetupTriangle &s = tris[ti];
            const ShadedVertex &a = *s.a;
            const ShadedVertex &b = *s.b;
            const ShadedVertex &c = *s.c;
            const double ax = s.ax, ay = s.ay, bx = s.bx, by = s.by,
                         cx = s.cx, cy = s.cy;
            const double inv_area = s.inv_area;
        for (int py = std::max(s.y0, band_y0);
             py <= std::min(s.y1, band_y1); ++py) {
            for (int px = s.x0; px <= s.x1; ++px) {
                const double sx = px + 0.5;
                const double sy = py + 0.5;
                double w0 = edgeFunction(bx, by, cx, cy, sx, sy);
                double w1 = edgeFunction(cx, cy, ax, ay, sx, sy);
                double w2 = edgeFunction(ax, ay, bx, by, sx, sy);
                if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0)
                    continue; // Outside (all-positive inside).
                w0 *= inv_area;
                w1 *= inv_area;
                w2 *= inv_area;

                const double z =
                    w0 * a.ndc.z + w1 * b.ndc.z + w2 * c.ndc.z;
                if (z < -1.0 || z > 1.0)
                    continue;
                if (z >= depth_.at(px, py))
                    continue;

                // Perspective-correct interpolation weights.
                const double iw =
                    w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
                const double pa = w0 * a.inv_w / iw;
                const double pb = w1 * b.inv_w / iw;
                const double pc = w2 * c.inv_w / iw;

                Vec3 rgb;
                if (s.shading == ShadingModel::Gouraud) {
                    rgb = a.color * pa + b.color * pb + c.color * pc;
                } else {
                    const Vec3 base =
                        a.color * pa + b.color * pb + c.color * pc;
                    const Vec3 n = (a.normal * pa + b.normal * pb +
                                    c.normal * pc)
                                       .normalized();
                    const Vec3 world = a.world * pa + b.world * pb +
                                       c.world * pc;
                    const double diffuse =
                        std::max(0.0, n.dot(light_dir)) *
                        light.intensity;
                    const Vec3 view_dir = (eye - world).normalized();
                    const Vec3 half_vec =
                        (view_dir + light_dir).normalized();
                    const double spec =
                        0.6 * std::pow(std::max(0.0, n.dot(half_vec)),
                                       24.0);
                    rgb = base * (light.ambient + diffuse) +
                          Vec3(spec, spec, spec);
                }
                depth_.at(px, py) = static_cast<float>(z);
                color_.setPixel(
                    px, py,
                    Vec3(std::clamp(rgb.x, 0.0, 1.0),
                         std::clamp(rgb.y, 0.0, 1.0),
                         std::clamp(rgb.z, 0.0, 1.0)));
                ++frags;
            }
        }
        }
        band_frags[band] = frags;
    }
                });
    for (std::size_t band = 0; band < bands; ++band)
        stats_.fragments_shaded += band_frags[band];
}

} // namespace illixr
