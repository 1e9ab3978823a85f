#include "visual/timewarp.hpp"

#include "foundation/simd.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace illixr {

namespace {

/** Sentinel marking an off-frame / behind-camera mesh node. */
constexpr double kInvalidUv = -1e9;

/**
 * ImageF::sampleBilinear at four points, with the same operations in
 * the same order per lane (the clamp keeps std::clamp's operand order,
 * so even the sign of a zero matches).
 */
simd::VecD4
sampleBilinear4(const ImageF &img, simd::VecD4 x, simd::VecD4 y)
{
    using simd::VecD4;
    const VecD4 zero = VecD4::zero();
    const VecD4 one = VecD4::broadcast(1.0);
    const VecD4 x_max = VecD4::broadcast(img.width() - 1);
    const VecD4 y_max = VecD4::broadcast(img.height() - 1);
    const VecD4 stride = VecD4::broadcast(img.width());
    x = simd::vmin(x_max, simd::vmax(zero, x));
    y = simd::vmin(y_max, simd::vmax(zero, y));
    const VecD4 x0 = simd::truncInt(x);
    const VecD4 y0 = simd::truncInt(y);
    const VecD4 x1 = simd::vmin(x0 + one, x_max);
    const VecD4 y1 = simd::vmin(y0 + one, y_max);
    const VecD4 fx = x - x0;
    const VecD4 fy = y - y0;
    const VecD4 row0 = y0 * stride;
    const VecD4 row1 = y1 * stride;
    VecD4 p00, p01, p10, p11;
    simd::gatherWiden2(img.data(), row0 + x0, row0 + x1, p00, p01);
    simd::gatherWiden2(img.data(), row1 + x0, row1 + x1, p10, p11);
    const VecD4 top = p00 * (one - fx) + p01 * fx;
    const VecD4 bot = p10 * (one - fx) + p11 * fx;
    return top * (one - fy) + bot * fy;
}

} // namespace

Vec2
distortRadial(const Vec2 &ndc, double k1, double k2, double scale)
{
    const double r2 = ndc.squaredNorm();
    const double factor = (1.0 + k1 * r2 + k2 * r2 * r2) * scale;
    return ndc * factor;
}

Timewarp::Timewarp(const TimewarpParams &params) : params_(params)
{
}

void
Timewarp::buildMesh(const Mat3 &delta_rotation, int width, int height)
{
    const int cols = params_.mesh_cols + 1;
    const int rows = params_.mesh_rows + 1;
    const double tan_half = std::tan(params_.fov_y_rad / 2.0);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);

    for (int c = 0; c < 3; ++c)
        meshUv_[c].assign(static_cast<std::size_t>(cols) * rows,
                          Vec2(kInvalidUv, kInvalidUv));

    const int channels = params_.chromatic_correction ? 3 : 1;
    for (int ch = 0; ch < channels; ++ch) {
        const double scale =
            params_.chromatic_correction ? params_.chroma_scale[ch] : 1.0;
        for (int r = 0; r < rows; ++r) {
            for (int col = 0; col < cols; ++col) {
                // Node position in output NDC.
                const double nx =
                    2.0 * static_cast<double>(col) / params_.mesh_cols -
                    1.0;
                const double ny =
                    1.0 -
                    2.0 * static_cast<double>(r) / params_.mesh_rows;
                Vec2 d(nx, ny);
                if (params_.lens_distortion)
                    d = distortRadial(d, params_.k1, params_.k2, scale);
                else if (params_.chromatic_correction)
                    d = d * scale;

                // View ray in the fresh eye frame (looking down -Z).
                const Vec3 ray_fresh(d.x * tan_half * aspect,
                                     d.y * tan_half, -1.0);
                // Rotate into the render eye frame.
                const Vec3 ray_render = delta_rotation * ray_fresh;
                if (ray_render.z > -1e-6)
                    continue; // Behind the render camera.
                const double sx =
                    ray_render.x / (-ray_render.z) / (tan_half * aspect);
                const double sy =
                    ray_render.y / (-ray_render.z) / tan_half;
                // Source pixel coordinates.
                const double u = (sx + 1.0) / 2.0 * width - 0.5;
                const double v = (1.0 - sy) / 2.0 * height - 0.5;
                meshUv_[ch][static_cast<std::size_t>(r) * cols + col] =
                    Vec2(u, v);
            }
        }
    }
    if (!params_.chromatic_correction) {
        meshUv_[1] = meshUv_[0];
        meshUv_[2] = meshUv_[0];
    }

    cellValid_.assign(
        static_cast<std::size_t>(params_.mesh_rows) * params_.mesh_cols,
        1);
    for (int ch = 0; ch < 3; ++ch) {
        for (int r = 0; r < params_.mesh_rows; ++r) {
            for (int col = 0; col < params_.mesh_cols; ++col) {
                const Vec2 *node =
                    &meshUv_[ch][static_cast<std::size_t>(r) * cols + col];
                if (node[0].x <= kInvalidUv / 2 ||
                    node[1].x <= kInvalidUv / 2 ||
                    node[cols].x <= kInvalidUv / 2 ||
                    node[cols + 1].x <= kInvalidUv / 2)
                    cellValid_[static_cast<std::size_t>(r) *
                                   params_.mesh_cols +
                               col] = 0;
            }
        }
    }
}

RgbImage
Timewarp::reproject(const RgbImage &rendered, const Pose &render_pose,
                    const Pose &fresh_pose)
{
    const int w = rendered.width();
    const int h = rendered.height();
    RgbImage out;

    // --- FBO setup: allocate/clear the output target. ---
    {
        ScopedTask timer(profile_, "fbo");
        out = RgbImage(w, h, Vec3(0, 0, 0));
    }

    // --- State update: recompute the warp mesh for this pose pair
    //     (the GPU implementation's uniform/mesh upload). ---
    {
        ScopedTask timer(profile_, "state_update");
        // delta = R_render^T * R_fresh maps fresh-eye rays to
        // render-eye rays (rotational component only).
        const Mat3 delta = render_pose.orientation.toMatrix().transpose() *
                           fresh_pose.orientation.toMatrix();
        buildMesh(delta, w, h);
    }

    // --- Reprojection: per-pixel interpolation and sampling. ---
    {
        ScopedTask timer(profile_, "reprojection");
        const int cols = params_.mesh_cols + 1;
        const int rows = params_.mesh_rows + 1;
        const double cell_w =
            static_cast<double>(w) / params_.mesh_cols;
        const double cell_h =
            static_cast<double>(h) / params_.mesh_rows;
        const int wpad = (w + 3) & ~3;

        // Each pixel column's mesh cell and weight.
        colCell_.resize(static_cast<std::size_t>(w));
        colFx_.resize(static_cast<std::size_t>(w));
        for (int x = 0; x < w; ++x) {
            const double gx = (x + 0.5) / cell_w;
            const int c0 =
                std::min(static_cast<int>(gx), params_.mesh_cols - 1);
            colCell_[x] = c0;
            colFx_[x] = gx - c0;
        }

        // A pixel's UV lerps across its cell's top edge, then its
        // bottom edge, then between the two. The edge lerps depend
        // only on the mesh row and the pixel column, so they are
        // computed once per mesh row here, in the same operations.
        for (int ch = 0; ch < 3; ++ch) {
            rowU_[ch].assign(static_cast<std::size_t>(rows) * wpad, 0.0);
            rowV_[ch].assign(static_cast<std::size_t>(rows) * wpad, 0.0);
            for (int r = 0; r < rows; ++r) {
                const Vec2 *node =
                    &meshUv_[ch][static_cast<std::size_t>(r) * cols];
                double *u = &rowU_[ch][static_cast<std::size_t>(r) * wpad];
                double *v = &rowV_[ch][static_cast<std::size_t>(r) * wpad];
                for (int x = 0; x < w; ++x) {
                    const double fx = colFx_[x];
                    const Vec2 uv = node[colCell_[x]] * (1.0 - fx) +
                                    node[colCell_[x] + 1] * fx;
                    u[x] = uv.x;
                    v[x] = uv.y;
                }
            }
        }

        // All-ones lanes where the pixel's cell is valid; the padding
        // columns are never valid.
        const double on = std::bit_cast<double>(~std::uint64_t(0));
        pixValid_.assign(
            static_cast<std::size_t>(params_.mesh_rows) * wpad, 0.0);
        for (int r = 0; r < params_.mesh_rows; ++r) {
            for (int x = 0; x < w; ++x) {
                if (cellValid_[static_cast<std::size_t>(r) *
                                   params_.mesh_cols +
                               colCell_[x]])
                    pixValid_[static_cast<std::size_t>(r) * wpad + x] = on;
            }
        }

        const ImageF *planes[3] = {&rendered.r, &rendered.g, &rendered.b};
        ImageF *targets[3] = {&out.r, &out.g, &out.b};

        // Scanline blocks: output rows are independent (reads only
        // touch the tables above and the rendered frame).
        parallelFor("timewarp", 0, static_cast<std::size_t>(h), 8,
                    [&](std::size_t yb, std::size_t ye) {
            using simd::VecD4;
            const VecD4 lo = VecD4::broadcast(-0.5);
            const VecD4 u_hi = VecD4::broadcast(w - 0.5);
            const VecD4 v_hi = VecD4::broadcast(h - 0.5);
            for (int y = static_cast<int>(yb); y < static_cast<int>(ye);
                 ++y) {
                const double gy = (y + 0.5) / cell_h;
                const int r0 =
                    std::min(static_cast<int>(gy), params_.mesh_rows - 1);
                const double fy = gy - r0;
                const VecD4 wy = VecD4::broadcast(fy);
                const VecD4 wy0 = VecD4::broadcast(1.0 - fy);
                const std::size_t top = static_cast<std::size_t>(r0) * wpad;
                const std::size_t bot = top + wpad;
                const double *valid = pixValid_.data() + top;
                const double *u_top[3], *u_bot[3], *v_top[3], *v_bot[3];
                for (int ch = 0; ch < 3; ++ch) {
                    u_top[ch] = rowU_[ch].data() + top;
                    u_bot[ch] = rowU_[ch].data() + bot;
                    v_top[ch] = rowV_[ch].data() + top;
                    v_bot[ch] = rowV_[ch].data() + bot;
                }
                for (int x = 0; x < w; x += 4) {
                    // A pixel is drawn only if its cell is valid and
                    // every channel's UV lies inside the frame.
                    VecD4 ok = VecD4::load(valid + x);
                    if (simd::maskBits(ok) == 0)
                        continue;
                    VecD4 u[3], v[3];
                    for (int ch = 0; ch < 3; ++ch) {
                        u[ch] = VecD4::load(u_top[ch] + x) * wy0 +
                                VecD4::load(u_bot[ch] + x) * wy;
                        v[ch] = VecD4::load(v_top[ch] + x) * wy0 +
                                VecD4::load(v_bot[ch] + x) * wy;
                        const VecD4 out_of_frame = simd::bitOr(
                            simd::bitOr(simd::cmpLT(u[ch], lo),
                                        simd::cmpLT(v[ch], lo)),
                            simd::bitOr(simd::cmpGT(u[ch], u_hi),
                                        simd::cmpGT(v[ch], v_hi)));
                        ok = simd::andNot(out_of_frame, ok);
                    }
                    if (simd::maskBits(ok) == 0)
                        continue;
                    for (int ch = 0; ch < 3; ++ch) {
                        const VecD4 px = simd::bitAnd(
                            ok, sampleBilinear4(*planes[ch], u[ch], v[ch]));
                        float *dst = &targets[ch]->at(0, y) + x;
                        if (x + 4 <= w) {
                            simd::narrowStore4(px, dst);
                        } else {
                            float tail[4];
                            simd::narrowStore4(px, tail);
                            std::copy(tail, tail + (w - x), dst);
                        }
                    }
                }
            }
        });
    }
    return out;
}

RgbImage
Timewarp::reprojectPositional(const RgbImage &rendered,
                              const ImageF &depth_ndc,
                              const Pose &render_pose,
                              const Pose &fresh_pose, double near_z,
                              double far_z)
{
    const int w = rendered.width();
    const int h = rendered.height();
    RgbImage out(w, h, Vec3(0, 0, 0));
    ScopedTask timer(profile_, "reprojection");

    const double tan_half = std::tan(params_.fov_y_rad / 2.0);
    const double aspect = static_cast<double>(w) / h;
    const Pose render_inv = render_pose.inverse();

    auto view_depth = [&](double z_ndc) {
        // Invert the perspective depth mapping; returns +depth along
        // the viewing direction.
        return 2.0 * far_z * near_z /
               (z_ndc * (near_z - far_z) + far_z + near_z);
    };
    auto unproject_render = [&](const Vec2 &uv) {
        const float zn = depth_ndc.sampleBilinear(uv.x, uv.y);
        const double d = view_depth(std::min(1.0, (double)zn));
        const double nx = (uv.x + 0.5) / w * 2.0 - 1.0;
        const double ny = 1.0 - (uv.y + 0.5) / h * 2.0;
        const Vec3 p_eye(nx * tan_half * aspect * d, ny * tan_half * d,
                         -d);
        return render_pose.transform(p_eye);
    };
    auto project_fresh = [&](const Vec3 &world) {
        const Vec3 p = fresh_pose.inverse().transform(world);
        if (p.z > -1e-6)
            return Vec2(-1e9, -1e9);
        const double nx = p.x / (-p.z) / (tan_half * aspect);
        const double ny = p.y / (-p.z) / tan_half;
        return Vec2((nx + 1.0) / 2.0 * w - 0.5,
                    (1.0 - ny) / 2.0 * h - 0.5);
    };
    (void)render_inv;

    parallelFor("timewarp_pos", 0, static_cast<std::size_t>(h), 8,
                [&](std::size_t yb, std::size_t ye) {
    for (int y = static_cast<int>(yb); y < static_cast<int>(ye); ++y) {
        for (int x = 0; x < w; ++x) {
            // Fixed-point inverse warp, seeded at the output pixel.
            Vec2 uv(static_cast<double>(x), static_cast<double>(y));
            bool ok = false;
            for (int iter = 0; iter < 3; ++iter) {
                if (uv.x < 0 || uv.y < 0 || uv.x > w - 1 ||
                    uv.y > h - 1)
                    break;
                const Vec3 world = unproject_render(uv);
                const Vec2 reproj = project_fresh(world);
                if (reproj.x < -1e8)
                    break;
                const Vec2 err = Vec2(x, y) - reproj;
                uv += err;
                if (err.squaredNorm() < 0.05) {
                    ok = true;
                    break;
                }
            }
            if (ok && uv.x >= 0 && uv.y >= 0 && uv.x <= w - 1 &&
                uv.y <= h - 1) {
                out.setPixel(x, y, rendered.sampleBilinear(uv.x, uv.y));
            }
        }
    }
                });
    return out;
}

} // namespace illixr
