#include "recon/tsdf.hpp"

#include "foundation/simd.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <cmath>

namespace illixr {

TsdfVolume::TsdfVolume(const TsdfParams &params)
    : params_(params),
      voxelSize_(params.side_meters / params.resolution),
      sdf_(static_cast<std::size_t>(params.resolution) *
               params.resolution * params.resolution,
           1.0f),
      weight_(sdf_.size(), 0.0f)
{
}

void
TsdfVolume::integrate(const DepthImage &depth, const CameraIntrinsics &intr,
                      const Pose &camera_to_world)
{
    const Pose world_to_camera = camera_to_world.inverse();
    const int res = params_.resolution;
    const float trunc = static_cast<float>(params_.truncation);

    // Vectorized projection (DESIGN.md "SIMD & data layout"): the
    // camera-space point of voxel (x, y, z) is base(y, z) + colx * wx,
    // with the rotation columns converted to float once and base
    // recomputed per (y, z) from indices only — a pure function of the
    // voxel coordinate, so results are identical at every kernel
    // width (pinned contract: float instead of the old double math,
    // identical across backends but not vs the pre-SIMD kernel;
    // recon_test bounds are tolerance-based). Projection, the
    // front-of-camera test, and the image-bounds test run 8 voxels at
    // a time; surviving lanes take the scalar depth-lookup + fusion
    // path, which is untouched.
    const Vec3 colx_d = world_to_camera.orientation.rotate(Vec3(1, 0, 0));
    const Vec3 coly_d = world_to_camera.orientation.rotate(Vec3(0, 1, 0));
    const Vec3 colz_d = world_to_camera.orientation.rotate(Vec3(0, 0, 1));
    const float cxx = static_cast<float>(colx_d.x);
    const float cxy = static_cast<float>(colx_d.y);
    const float cxz = static_cast<float>(colx_d.z);
    const float vs = static_cast<float>(voxelSize_);
    const float fx = static_cast<float>(intr.fx);
    const float fy = static_cast<float>(intr.fy);
    const float cx = static_cast<float>(intr.cx);
    const float cy = static_cast<float>(intr.cy);
    const float img_w = static_cast<float>(intr.width);
    const float img_h = static_cast<float>(intr.height);

    // Per-x world coordinate, pure function of x (shared, read-only).
    std::vector<float> wxs(static_cast<std::size_t>(res));
    for (int x = 0; x < res; ++x)
        wxs[x] = static_cast<float>(params_.origin.x) +
                 (static_cast<float>(x) + 0.5f) * vs;

    parallelFor("tsdf_integrate", 0, static_cast<std::size_t>(res), 2,
                [&](std::size_t zb, std::size_t ze) {
    using simd::VecF8;
    const VecF8 v_cxx = VecF8::broadcast(cxx);
    const VecF8 v_cxy = VecF8::broadcast(cxy);
    const VecF8 v_cxz = VecF8::broadcast(cxz);
    const VecF8 v_fx = VecF8::broadcast(fx);
    const VecF8 v_fy = VecF8::broadcast(fy);
    const VecF8 v_cx = VecF8::broadcast(cx);
    const VecF8 v_cy = VecF8::broadcast(cy);
    const VecF8 v_near = VecF8::broadcast(0.05f);
    const VecF8 v_one = VecF8::broadcast(1.0f);
    const VecF8 v_wlim = VecF8::broadcast(img_w - 1.0f);
    const VecF8 v_hlim = VecF8::broadcast(img_h - 1.0f);
    alignas(32) float l_px[8], l_py[8], l_camz[8];
    for (int z = static_cast<int>(zb); z < static_cast<int>(ze); ++z) {
        const float wz = static_cast<float>(params_.origin.z) +
                         (static_cast<float>(z) + 0.5f) * vs;
        for (int y = 0; y < res; ++y) {
            const float wy = static_cast<float>(params_.origin.y) +
                             (static_cast<float>(y) + 0.5f) * vs;
            // base(y, z) = coly*wy + colz*wz + t, in float.
            const float bx = static_cast<float>(coly_d.x) * wy +
                             static_cast<float>(colz_d.x) * wz +
                             static_cast<float>(world_to_camera.position.x);
            const float by = static_cast<float>(coly_d.y) * wy +
                             static_cast<float>(colz_d.y) * wz +
                             static_cast<float>(world_to_camera.position.y);
            const float bz = static_cast<float>(coly_d.z) * wy +
                             static_cast<float>(colz_d.z) * wz +
                             static_cast<float>(world_to_camera.position.z);
            const VecF8 v_bx = VecF8::broadcast(bx);
            const VecF8 v_by = VecF8::broadcast(by);
            const VecF8 v_bz = VecF8::broadcast(bz);
            int x = 0;
            for (; x + 8 <= res; x += 8) {
                const VecF8 wx = VecF8::load(wxs.data() + x);
                const VecF8 camx = simd::madd(v_bx, v_cxx, wx);
                const VecF8 camy = simd::madd(v_by, v_cxy, wx);
                const VecF8 camz = simd::madd(v_bz, v_cxz, wx);
                VecF8 mask = simd::cmpGT(camz, v_near);
                if (!simd::maskBits(mask))
                    continue;
                const VecF8 px =
                    simd::madd(v_cx, v_fx, camx / camz);
                const VecF8 py =
                    simd::madd(v_cy, v_fy, camy / camz);
                mask = simd::bitAnd(mask, simd::cmpGE(px, v_one));
                mask = simd::bitAnd(mask, simd::cmpGE(py, v_one));
                mask = simd::bitAnd(mask, simd::cmpLT(px, v_wlim));
                mask = simd::bitAnd(mask, simd::cmpLT(py, v_hlim));
                int bits = simd::maskBits(mask);
                if (!bits)
                    continue;
                px.store(l_px);
                py.store(l_py);
                camz.store(l_camz);
                for (int l = 0; l < 8; ++l) {
                    if (!(bits & (1 << l)))
                        continue;
                    const float measured =
                        depth.at(static_cast<int>(l_px[l]),
                                 static_cast<int>(l_py[l]));
                    if (measured <= 0.0f)
                        continue; // Invalid depth.
                    const float sdf_val = measured - l_camz[l];
                    if (sdf_val < -trunc)
                        continue; // Occluded beyond the band.
                    const float tsdf =
                        std::min(1.0f, sdf_val / trunc);
                    const std::size_t i = index(x + l, y, z);
                    const float w_old = weight_[i];
                    const float w_new = 1.0f;
                    sdf_[i] = (sdf_[i] * w_old + tsdf * w_new) /
                              (w_old + w_new);
                    weight_[i] =
                        std::min(params_.max_weight, w_old + w_new);
                }
            }
            // x tail (res not a multiple of 8): identical math, one
            // voxel at a time.
            for (; x < res; ++x) {
                const float camz_s = bz + cxz * wxs[x];
                if (!(camz_s > 0.05f))
                    continue;
                const float camx_s = bx + cxx * wxs[x];
                const float camy_s = by + cxy * wxs[x];
                const float px_s = cx + fx * (camx_s / camz_s);
                const float py_s = cy + fy * (camy_s / camz_s);
                if (!(px_s >= 1.0f && py_s >= 1.0f &&
                      px_s < img_w - 1.0f && py_s < img_h - 1.0f))
                    continue;
                const float measured = depth.at(
                    static_cast<int>(px_s), static_cast<int>(py_s));
                if (measured <= 0.0f)
                    continue;
                const float sdf_val = measured - camz_s;
                if (sdf_val < -trunc)
                    continue;
                const float tsdf = std::min(1.0f, sdf_val / trunc);
                const std::size_t i = index(x, y, z);
                const float w_old = weight_[i];
                const float w_new = 1.0f;
                sdf_[i] = (sdf_[i] * w_old + tsdf * w_new) /
                          (w_old + w_new);
                weight_[i] =
                    std::min(params_.max_weight, w_old + w_new);
            }
        }
    }
                });
}

float
TsdfVolume::trilinear(int x0, int y0, int z0, double fx, double fy,
                      double fz) const
{
    if (!inGrid(x0, y0, z0) || !inGrid(x0 + 1, y0 + 1, z0 + 1))
        return 1.0f;
    double acc = 0.0;
    for (int dz = 0; dz <= 1; ++dz) {
        for (int dy = 0; dy <= 1; ++dy) {
            for (int dx = 0; dx <= 1; ++dx) {
                const double w = (dx ? fx : 1.0 - fx) *
                                 (dy ? fy : 1.0 - fy) *
                                 (dz ? fz : 1.0 - fz);
                acc += w * sdf_[index(x0 + dx, y0 + dy, z0 + dz)];
            }
        }
    }
    return static_cast<float>(acc);
}

float
TsdfVolume::sdfAt(const Vec3 &world) const
{
    const Vec3 g = gridCoord(world);
    const int x0 = static_cast<int>(std::floor(g.x));
    const int y0 = static_cast<int>(std::floor(g.y));
    const int z0 = static_cast<int>(std::floor(g.z));
    return trilinear(x0, y0, z0, g.x - x0, g.y - y0, g.z - z0);
}

float
TsdfVolume::weightAt(const Vec3 &world) const
{
    const Vec3 g = gridCoord(world);
    const int x0 = static_cast<int>(std::lround(g.x));
    const int y0 = static_cast<int>(std::lround(g.y));
    const int z0 = static_cast<int>(std::lround(g.z));
    if (!inGrid(x0, y0, z0))
        return 0.0f;
    return weight_[index(x0, y0, z0)];
}

Vec3
TsdfVolume::gradientAt(const Vec3 &world) const
{
    const double h = voxelSize_;
    const double gx = sdfAt(world + Vec3(h, 0, 0)) -
                      sdfAt(world - Vec3(h, 0, 0));
    const double gy = sdfAt(world + Vec3(0, h, 0)) -
                      sdfAt(world - Vec3(0, h, 0));
    const double gz = sdfAt(world + Vec3(0, 0, h)) -
                      sdfAt(world - Vec3(0, 0, h));
    return Vec3(gx, gy, gz) / (2.0 * h);
}

void
TsdfVolume::raycast(const CameraIntrinsics &intr,
                    const Pose &camera_to_world, std::vector<Vec3> &vertices,
                    std::vector<Vec3> &normals, int step_divisor) const
{
    const int w = intr.width;
    const int h = intr.height;
    vertices.assign(static_cast<std::size_t>(w) * h, Vec3(0, 0, 0));
    normals.assign(static_cast<std::size_t>(w) * h, Vec3(0, 0, 0));

    const Vec3 origin = camera_to_world.position;
    const double step =
        params_.truncation / std::max(1, step_divisor);
    const double max_range = params_.side_meters * 1.8;

    // Clip box: the grid widened by one voxel. A sample outside it has
    // its nearest voxel outside the grid, reads weight 0 and can only
    // clear prev_valid, which is still false before the entry and
    // unused after the exit (the box is convex). So skipping those
    // samples changes no output.
    const double o[3] = {origin.x, origin.y, origin.z};
    const double lo[3] = {params_.origin.x - voxelSize_,
                          params_.origin.y - voxelSize_,
                          params_.origin.z - voxelSize_};
    const double hi[3] = {
        params_.origin.x + params_.side_meters + voxelSize_,
        params_.origin.y + params_.side_meters + voxelSize_,
        params_.origin.z + params_.side_meters + voxelSize_};

    // Ray rows are independent; each writes its own vertex/normal
    // slots.
    parallelFor("tsdf_raycast", 0, static_cast<std::size_t>(h), 4,
                [&](std::size_t yb, std::size_t ye) {
    // The march evaluates 4 consecutive samples of a ray per VecD4
    // (DESIGN.md "SIMD & data layout"). Each lane performs the scalar
    // sample's IEEE operations in the same order: the point and its
    // grid coordinate (a true division), floor and fraction, the
    // std::lround nearest voxel (halves away from zero) and its weight,
    // and sdfAt's trilinear sum (from 0.0, dz -> dy -> dx, unfused,
    // narrowed to float). The lanes are then scanned in sample order,
    // so vertices and normals are bit-identical to a one-sample march.
    using simd::VecD4;
    const VecD4 zero = VecD4::zero();
    const VecD4 one = VecD4::broadcast(1.0);
    const VecD4 half = VecD4::broadcast(0.5);
    const VecD4 vs = VecD4::broadcast(voxelSize_);
    const VecD4 res = VecD4::broadcast(params_.resolution);
    const VecD4 cell_hi = VecD4::broadcast(params_.resolution - 1);
    const VecD4 gox = VecD4::broadcast(params_.origin.x);
    const VecD4 goy = VecD4::broadcast(params_.origin.y);
    const VecD4 goz = VecD4::broadcast(params_.origin.z);
    const VecD4 ox = VecD4::broadcast(origin.x);
    const VecD4 oy = VecD4::broadcast(origin.y);
    const VecD4 oz = VecD4::broadcast(origin.z);
    // 1.0 where std::lround rounds up from fl = floor(g), f = g - fl:
    // f > 0.5, or f == 0.5 and g > 0 (halves away from zero).
    const auto roundsUp = [&](VecD4 g, VecD4 f) {
        return simd::bitAnd(
            simd::bitOr(simd::cmpGT(f, half),
                        simd::bitAnd(simd::cmpGE(f, half),
                                     simd::cmpGT(g, zero))),
            one);
    };
    // All-ones where 0 <= v < limit.
    const auto inRange = [&](VecD4 v, VecD4 limit) {
        return simd::bitAnd(simd::cmpGE(v, zero), simd::cmpLT(v, limit));
    };
    // Index offset of cell corner k = dz*4 + dy*2 + dx, sdfAt's order.
    const std::size_t sy = static_cast<std::size_t>(params_.resolution);
    const std::size_t corner_offset[8] = {
        0, 1, sy, sy + 1, sy * sy, sy * sy + 1, sy * sy + sy,
        sy * sy + sy + 1};
    alignas(32) double ts[4] = {}, lane_index[4] = {};
    alignas(32) float sv[4] = {};
    for (int y = static_cast<int>(yb); y < static_cast<int>(ye); ++y) {
        for (int x = 0; x < w; ++x) {
            const Vec3 dir = camera_to_world.orientation.rotate(
                intr.unproject(Vec2(x + 0.5, y + 0.5)));
            const double d[3] = {dir.x, dir.y, dir.z};
            double t_in = 0.3;
            double t_out = max_range;
            for (int a = 0; a < 3; ++a) {
                if (d[a] == 0.0) {
                    if (o[a] < lo[a] || o[a] > hi[a])
                        t_out = -1.0; // Parallel to the slab, outside it.
                    continue;
                }
                const double t1 = (lo[a] - o[a]) / d[a];
                const double t2 = (hi[a] - o[a]) / d[a];
                t_in = std::max(t_in, std::min(t1, t2));
                t_out = std::min(t_out, std::max(t1, t2));
            }
            if (t_in > t_out)
                continue;
            // The samples are t = 0.3, 0.3 + step, ... summed one step
            // at a time, so the ones inside the box are the same
            // doubles as in a march from the camera.
            double t = 0.3;
            while (t < t_in)
                t += step;
            const VecD4 dx = VecD4::broadcast(dir.x);
            const VecD4 dy = VecD4::broadcast(dir.y);
            const VecD4 dz = VecD4::broadcast(dir.z);
            float prev_sdf = 1.0f;
            bool prev_valid = false;
            for (bool done = false; !done;) {
                // Lanes past the range or the box pad the last block;
                // they are computed but never scanned.
                int live = 0;
                for (int l = 0; l < 4; ++l, t += step) {
                    ts[l] = t;
                    live += t < max_range && t <= t_out;
                }
                done = live < 4;
                const VecD4 tv = VecD4::load(ts);
                const VecD4 gx = (ox + dx * tv - gox) / vs - half;
                const VecD4 gy = (oy + dy * tv - goy) / vs - half;
                const VecD4 gz = (oz + dz * tv - goz) / vs - half;
                const VecD4 flx = simd::floor(gx);
                const VecD4 fly = simd::floor(gy);
                const VecD4 flz = simd::floor(gz);
                const VecD4 fx = gx - flx, fy = gy - fly, fz = gz - flz;
                const VecD4 nx = flx + roundsUp(gx, fx);
                const VecD4 ny = fly + roundsUp(gy, fy);
                const VecD4 nz = flz + roundsUp(gz, fz);
                const VecD4 grid_mask = simd::bitAnd(
                    simd::bitAnd(inRange(nx, res), inRange(ny, res)),
                    inRange(nz, res));
                const VecD4 nidx = simd::select(
                    grid_mask, simd::madd(nx, simd::madd(ny, nz, res), res),
                    zero);
                // A lane outside the grid reads voxel 0 and is masked.
                nidx.store(lane_index);
                const VecD4 wgt = simd::widen4(
                    weight_[static_cast<std::size_t>(lane_index[0])],
                    weight_[static_cast<std::size_t>(lane_index[1])],
                    weight_[static_cast<std::size_t>(lane_index[2])],
                    weight_[static_cast<std::size_t>(lane_index[3])]);
                const int observed =
                    simd::maskBits(
                        simd::bitAnd(grid_mask, simd::cmpGT(wgt, zero))) &
                    ((1 << live) - 1);
                if (!observed) {
                    prev_valid = false;
                    continue;
                }

                // The trilinear read, for cells wholly inside the grid
                // (every other lane reads +1 and loads from cell 0).
                // Scalar loads: a gather was slower here.
                const VecD4 cell_mask = simd::bitAnd(
                    simd::bitAnd(inRange(flx, cell_hi),
                                 inRange(fly, cell_hi)),
                    inRange(flz, cell_hi));
                const int in_cell = simd::maskBits(cell_mask);
                if (in_cell) {
                    const VecD4 cell = simd::select(
                        cell_mask,
                        simd::madd(flx, simd::madd(fly, flz, res), res),
                        zero);
                    cell.store(lane_index);
                    const float *c[4];
                    for (int l = 0; l < 4; ++l)
                        c[l] = sdf_.data() +
                               static_cast<std::size_t>(lane_index[l]);
                    VecD4 corner[8];
                    for (int k = 0; k < 8; ++k) {
                        const std::size_t o = corner_offset[k];
                        corner[k] = simd::widen4(c[0][o], c[1][o], c[2][o],
                                                 c[3][o]);
                    }
                    const VecD4 wx[2] = {one - fx, fx};
                    const VecD4 wy[2] = {one - fy, fy};
                    const VecD4 wz[2] = {one - fz, fz};
                    VecD4 acc = zero;
                    for (int k = 0; k < 8; ++k)
                        acc = simd::madd(acc,
                                         wx[k & 1] * wy[(k >> 1) & 1] *
                                             wz[k >> 2],
                                         corner[k]);
                    simd::narrowStore4(acc, sv);
                }

                for (int l = 0; l < live; ++l) {
                    if (!((observed >> l) & 1)) {
                        prev_valid = false;
                        continue;
                    }
                    const float s = (in_cell >> l) & 1 ? sv[l] : 1.0f;
                    if (prev_valid && prev_sdf > 0.0f && s <= 0.0f) {
                        // Linear zero-crossing interpolation.
                        const double t_hit =
                            ts[l] - step * s / (s - prev_sdf);
                        const Vec3 hit = origin + dir * t_hit;
                        const std::size_t i =
                            static_cast<std::size_t>(y) * w + x;
                        vertices[i] = hit;
                        const Vec3 n = gradientAt(hit);
                        const double nn = n.norm();
                        if (nn > 1e-9)
                            normals[i] = n / nn;
                        done = true;
                        break;
                    }
                    prev_sdf = s;
                    prev_valid = true;
                }
            }
        }
    }
                });
}

std::size_t
TsdfVolume::observedVoxelCount() const
{
    std::size_t n = 0;
    for (float w : weight_)
        if (w > 0.0f)
            ++n;
    return n;
}

std::vector<Vec3>
TsdfVolume::extractSurfacePoints() const
{
    std::vector<Vec3> points;
    const int res = params_.resolution;
    for (int z = 0; z + 1 < res; ++z) {
        for (int y = 0; y + 1 < res; ++y) {
            for (int x = 0; x + 1 < res; ++x) {
                const std::size_t i = index(x, y, z);
                if (weight_[i] <= 0.0f)
                    continue;
                const float s = sdf_[i];
                const bool crosses =
                    (weight_[index(x + 1, y, z)] > 0.0f &&
                     s * sdf_[index(x + 1, y, z)] < 0.0f) ||
                    (weight_[index(x, y + 1, z)] > 0.0f &&
                     s * sdf_[index(x, y + 1, z)] < 0.0f) ||
                    (weight_[index(x, y, z + 1)] > 0.0f &&
                     s * sdf_[index(x, y, z + 1)] < 0.0f);
                if (crosses) {
                    points.push_back(params_.origin +
                                     Vec3((x + 0.5) * voxelSize_,
                                          (y + 0.5) * voxelSize_,
                                          (z + 0.5) * voxelSize_));
                }
            }
        }
    }
    return points;
}

} // namespace illixr
