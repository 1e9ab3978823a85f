#include "render/app.hpp"

#include <algorithm>
#include <cmath>

namespace illixr {

void
XrApplication::setEyeResolution(int pixels)
{
    pixels = std::clamp(pixels, 16, 4096);
    config_.eye_width = pixels;
    config_.eye_height = pixels;
}

Mat4
viewMatrixFromPose(const Pose &eye_pose)
{
    // View = inverse of the eye's rigid transform.
    return eye_pose.inverse().toMatrix();
}

Pose
eyePose(const Pose &head_pose, double ipd_m, bool left)
{
    const double offset = (left ? -0.5 : 0.5) * ipd_m;
    return head_pose *
           Pose(Quat::identity(), Vec3(offset, 0.0, 0.0));
}

XrApplication::XrApplication(AppId app, const AppConfig &config)
    : scene_(app), config_(config)
{
}

void
XrApplication::renderEye(RgbImage &target, const Pose &eye)
{
    Rasterizer raster(config_.eye_width, config_.eye_height);
    raster.clear(scene_.backgroundColor());
    const Mat4 view = viewMatrixFromPose(eye);
    const Mat4 proj = Mat4::perspective(
        config_.fov_y_rad,
        static_cast<double>(config_.eye_width) / config_.eye_height,
        config_.near_z, config_.far_z);
    std::vector<DrawCall> calls(scene_.objects().size());
    for (std::size_t i = 0; i < calls.size(); ++i)
        calls[i] = {&scene_.objects()[i].mesh, scene_.objectTransform(i),
                    scene_.objects()[i].shading};
    raster.draw(calls, view, proj, DirectionalLight{});
    stats_.triangles_submitted += raster.stats().triangles_submitted;
    stats_.triangles_rasterized += raster.stats().triangles_rasterized;
    stats_.fragments_shaded += raster.stats().fragments_shaded;
    stats_.draw_calls += raster.stats().draw_calls;
    target = raster.color();
}

StereoFrame
XrApplication::renderFrame(const Pose &head_pose, double t_seconds)
{
    StereoFrame frame;
    frame.render_pose = head_pose;
    frame.render_time = fromSeconds(t_seconds);
    frame.app_time_s = t_seconds;

    // --- Scene simulation / "physics". ---
    {
        ScopedTask timer(profile_, "simulation");
        scene_.update(t_seconds);
        // Iterative collision-style workload: pairwise object
        // distance relaxations (cost scales with simulationIterations
        // and object count, dominating in Platformer).
        const auto &objs = scene_.objects();
        for (int iter = 0; iter < scene_.simulationIterations(); ++iter) {
            double acc = 0.0;
            for (std::size_t i = 0; i < objs.size(); ++i) {
                const Mat4 ti = scene_.objectTransform(i);
                const Vec3 pi(ti(0, 3), ti(1, 3), ti(2, 3));
                for (std::size_t j = i + 1; j < objs.size(); ++j) {
                    const Mat4 tj = scene_.objectTransform(j);
                    const Vec3 pj(tj(0, 3), tj(1, 3), tj(2, 3));
                    acc += 1.0 / (1.0 + (pi - pj).squaredNorm());
                }
            }
            physicsState_ += acc * 1e-9;
        }
    }

    // --- Rendering (both eyes). ---
    {
        ScopedTask timer(profile_, "rendering");
        renderEye(frame.left, eyePose(head_pose, config_.ipd_m, true));
        renderEye(frame.right, eyePose(head_pose, config_.ipd_m, false));
    }
    return frame;
}

} // namespace illixr
