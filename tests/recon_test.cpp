/**
 * @file
 * Unit and integration tests for the scene-reconstruction substrate:
 * TSDF volume, point-to-plane ICP, and the full reconstruction
 * pipeline on synthetic depth frames.
 */

#include "recon/icp.hpp"
#include "recon/reconstructor.hpp"
#include "recon/tsdf.hpp"
#include "sensors/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

namespace illixr {
namespace {

/** Rig + dataset used across the reconstruction tests. */
struct ReconFixture
{
    DatasetConfig cfg;
    SyntheticDataset ds;

    ReconFixture()
        : cfg(makeConfig()), ds(cfg)
    {
    }

    static DatasetConfig
    makeConfig()
    {
        DatasetConfig cfg;
        cfg.duration_s = 2.0;
        cfg.camera_rate_hz = 5.0;
        cfg.image_width = 96;
        cfg.image_height = 72;
        cfg.preset = DatasetConfig::Preset::SlowScan;
        cfg.seed = 11;
        return cfg;
    }
};

TEST(TsdfTest, IntegrationCreatesZeroCrossingAtSurface)
{
    // A single synthetic depth frame of a flat wall at z = 2 m.
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(64, 48, 1.2);
    DepthImage depth(64, 48, 2.0f);

    TsdfParams params;
    params.resolution = 64;
    params.side_meters = 4.0;
    params.origin = Vec3(-2.0, -2.0, -0.5);
    TsdfVolume vol(params);
    // Camera at origin looking along +z of its own frame; identity
    // camera_to_world means the wall is at world z = 2.
    vol.integrate(depth, intr, Pose::identity());

    EXPECT_GT(vol.observedVoxelCount(), 100u);
    // SDF is positive in front of the wall, negative behind it.
    EXPECT_GT(vol.sdfAt(Vec3(0.0, 0.0, 1.7)), 0.0f);
    EXPECT_LT(vol.sdfAt(Vec3(0.0, 0.0, 2.2)), 0.0f);
    // Unobserved space reads +1.
    EXPECT_FLOAT_EQ(vol.sdfAt(Vec3(10.0, 10.0, 10.0)), 1.0f);
}

TEST(TsdfTest, RaycastRecoversWallDepth)
{
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(64, 48, 1.2);
    DepthImage depth(64, 48, 2.0f);
    TsdfParams params;
    params.resolution = 64;
    params.side_meters = 4.0;
    params.origin = Vec3(-2.0, -2.0, -0.5);
    TsdfVolume vol(params);
    vol.integrate(depth, intr, Pose::identity());

    std::vector<Vec3> vertices, normals;
    vol.raycast(intr, Pose::identity(), vertices, normals);
    const std::size_t center = (48 / 2) * 64 + 64 / 2;
    ASSERT_GT(vertices[center].norm(), 0.0);
    EXPECT_NEAR(vertices[center].z, 2.0, 0.1);
    // Normal points back toward the camera (-z).
    EXPECT_LT(normals[center].z, -0.8);
}

TEST(TsdfTest, SurfacePointsLieNearWall)
{
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(64, 48, 1.2);
    DepthImage depth(64, 48, 2.0f);
    TsdfParams params;
    params.resolution = 64;
    params.side_meters = 4.0;
    params.origin = Vec3(-2.0, -2.0, -0.5);
    TsdfVolume vol(params);
    vol.integrate(depth, intr, Pose::identity());

    const auto points = vol.extractSurfacePoints();
    ASSERT_GT(points.size(), 20u);
    for (const Vec3 &p : points)
        EXPECT_NEAR(p.z, 2.0, 2.5 * vol.voxelSize());
}

/**
 * Reference raycast: the direct march, where every sample from
 * t = 0.3 to the far range reads both weightAt and sdfAt.
 * TsdfVolume::raycast must reproduce it byte for byte.
 */
void
referenceRaycast(const TsdfVolume &vol, const CameraIntrinsics &intr,
                 const Pose &camera_to_world, std::vector<Vec3> &vertices,
                 std::vector<Vec3> &normals, int step_divisor)
{
    const int w = intr.width;
    const int h = intr.height;
    vertices.assign(static_cast<std::size_t>(w) * h, Vec3(0, 0, 0));
    normals.assign(static_cast<std::size_t>(w) * h, Vec3(0, 0, 0));
    const Vec3 origin = camera_to_world.position;
    const double step =
        vol.params().truncation / std::max(1, step_divisor);
    const double max_range = vol.params().side_meters * 1.8;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const Vec3 dir = camera_to_world.orientation.rotate(
                intr.unproject(Vec2(x + 0.5, y + 0.5)));
            double t = 0.3;
            float prev_sdf = 1.0f;
            bool prev_valid = false;
            while (t < max_range) {
                const Vec3 p = origin + dir * t;
                const float wgt = vol.weightAt(p);
                const float s = vol.sdfAt(p);
                if (wgt > 0.0f) {
                    if (prev_valid && prev_sdf > 0.0f && s <= 0.0f) {
                        const double t_hit =
                            t - step * s / (s - prev_sdf);
                        const Vec3 hit = origin + dir * t_hit;
                        const std::size_t i =
                            static_cast<std::size_t>(y) * w + x;
                        vertices[i] = hit;
                        const Vec3 n = vol.gradientAt(hit);
                        const double nn = n.norm();
                        if (nn > 1e-9)
                            normals[i] = n / nn;
                        break;
                    }
                    prev_sdf = s;
                    prev_valid = true;
                } else {
                    prev_valid = false;
                }
                t += step;
            }
        }
    }
}

bool
sameBytes(const std::vector<Vec3> &a, const std::vector<Vec3> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

TEST(TsdfTest, RaycastMatchesReferenceMarch)
{
    // Odd image sides put the principal point on a pixel center, so
    // with an identity orientation the middle column and row cast
    // rays with an exactly zero x or y component.
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(63, 47, 1.2);
    const double kHalfPi = 1.5707963267948966;
    TsdfParams params;
    params.resolution = 48;
    params.side_meters = 2.4; // 0.05 m voxels, finer than every step.
    params.origin = Vec3(-1.2, -1.2, 0.0);
    TsdfVolume vol(params);

    // Three fronto-parallel depth frames. A's wall (z = 2.3) and C's
    // wall (x = 1.1) lie 0.1 m inside a face of the grid, so rays leave
    // (A) or enter (C) the grid right next to a zero crossing. A's
    // central patch puts a surface at z = 0.03, just inside the z = 0
    // face.
    const Pose pose_a(Quat::identity(), Vec3(0.0, 0.0, -0.5));
    const Pose pose_b(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.35),
                      Vec3(-0.3, 0.2, 0.3));
    const Pose pose_c(Quat::fromAxisAngle(Vec3(0, 1, 0), -kHalfPi),
                      Vec3(2.0, 0.05, 1.2));
    DepthImage depth_a(63, 47, 2.8f);
    for (int y = 19; y <= 27; ++y)
        for (int x = 27; x <= 35; ++x)
            depth_a.at(x, y) = 0.53f;
    vol.integrate(depth_a, intr, pose_a);
    DepthImage depth_b(63, 47, 1.6f);
    for (int y = 0; y < 47; ++y)
        for (int x = 0; x < 31; ++x)
            depth_b.at(x, y) = 1.2f;
    vol.integrate(depth_b, intr, pose_b);
    vol.integrate(DepthImage(63, 47, 0.9f), intr, pose_c);

    struct Case
    {
        const char *name;
        Pose camera_to_world;
        bool expect_hits;
    };
    for (int divisor = 1; divisor <= 3; ++divisor) {
        // A march sample t = 0.3 + step + ... (summed as the raycast
        // sums it) from a camera at z = -t lands exactly on the z = 0
        // face: grid coordinate g.z = -0.5, whose nearest voxel is -1
        // under std::lround but 0 under rounding half up. The central
        // ray (0, 0, 1) then meets the patch surface one step later.
        const double step = params.truncation / divisor;
        double t_face = 0.3;
        while (t_face < 0.5)
            t_face += step;
        const Case cases[] = {
            {"inside", Pose(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.2),
                            Vec3(0.2, -0.1, 0.6)),
             true},
            {"outside looking in", pose_c, true},
            {"outside looking away",
             Pose(Quat::fromAxisAngle(Vec3(0, 1, 0), kHalfPi),
                  Vec3(2.0, 0.05, 1.2)),
             false},
            {"axis-aligned rays",
             Pose(Quat::identity(), Vec3(0.1, 0.05, 0.2)), true},
            {"negative half-boundary",
             Pose(Quat::identity(), Vec3(0.0, 0.0, -t_face)), true},
        };
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(c.name) + ", step_divisor " +
                         std::to_string(divisor));
            std::vector<Vec3> vertices, normals, ref_vertices, ref_normals;
            vol.raycast(intr, c.camera_to_world, vertices, normals,
                        divisor);
            referenceRaycast(vol, intr, c.camera_to_world, ref_vertices,
                             ref_normals, divisor);
            EXPECT_TRUE(sameBytes(vertices, ref_vertices));
            EXPECT_TRUE(sameBytes(normals, ref_normals));
            const auto hits = std::count_if(
                ref_vertices.begin(), ref_vertices.end(),
                [](const Vec3 &v) { return v.norm() > 0.0; });
            if (c.expect_hits)
                EXPECT_GT(hits, 0);
            else
                EXPECT_EQ(hits, 0);
        }
    }
}

TEST(VertexMapTest, BackProjectionMatchesIntrinsics)
{
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(32, 24, 1.2);
    DepthImage depth(32, 24, 3.0f);
    const auto vertices = computeVertexMap(depth, intr);
    // Center pixel back-projects on the optical axis.
    const Vec3 &c = vertices[12 * 32 + 16];
    EXPECT_NEAR(c.x, 0.0, 0.1);
    EXPECT_NEAR(c.z, 3.0, 1e-6);
    // Reprojection consistency for an off-center pixel.
    const Vec3 &v = vertices[5 * 32 + 25];
    const Vec2 px = intr.project(v);
    EXPECT_NEAR(px.x, 25.5, 1e-6);
    EXPECT_NEAR(px.y, 5.5, 1e-6);
}

TEST(NormalMapTest, FlatWallNormalsFaceCamera)
{
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(32, 24, 1.2);
    DepthImage depth(32, 24, 2.0f);
    const auto vertices = computeVertexMap(depth, intr);
    const auto normals = computeNormalMap(vertices, 32, 24);
    const Vec3 &n = normals[12 * 32 + 16];
    ASSERT_GT(n.norm(), 0.5);
    EXPECT_LT(n.z, -0.9);
}

TEST(IcpTest, RecoversSmallPerturbation)
{
    // Render the room's depth from a pose, build model maps from the
    // truth, then start ICP from a perturbed guess.
    const SyntheticWorld world = SyntheticWorld::labRoom();
    const CameraRig rig =
        CameraRig::standard(CameraIntrinsics::fromFov(96, 72, 1.3));
    const Pose body(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.3),
                    Vec3(0.2, 1.6, 0.4));
    const Pose cam_to_world = rig.worldToCamera(body).inverse();

    const DepthImage depth =
        world.renderDepth(rig.intrinsics, cam_to_world.inverse(), 0.0);
    const auto cur_vertices = computeVertexMap(depth, rig.intrinsics);
    const auto cur_normals = computeNormalMap(cur_vertices, 96, 72);

    // Model maps: perfect world-frame geometry via raycast from truth.
    std::vector<Vec3> model_vertices(96 * 72, Vec3(0, 0, 0));
    std::vector<Vec3> model_normals(96 * 72, Vec3(0, 0, 0));
    for (int y = 0; y < 72; ++y) {
        for (int x = 0; x < 96; ++x) {
            const Vec3 ray = cam_to_world.orientation.rotate(
                rig.intrinsics.unproject(Vec2(x + 0.5, y + 0.5)));
            const auto hit = world.castRay(cam_to_world.position, ray);
            if (!hit)
                continue;
            model_vertices[y * 96 + x] = hit->point;
            model_normals[y * 96 + x] = hit->normal;
        }
    }

    // Perturbed initial guess.
    const Pose perturb(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.03),
                       Vec3(0.05, -0.04, 0.06));
    const Pose guess = perturb * cam_to_world;

    const IcpResult res =
        icpPointToPlane(cur_vertices, cur_normals, model_vertices,
                        model_normals, rig.intrinsics, guess);
    ASSERT_TRUE(res.converged);
    EXPECT_GT(res.correspondences, 500u);
    EXPECT_LT(res.camera_to_world.translationErrorTo(cam_to_world), 0.035)
        << "ICP translation error too large";
    EXPECT_LT(res.camera_to_world.rotationErrorTo(cam_to_world), 0.02);
}

TEST(ReconstructorIntegrationTest, TracksSlowScan)
{
    ReconFixture fx;
    ReconParams params;
    params.tsdf.resolution = 64;
    params.tsdf.side_meters = 12.0;
    params.tsdf.origin = Vec3(-6.0, -2.0, -6.0);
    SceneReconstructor recon(params, fx.ds.rig().intrinsics);

    double max_err = 0.0;
    std::size_t prev_voxels = 0;
    for (std::size_t i = 0; i < fx.ds.cameraFrameCount(); ++i) {
        const DepthFrame frame = fx.ds.depthFrame(i, 0.01);
        const CameraFrame gray = fx.ds.cameraFrame(i);
        const Pose truth_c2w =
            fx.ds.rig()
                .worldToCamera(fx.ds.groundTruthPose(frame.time))
                .inverse();
        ReconFrameResult res;
        if (i == 0) {
            res = recon.processFrame(frame.depth, &truth_c2w,
                                     &gray.image);
        } else {
            res = recon.processFrame(frame.depth, nullptr, &gray.image);
        }
        ASSERT_TRUE(res.tracking_ok) << "lost tracking at frame " << i;
        max_err = std::max(
            max_err, res.camera_to_world.translationErrorTo(truth_c2w));
        // The map only ever grows (paper: execution time increases
        // with map size).
        EXPECT_GE(res.observed_voxels, prev_voxels);
        prev_voxels = res.observed_voxels;
    }
    EXPECT_LT(max_err, 0.10) << "reconstruction pose drift too large";

    // All Table VI task buckets exercised.
    for (const char *task :
         {"camera_processing", "image_processing", "pose_estimation",
          "surfel_prediction", "map_fusion"}) {
        EXPECT_GT(recon.profile().taskSeconds(task), 0.0) << task;
    }
}

TEST(ReconstructorIntegrationTest, PhotometricTermFixesFlatSceneDrift)
{
    // Seed 1's slow scan stares at flat geometry where depth-only
    // ICP cannot observe in-plane translation; the ElasticFusion-
    // style photometric term restores observability.
    DatasetConfig cfg;
    cfg.duration_s = 2.0;
    cfg.camera_rate_hz = 5.0;
    cfg.image_width = 96;
    cfg.image_height = 72;
    cfg.preset = DatasetConfig::Preset::SlowScan;
    cfg.seed = 1;
    const SyntheticDataset ds(cfg);

    auto run = [&](bool photometric) {
        ReconParams params;
        params.tsdf.resolution = 64;
        params.tsdf.side_meters = 12.0;
        params.tsdf.origin = Vec3(-6.0, -2.0, -6.0);
        SceneReconstructor recon(params, ds.rig().intrinsics);
        double max_err = 0.0;
        for (std::size_t i = 0; i < ds.cameraFrameCount(); ++i) {
            const DepthFrame frame = ds.depthFrame(i, 0.01);
            const CameraFrame gray = ds.cameraFrame(i);
            const Pose truth =
                ds.rig()
                    .worldToCamera(ds.groundTruthPose(frame.time))
                    .inverse();
            const ReconFrameResult res = recon.processFrame(
                frame.depth, i == 0 ? &truth : nullptr,
                photometric ? &gray.image : nullptr);
            max_err = std::max(
                max_err,
                res.camera_to_world.translationErrorTo(truth));
        }
        return max_err;
    };

    const double geo_only = run(false);
    const double with_photo = run(true);
    EXPECT_GT(geo_only, 0.15) << "scene unexpectedly well-conditioned";
    EXPECT_LT(with_photo, 0.08);
}

} // namespace
} // namespace illixr
