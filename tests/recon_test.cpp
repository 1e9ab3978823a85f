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
