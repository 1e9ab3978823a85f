/**
 * @file
 * Tests for the extended QoE metrics (audio quality, temporal video
 * quality), the integrator alternatives, and TSDF mesh extraction.
 */

#include "audio/audio_pipeline.hpp"
#include "audio/clips.hpp"
#include "foundation/rng.hpp"
#include "metrics/audio_quality.hpp"
#include "metrics/video_quality.hpp"
#include "recon/mesh_extract.hpp"
#include "sensors/imu.hpp"
#include "slam/integrator_alternatives.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

namespace illixr {
namespace {

/** Render a short binaural sequence of a source at @p dir. */
void
renderBinaural(const Vec3 &dir, int blocks, std::vector<double> &left,
               std::vector<double> &right)
{
    const std::size_t block = 1024;
    AudioEncoder enc(block);
    AudioSource src;
    src.pcm = std::make_shared<const std::vector<std::int16_t>>(
        toPcm16(synthesizeClip(ClipKind::SpeechLike, 48000, 48000.0, 5)));
    src.direction = dir;
    enc.addSource(std::move(src));
    AudioPlayback play(block);
    left.clear();
    right.clear();
    for (int b = 0; b < blocks; ++b) {
        const Soundfield field = enc.encodeBlock(b);
        const StereoBlock out =
            play.processBlock(field, Quat::identity());
        left.insert(left.end(), out.left.begin(), out.left.end());
        right.insert(right.end(), out.right.begin(), out.right.end());
    }
}

TEST(AudioQualityTest, IdenticalRendersScoreNearOne)
{
    std::vector<double> l, r;
    renderBinaural(Vec3(1, 0.2, 0).normalized(), 6, l, r);
    const AudioQualityResult q = compareBinaural(l, r, l, r);
    EXPECT_GT(q.blocks, 5u);
    EXPECT_GT(q.listening_quality, 0.97);
    EXPECT_GT(q.localization_accuracy, 0.97);
    EXPECT_GT(q.overall, 0.97);
}

TEST(AudioQualityTest, NoiseDegradesListeningQuality)
{
    std::vector<double> l, r;
    renderBinaural(Vec3(1, 0, 0), 6, l, r);
    std::vector<double> nl = l, nr = r;
    Rng rng(3);
    for (std::size_t i = 0; i < nl.size(); ++i) {
        nl[i] += rng.gaussian(0.0, 0.1);
        nr[i] += rng.gaussian(0.0, 0.1);
    }
    const AudioQualityResult clean = compareBinaural(l, r, l, r);
    const AudioQualityResult noisy = compareBinaural(nl, nr, l, r);
    EXPECT_LT(noisy.listening_quality, clean.listening_quality - 0.05);
}

TEST(AudioQualityTest, WrongSourceDirectionDegradesLocalization)
{
    std::vector<double> ref_l, ref_r, test_l, test_r;
    renderBinaural(Vec3(0, 1, 0), 6, ref_l, ref_r);  // Hard left.
    renderBinaural(Vec3(0, -1, 0), 6, test_l, test_r); // Hard right.
    const AudioQualityResult q =
        compareBinaural(test_l, test_r, ref_l, ref_r);
    EXPECT_LT(q.localization_accuracy, 0.7)
        << "mislocalized source should be penalized";
}

TEST(AudioQualityTest, MismatchedLengthsReturnZero)
{
    std::vector<double> a(2048, 0.1), b(1024, 0.1);
    const AudioQualityResult q = compareBinaural(a, a, b, b);
    EXPECT_EQ(q.blocks, 0u);
    EXPECT_EQ(q.overall, 0.0);
}

/** A moving-dot frame sequence, optionally with frame repeats. */
std::vector<ImageF>
makeSequence(int frames, int repeat_every)
{
    std::vector<ImageF> out;
    int shown = 0;
    for (int f = 0; f < frames; ++f) {
        if (repeat_every > 0 && f % repeat_every == repeat_every - 1 &&
            !out.empty()) {
            out.push_back(out.back()); // Missed update.
            continue;
        }
        ImageF img(48, 48, 0.1f);
        const int cx = 8 + shown; // Monotone: no wrap-around jump.
        for (int y = -3; y <= 3; ++y)
            for (int x = -3; x <= 3; ++x)
                img.at(cx + x, 24 + y) = 0.9f;
        out.push_back(img);
        ++shown;
    }
    return out;
}

TEST(TemporalQualityTest, SmoothMotionScoresHigh)
{
    const auto frames = makeSequence(16, 0);
    const TemporalQualityResult r = analyzeTemporalQuality(frames);
    EXPECT_EQ(r.frames, 16u);
    EXPECT_GT(r.mean_change, 0.0);
    EXPECT_NEAR(r.repeat_fraction, 0.0, 1e-9);
    EXPECT_GT(r.smoothness, 0.9);
}

TEST(TemporalQualityTest, FrameRepeatsAreJudder)
{
    const auto smooth = makeSequence(30, 0);
    const auto juddery = makeSequence(30, 3); // Every 3rd frame repeats.
    const TemporalQualityResult rs = analyzeTemporalQuality(smooth);
    const TemporalQualityResult rj = analyzeTemporalQuality(juddery);
    EXPECT_GT(rj.repeat_fraction, 0.2);
    EXPECT_GT(rj.change_jitter, rs.change_jitter);
    EXPECT_LT(rj.smoothness, rs.smoothness - 0.2);
}

TEST(TemporalQualityTest, TooFewFramesReturnsZero)
{
    const auto frames = makeSequence(2, 0);
    EXPECT_EQ(analyzeTemporalQuality(frames).frames, 0u);
}

TEST(IntegratorAlternativesTest, FactoryCreatesBothMethods)
{
    EXPECT_STREQ(makePoseIntegrator("rk4")->method(), "rk4");
    EXPECT_STREQ(makePoseIntegrator("midpoint")->method(), "midpoint");
    EXPECT_THROW(makePoseIntegrator("euler"), std::out_of_range);
}

TEST(IntegratorAlternativesTest, BothTrackNoiseFreeImu)
{
    const Trajectory traj = Trajectory::labWalk(31);
    ImuNoiseModel noiseless;
    noiseless.gyro_noise_density = 0.0;
    noiseless.accel_noise_density = 0.0;
    noiseless.gyro_bias_walk = 0.0;
    noiseless.accel_bias_walk = 0.0;
    noiseless.initial_gyro_bias = Vec3(0, 0, 0);
    noiseless.initial_accel_bias = Vec3(0, 0, 0);
    ImuSensor sensor(traj, noiseless, 500.0);
    const auto samples = sensor.generate(2.0);

    ImuState init;
    init.orientation = traj.pose(0.0).orientation;
    init.position = traj.pose(0.0).position;
    init.velocity = traj.velocity(0.0);

    for (const char *method : {"rk4", "midpoint"}) {
        auto integrator = makePoseIntegrator(method);
        integrator->correct(init);
        for (const auto &s : samples)
            integrator->addSample(s);
        const Pose truth = traj.pose(2.0);
        EXPECT_LT((integrator->state().position - truth.position).norm(),
                  0.05)
            << method;
    }
}

TEST(IntegratorAlternativesTest, MethodsDifferButBothStayBounded)
{
    // At a low IMU rate the discretization error of the two methods
    // differs measurably (they are genuinely distinct algorithms, the
    // Table II swappability point), while both remain bounded. Note
    // that with linearly interpolated measurements neither method
    // retains its theoretical order, so no superiority is asserted.
    const Trajectory traj = Trajectory::viconRoom(32);
    ImuNoiseModel noiseless;
    noiseless.gyro_noise_density = 0.0;
    noiseless.accel_noise_density = 0.0;
    noiseless.gyro_bias_walk = 0.0;
    noiseless.accel_bias_walk = 0.0;
    noiseless.initial_gyro_bias = Vec3(0, 0, 0);
    noiseless.initial_accel_bias = Vec3(0, 0, 0);
    ImuSensor sensor(traj, noiseless, 50.0); // Deliberately low.
    const auto samples = sensor.generate(4.0);

    ImuState init;
    init.orientation = traj.pose(0.0).orientation;
    init.position = traj.pose(0.0).position;
    init.velocity = traj.velocity(0.0);

    double err[2];
    int i = 0;
    for (const char *method : {"rk4", "midpoint"}) {
        auto integrator = makePoseIntegrator(method);
        integrator->correct(init);
        for (const auto &s : samples)
            integrator->addSample(s);
        err[i++] =
            (integrator->state().position - traj.pose(4.0).position)
                .norm();
    }
    EXPECT_LT(err[0], 0.05);
    EXPECT_LT(err[1], 0.05);
    EXPECT_GT(std::fabs(err[0] - err[1]), 1e-6)
        << "methods unexpectedly identical";
}

TEST(MeshExtractTest, FlatWallProducesPlanarMesh)
{
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(64, 48, 1.2);
    DepthImage depth(64, 48, 2.0f);
    TsdfParams params;
    params.resolution = 48;
    params.side_meters = 4.0;
    params.origin = Vec3(-2.0, -2.0, -0.5);
    TsdfVolume vol(params);
    vol.integrate(depth, intr, Pose::identity());

    const SurfaceMesh mesh = extractSurfaceMesh(vol);
    ASSERT_GT(mesh.triangleCount(), 50u);
    ASSERT_EQ(mesh.positions.size(), mesh.normals.size());
    for (const Vec3 &p : mesh.positions)
        EXPECT_NEAR(p.z, 2.0, 2.0 * vol.voxelSize());
    // Normals point back toward the camera (-z is the empty side...
    // SDF grows toward the camera, so gradients point to -z).
    for (const Vec3 &n : mesh.normals) {
        EXPECT_NEAR(n.norm(), 1.0, 1e-6);
        EXPECT_LT(n.z, -0.7);
    }
    // All triangle indices are valid.
    for (std::uint32_t idx : mesh.triangles)
        EXPECT_LT(idx, mesh.positions.size());
}

TEST(MeshExtractTest, ObjRoundTripOnDisk)
{
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(32, 24, 1.2);
    DepthImage depth(32, 24, 1.5f);
    TsdfParams params;
    params.resolution = 32;
    params.side_meters = 3.0;
    params.origin = Vec3(-1.5, -1.5, -0.2);
    TsdfVolume vol(params);
    vol.integrate(depth, intr, Pose::identity());
    const SurfaceMesh mesh = extractSurfaceMesh(vol);
    ASSERT_GT(mesh.positions.size(), 0u);

    const std::string path = "/tmp/illixr_mesh_test.obj";
    ASSERT_TRUE(writeObj(mesh, path));
    // Count the v/f records written.
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::size_t v_count = 0, f_count = 0;
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
        if (line[0] == 'v' && line[1] == ' ')
            ++v_count;
        if (line[0] == 'f')
            ++f_count;
    }
    std::fclose(f);
    EXPECT_EQ(v_count, mesh.positions.size());
    EXPECT_EQ(f_count, mesh.triangleCount());
    std::remove(path.c_str());
}

} // namespace
} // namespace illixr
