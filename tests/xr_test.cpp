/**
 * @file
 * Integration tests: OpenXR-mini session semantics, metrics
 * plumbing, and a short full integrated-system run per platform,
 * asserting the paper's headline cross-platform shape.
 */

#include "metrics/mtp.hpp"
#include "metrics/qoe.hpp"
#include "metrics/telemetry.hpp"
#include "xr/illixr_system.hpp"
#include "xr/openxr_mini.hpp"
#include "xr/plugins.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace illixr {
namespace {

TEST(OpenXrMiniTest, SessionLifecycleAndFrameLoop)
{
    auto sb = std::make_shared<Switchboard>();
    XrSession session(sb, 0.064, periodFromHz(120.0));
    EXPECT_EQ(session.state(), XrSessionState::Idle);
    session.begin();
    EXPECT_EQ(session.state(), XrSessionState::Focused);

    const TimePoint t = 5 * kMillisecond;
    const TimePoint display = session.waitFrame(t);
    EXPECT_GT(display, t);

    // Without any pose yet, views sit at the origin but are IPD apart.
    const auto views = session.locateViews(display);
    EXPECT_NEAR(
        (views[0].pose.position - views[1].pose.position).norm(), 0.064,
        1e-9);

    StereoFrame frame;
    frame.render_pose = Pose::identity();
    session.endFrame(std::move(frame), t);
    EXPECT_EQ(session.submittedFrames(), 1u);
    EXPECT_EQ(sb->publishCount(topics::kSubmittedFrame), 1u);
    session.end();
    EXPECT_EQ(session.state(), XrSessionState::Stopping);
}

TEST(OpenXrMiniTest, LocateViewsUsesFastPoseWithPrediction)
{
    auto sb = std::make_shared<Switchboard>();
    XrSession session(sb, 0.064, periodFromHz(120.0));
    auto pose = makeEvent<PoseEvent>();
    pose->time = kSecond;
    pose->state.time = kSecond;
    pose->state.position = Vec3(1.0, 2.0, 3.0);
    pose->state.velocity = Vec3(1.0, 0.0, 0.0);
    sb->writer<PoseEvent>(topics::kFastPose).put(std::move(pose));

    // 10 ms ahead: predicted 1 cm along +x.
    const auto views = session.locateViews(kSecond + 10 * kMillisecond);
    const Vec3 mid =
        (views[0].pose.position + views[1].pose.position) * 0.5;
    EXPECT_NEAR(mid.x, 1.01, 1e-6);
    EXPECT_NEAR(mid.y, 2.0, 1e-9);
}

TEST(MtpTest, ComputesAllThreeTerms)
{
    TaskStats stats;
    InvocationRecord rec;
    rec.arrival = 6 * kMillisecond;
    rec.start = 6 * kMillisecond;
    rec.virtual_duration = 2 * kMillisecond;
    rec.completion = 8 * kMillisecond;
    rec.target_vsync = 8'333'333;
    stats.records.push_back(rec);

    const MtpSeries mtp =
        computeMtp(stats, {1.5}, periodFromHz(120.0));
    ASSERT_EQ(mtp.latency_ms.count(), 1u);
    // swap = 8.333 - 8.0 = 0.333 ms; total = 1.5 + 2.0 + 0.333.
    EXPECT_NEAR(mtp.latency_ms.mean(), 3.833, 0.01);
    EXPECT_EQ(mtp.missed_vsync, 0u);
}

TEST(MtpTest, LateCompletionCountsMissAndBigSwap)
{
    TaskStats stats;
    InvocationRecord rec;
    rec.arrival = 8 * kMillisecond;
    rec.start = 8 * kMillisecond;
    rec.virtual_duration = 3 * kMillisecond;
    rec.completion = 11 * kMillisecond;
    rec.target_vsync = 8'333'333; // Missed it.
    stats.records.push_back(rec);
    const MtpSeries mtp = computeMtp(stats, {2.0}, periodFromHz(120.0));
    EXPECT_EQ(mtp.missed_vsync, 1u);
    // Display slips to the 2nd vsync at 16.67 ms: swap = 5.67 ms.
    EXPECT_NEAR(mtp.swap_ms.mean(), 5.67, 0.02);
}

TEST(MtpTest, PairsAgesWithTheWarpsThatDidNotThrow)
{
    // Three warps at 120 Hz: ok, threw (no age logged), ok and late.
    const Duration vsync = periodFromHz(120.0); // 8'333'333 ns
    TaskStats stats;
    InvocationRecord ok;
    ok.completion = 7 * kMillisecond;
    ok.virtual_duration = 1 * kMillisecond;
    ok.target_vsync = vsync;
    InvocationRecord threw;
    threw.completion = 16 * kMillisecond;
    threw.virtual_duration = 1 * kMillisecond;
    threw.target_vsync = 2 * vsync;
    threw.exception = true;
    InvocationRecord late;
    late.completion = 26 * kMillisecond;
    late.virtual_duration = 2 * kMillisecond;
    late.target_vsync = 3 * vsync;
    stats.records = {ok, threw, late};

    const MtpSeries mtp = computeMtp(stats, {1.0, 3.0}, vsync);
    ASSERT_EQ(mtp.latency_ms.count(), 2u);
    // ok:   age 1 + warp 1 + swap (8.333333 - 7)  = 3.333333 ms.
    // late: age 3 + warp 2 + swap (33.333332 - 26) = 12.333332 ms,
    //       displayed one vsync after its 24.999999 ms target.
    EXPECT_NEAR(mtp.latency_ms.samples()[0], 3.333333, 1e-6);
    EXPECT_NEAR(mtp.latency_ms.samples()[1], 12.333332, 1e-6);
    EXPECT_EQ(mtp.imu_age_ms.samples(), (std::vector<double>{1.0, 3.0}));
    // The thrown warp was on time; the third was late.
    EXPECT_EQ(mtp.missed_vsync, 1u);
}

TEST(TelemetryTest, TableRendersAligned)
{
    TextTable table;
    table.setHeader({"name", "value"});
    table.addRow({"alpha", TextTable::num(1.5)});
    table.addRow({"b", TextTable::meanStd(3.14159, 0.5)});
    const std::string s = table.render();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("3.1±0.5"), std::string::npos);
}

TEST(TelemetryTest, CsvRoundTripOnDisk)
{
    SampleSeries series;
    series.add(1.0);
    series.add(2.5);
    const std::string path = "/tmp/illixr_series_test.csv";
    ASSERT_TRUE(writeSeriesCsv(series, path, "ms"));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[64];
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    EXPECT_STREQ(line, "index,ms\n");
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(QoeTest, PerfectSystemScoresNearIdeal)
{
    DatasetConfig cfg;
    cfg.duration_s = 2.0;
    cfg.image_width = 64;
    cfg.image_height = 48;
    const SyntheticDataset ds(cfg);

    // Feed ground truth as the "estimate": QoE should be near 1.
    QoeInputs inputs;
    inputs.estimated_poses = ds.groundTruthTrajectory();
    inputs.app_frame_interval = periodFromHz(120.0);
    inputs.display_pose_age = 0;
    const QoeResult r =
        evaluateImageQoe(AppId::ArDemo, ds, inputs, 3, 64);
    EXPECT_GT(r.ssim_mean, 0.9);
    EXPECT_GT(r.one_minus_flip_mean, 0.9);
}

TEST(QoeTest, DegradedSystemScoresWorse)
{
    DatasetConfig cfg;
    cfg.duration_s = 2.0;
    cfg.image_width = 64;
    cfg.image_height = 48;
    const SyntheticDataset ds(cfg);

    QoeInputs good;
    good.estimated_poses = ds.groundTruthTrajectory();
    good.app_frame_interval = periodFromHz(120.0);
    good.display_pose_age = 0;

    // Degraded: drifted poses, slow app, stale display pose.
    QoeInputs bad = good;
    for (auto &sp : bad.estimated_poses) {
        sp.pose.position += Vec3(0.08, -0.05, 0.06);
        sp.pose.orientation =
            (sp.pose.orientation *
             Quat::fromAxisAngle(Vec3(0, 1, 0), 0.05))
                .normalized();
    }
    bad.app_frame_interval = periodFromHz(30.0);
    bad.display_pose_age = 40 * kMillisecond;

    const QoeResult rg =
        evaluateImageQoe(AppId::ArDemo, ds, good, 3, 64);
    const QoeResult rb = evaluateImageQoe(AppId::ArDemo, ds, bad, 3, 64);
    EXPECT_GT(rg.ssim_mean, rb.ssim_mean);
    EXPECT_GT(rg.one_minus_flip_mean, rb.one_minus_flip_mean);
}

TEST(IntegratedSystemTest, DesktopMeetsTargetsExceptHeavyApp)
{
    IntegratedConfig cfg;
    cfg.platform = PlatformId::Desktop;
    cfg.app = AppId::ArDemo;
    cfg.duration = 3 * kSecond;
    const IntegratedResult r = runIntegrated(cfg);

    // Paper Fig 3a: on the desktop virtually all components meet
    // their targets (AR demo's application included).
    for (const char *name :
         {"camera", "vio", "imu", "integrator", "application",
          "timewarp", "audio_encoding", "audio_playback"}) {
        const double target = r.target_hz.at(name);
        EXPECT_GT(r.achievedHz(name), 0.85 * target) << name;
    }
    // Desktop MTP meets the 20 ms VR target comfortably (Table IV).
    EXPECT_LT(r.mtp.latency_ms.mean(), 10.0);
    EXPECT_GT(r.mtp.latency_ms.count(), 100u);
    // Power is far from the ideal 1-2 W (Fig 6a).
    EXPECT_GT(r.power.total(), 50.0);
    // VIO produced a trajectory.
    EXPECT_GT(r.vio_trajectory.size(), 30u);
    // CPU shares sum to ~1.
    double share_sum = 0.0;
    for (const auto &[name, share] : r.cpu_share)
        share_sum += share;
    EXPECT_NEAR(share_sum, 1.0, 1e-6);
}

TEST(IntegratedSystemTest, JetsonLpDegradesVisualPipelineButNotAudio)
{
    IntegratedConfig cfg;
    cfg.platform = PlatformId::JetsonLP;
    cfg.app = AppId::Sponza;
    cfg.duration = 3 * kSecond;
    const IntegratedResult r = runIntegrated(cfg);

    // Paper: "With Jetson-LP, only the audio pipeline is able to
    // meet its target. The visual pipeline components are severely
    // degraded."
    EXPECT_GT(r.achievedHz("audio_playback"), 0.85 * 48.0);
    EXPECT_GT(r.achievedHz("audio_encoding"), 0.85 * 48.0);
    EXPECT_LT(r.achievedHz("application"), 0.6 * 120.0);
    EXPECT_LT(r.achievedHz("timewarp"), 0.6 * 120.0);
    // MTP grows well past the desktop's (Table IV: desktop 3.0-3.1
    // ms, Jetson-LP 11.3-19.3 ms). Both runs scale the same host
    // work, so their ratio does not move when a kernel gets faster.
    IntegratedConfig desktop = cfg;
    desktop.platform = PlatformId::Desktop;
    // 22 runs (4-vCPU x86-64 VM, 12 of them four at a time) read
    // 3.1-4.2x; 2.5x leaves a 20% margin below the lowest.
    const double desktop_mtp = runIntegrated(desktop).mtp.latency_ms.mean();
    EXPECT_GT(r.mtp.latency_ms.mean(), 2.5 * desktop_mtp);
    // Power is an order of magnitude below the desktop but still far
    // from the 1-2 W ideal.
    EXPECT_LT(r.power.total(), 20.0);
    EXPECT_GT(r.power.total(), 4.0);
    // SoC + Sys dominate (Fig 6b).
    EXPECT_GT(r.power.share(PowerRail::Soc) +
                  r.power.share(PowerRail::Sys),
              0.45);
}

TEST(AdaptiveResolutionTest, ShedsPixelsUnderOverloadOnly)
{
    // Overloaded: Jetson-LP + Sponza must trigger the controller.
    IntegratedConfig lp;
    lp.platform = PlatformId::JetsonLP;
    lp.app = AppId::Sponza;
    lp.duration = 4 * kSecond;
    lp.adaptive_resolution = true;
    const IntegratedResult r_lp = runIntegrated(lp);
    EXPECT_LT(r_lp.extra.at("final_eye_resolution"), 80.0);

    // Headroom: the desktop must keep full resolution.
    IntegratedConfig desk = lp;
    desk.platform = PlatformId::Desktop;
    desk.duration = 3 * kSecond;
    const IntegratedResult r_d = runIntegrated(desk);
    EXPECT_EQ(r_d.extra.at("final_eye_resolution"), 80.0);
    EXPECT_EQ(r_d.extra.at("min_eye_resolution"), 80.0);
}

TEST(AdaptiveResolutionTest, DecidesEvery48DisplayPeriodsWhenFramesAreLate)
{
    // A 10 Hz application on a 120 Hz display misses every slot. The
    // controller's window closes after 48 display periods (4 frame
    // intervals, 0.4 s) instead of waiting for 24 frames (2.4 s), so
    // each 0.4 s sheds one step: 80 -> 64 -> 51 -> 40 -> 32.
    Phonebook pb;
    pb.registerService(std::make_shared<Switchboard>());
    SystemTuning tuning;
    AppConfig app_cfg;
    app_cfg.eye_width = 80;
    app_cfg.eye_height = 80;
    ApplicationPlugin late(pb, tuning, AppId::ArDemo, app_cfg, true);
    const int expected[] = {80, 80, 80, 80, 64, 64, 64, 64, 51,
                            51, 51, 51, 40, 40, 40, 40, 32, 32};
    for (int k = 0; k < 18; ++k) {
        late.iterate(k * 100 * kMillisecond);
        EXPECT_EQ(late.currentEyeResolution(), expected[k]) << "frame " << k;
    }

    // On-time frames: every 24-frame window is fresh, nothing is shed.
    ApplicationPlugin fresh(pb, tuning, AppId::ArDemo, app_cfg, true);
    const Duration vsync = periodFromHz(tuning.display_hz);
    for (int k = 0; k < 60; ++k)
        fresh.iterate(k * vsync);
    EXPECT_EQ(fresh.minEyeResolution(), 80);
}

TEST(AdaptiveResolutionTest, ImprovesDisplayRateWhenOverloaded)
{
    IntegratedConfig cfg;
    cfg.platform = PlatformId::JetsonLP;
    cfg.app = AppId::Sponza;
    cfg.duration = 5 * kSecond;

    cfg.adaptive_resolution = false;
    const IntegratedResult fixed = runIntegrated(cfg);
    cfg.adaptive_resolution = true;
    const IntegratedResult adaptive = runIntegrated(cfg);

    EXPECT_GT(adaptive.achievedHz("timewarp"),
              1.1 * fixed.achievedHz("timewarp"));
    EXPECT_LT(adaptive.mtp.latency_ms.mean(),
              fixed.mtp.latency_ms.mean());
}

} // namespace
} // namespace illixr
