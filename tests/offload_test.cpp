/**
 * @file
 * Tests for the offloading substrate: link model math and the
 * offloaded-VIO client's latency/exclusion and failover semantics.
 */

#include "failover_oracle.hpp"

#include "edge/network.hpp"
#include "edge/offload_vio.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/metrics_registry.hpp"

#include <gtest/gtest.h>

namespace illixr {
namespace {

/** @p config with its VIO served over @p offload's link; checks that
 *  every frame that did not come back was answered locally. */
IntegratedResult
runOffloaded(const IntegratedConfig &config, const OffloadConfig &offload)
{
    SessionConfig sc{config};
    attachEdgeClient(sc, offload);
    IntegratedResult result = runSession(std::move(sc));
    expectFailoverAccounting(result);
    return result;
}

TEST(NetworkLinkTest, PresetsOrderedByLatency)
{
    EXPECT_LT(NetworkLink::edgeEthernet().base_latency_ms,
              NetworkLink::wifi6().base_latency_ms);
    EXPECT_LT(NetworkLink::wifi6().base_latency_ms,
              NetworkLink::fiveG().base_latency_ms);
    EXPECT_LT(NetworkLink::fiveG().base_latency_ms,
              NetworkLink::lteCloud().base_latency_ms);
}

TEST(NetworkModelTest, DelayIncludesSerialization)
{
    NetworkLink link;
    link.uplink_mbps = 8.0; // 1 MB/s: 1 ms per KB.
    link.base_latency_ms = 5.0;
    link.jitter_ms = 0.0;
    NetworkModel net(link);
    const Duration d = net.transferDelay(10'000, true).value();
    // 5 ms base + 10 ms serialization.
    EXPECT_NEAR(toMilliseconds(d), 15.0, 0.1);
}

TEST(NetworkModelTest, DownlinkUsesItsOwnBandwidth)
{
    NetworkLink link;
    link.uplink_mbps = 8.0;
    link.downlink_mbps = 80.0;
    link.base_latency_ms = 0.0;
    link.jitter_ms = 0.0;
    NetworkModel net(link);
    const Duration up = net.transferDelay(10'000, true).value();
    const Duration down = net.transferDelay(10'000, false).value();
    EXPECT_NEAR(toMilliseconds(up) / toMilliseconds(down), 10.0, 0.5);
}

TEST(NetworkModelTest, LossRateIsApproximatelyHonored)
{
    NetworkLink link;
    link.loss_rate = 0.1;
    NetworkModel net(link, 5);
    int lost = 0;
    for (int i = 0; i < 2000; ++i) {
        if (!net.transferDelay(100, true))
            ++lost;
    }
    EXPECT_NEAR(static_cast<double>(lost) / 2000.0, 0.1, 0.03);
    EXPECT_EQ(net.messagesLost(), static_cast<std::size_t>(lost));
    EXPECT_EQ(net.messagesSent(), 2000u);
}

TEST(NetworkModelTest, JitterNeverNegative)
{
    NetworkLink link;
    link.base_latency_ms = 1.0;
    link.jitter_ms = 5.0;
    NetworkModel net(link, 9);
    for (int i = 0; i < 200; ++i) {
        const Duration d = net.transferDelay(0, true).value();
        EXPECT_GE(toMilliseconds(d), 1.0 - 1e-9);
    }
}

TEST(NetworkModelTest, SameSeedSameDelays)
{
    NetworkLink link;
    link.jitter_ms = 3.0;
    link.loss_rate = 0.05;
    NetworkModel a(link, 11);
    NetworkModel b(link, 11);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(a.transferDelay(1000, true), b.transferDelay(1000, true));
}

TEST(NetworkModelTest, DisturbanceRaisesLossAndLatencyThenClears)
{
    NetworkLink link;
    link.base_latency_ms = 2.0;
    link.jitter_ms = 0.0;
    NetworkModel net(link, 7);
    EXPECT_FALSE(net.disturbed());

    const Duration clean = net.transferDelay(1000, true).value();

    // Full brownout: every message lost, none delivered.
    net.setDisturbance(1.0, 50.0);
    EXPECT_TRUE(net.disturbed());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(net.transferDelay(1000, true).has_value());

    // Latency-only disturbance: delivered, but slower by the overlay.
    net.setDisturbance(0.0, 50.0);
    const Duration slow = net.transferDelay(1000, true).value();
    EXPECT_NEAR(toMilliseconds(slow - clean), 50.0, 0.1);

    // Clearing restores the undisturbed behavior exactly.
    net.clearDisturbance();
    EXPECT_FALSE(net.disturbed());
    EXPECT_EQ(net.transferDelay(1000, true).value(), clean);
}

TEST(NetworkModelTest, DisturbanceDoesNotPerturbZeroLossRngStream)
{
    // A zero-loss link must produce the same jitter stream whether or
    // not a (latency-only) disturbance was applied along the way:
    // the loss draw is skipped entirely, preserving replayability.
    NetworkLink link;
    link.jitter_ms = 3.0;
    NetworkModel a(link, 13);
    NetworkModel b(link, 13);
    b.setDisturbance(0.0, 25.0);
    for (int i = 0; i < 200; ++i) {
        const Duration da = a.transferDelay(500, true).value();
        const Duration db = b.transferDelay(500, true).value();
        // Integer-nanosecond Duration quantizes each delay separately.
        EXPECT_NEAR(toMilliseconds(db - da), 25.0, 1e-5);
    }
}

TEST(NetworkModelTest, LinkSeedIsPureAndSpreadsClients)
{
    // The per-client seed function of the determinism contract: a
    // pure mix of (session seed, client id) — repeatable, never zero,
    // and distinct across neighboring clients and sessions.
    EXPECT_EQ(NetworkModel::linkSeed(1, 1), NetworkModel::linkSeed(1, 1));
    EXPECT_NE(NetworkModel::linkSeed(1, 1), NetworkModel::linkSeed(1, 2));
    EXPECT_NE(NetworkModel::linkSeed(1, 1), NetworkModel::linkSeed(2, 1));
    EXPECT_NE(NetworkModel::linkSeed(0, 0), 0u);

    // Distinct seeds mean distinct jitter streams on the same link.
    NetworkLink link;
    link.jitter_ms = 3.0;
    NetworkModel a(link, NetworkModel::linkSeed(5, 1));
    NetworkModel b(link, NetworkModel::linkSeed(5, 2));
    bool diverged = false;
    for (int i = 0; i < 50 && !diverged; ++i)
        diverged = a.transferDelay(1000, true) !=
                   b.transferDelay(1000, true);
    EXPECT_TRUE(diverged);
}

TEST(NetworkModelTest, MetricsCountSentLostAndDelays)
{
    MetricsRegistry metrics;
    NetworkLink link;
    link.loss_rate = 0.5;
    NetworkModel net(link, 3);
    net.setMetrics(&metrics);
    for (int i = 0; i < 100; ++i)
        net.transferDelay(1000, true);
    const std::uint64_t sent =
        metrics.counter("net." + link.name + ".sent").value();
    const std::uint64_t lost =
        metrics.counter("net." + link.name + ".lost").value();
    EXPECT_EQ(sent, 100u);
    EXPECT_EQ(lost, net.messagesLost());
    EXPECT_GT(lost, 0u);
    EXPECT_EQ(metrics.histogram("net." + link.name + ".delayed_ms")
                  .count(),
              sent - lost);
}

TEST(OffloadIntegrationTest, OffloadRestoresVioRateOnJetsonLp)
{
    IntegratedConfig cfg;
    cfg.platform = PlatformId::JetsonLP;
    cfg.app = AppId::Sponza;
    cfg.duration = 3 * kSecond;

    const IntegratedResult local = runIntegrated(cfg);
    OffloadConfig offload;
    offload.link = NetworkLink::edgeEthernet();
    const IntegratedResult remote = runOffloaded(cfg, offload);

    // Remote VIO meets the camera rate even when local misses it,
    // and its local CPU share collapses (compression only).
    EXPECT_GE(remote.achievedHz("vio"), 0.95 * 15.0);
    EXPECT_LT(remote.cpu_share.at("vio"),
              0.5 * std::max(0.01, local.cpu_share.at("vio")));
    // Poses still flow and track.
    EXPECT_GT(remote.vio_trajectory.size(), 30u);
    // The rest of the system is unaffected structurally.
    EXPECT_GT(remote.achievedHz("audio_playback"), 0.85 * 48.0);
}

TEST(OffloadIntegrationTest, DeadLinkIsAnsweredLocallyFrameForFrame)
{
    // A link that loses everything: every camera frame is still sent,
    // lost, and answered by the local IMU integrator on the same
    // tick, so head tracking covers the whole run with no served pose.
    IntegratedConfig cfg;
    cfg.duration = 2 * kSecond;

    OffloadConfig offload;
    offload.link = NetworkLink::edgeEthernet();
    offload.link.loss_rate = 1.0;

    const IntegratedResult result = runOffloaded(cfg, offload);

    EXPECT_EQ(result.extra.at("edge_served"), 0.0);
    EXPECT_EQ(result.extra.at("edge_shed"), 0.0);
    EXPECT_EQ(result.extra.at("edge_rejected"), 0.0);
    // One local pose per camera frame, each for a lost frame.
    EXPECT_EQ(static_cast<double>(result.vio_trajectory.size()),
              result.extra.at("failover_poses"));
    EXPECT_EQ(static_cast<double>(result.vio_trajectory.size()),
              static_cast<double>(result.tasks.at("vio").invocations));
    ASSERT_FALSE(result.vio_trajectory.empty());
    EXPECT_GT(result.vio_trajectory.back().time,
              cfg.duration - 500 * kMillisecond);
}

TEST(OffloadIntegrationTest, ThirtyPercentLossIsAnsweredFrameForFrame)
{
    // A lossy link that is not down: each lost frame gets exactly one
    // local pose (runOffloaded's accounting oracle), and every other
    // frame still reaches the server and is served.
    IntegratedConfig cfg;
    cfg.duration = 2 * kSecond;

    OffloadConfig offload;
    offload.link = NetworkLink::edgeEthernet();
    offload.link.loss_rate = 0.3;

    const IntegratedResult result = runOffloaded(cfg, offload);

    EXPECT_GT(result.extra.at("frames_lost"), 0.0);
    EXPECT_GT(result.extra.at("edge_served"), 0.0);
    EXPECT_EQ(result.extra.at("edge_shed"), 0.0);
    EXPECT_EQ(result.extra.at("edge_rejected"), 0.0);
}

TEST(OffloadIntegrationTest, EdgeServedCountsOnlyDeliveredPoses)
{
    // Seeded desktop Sponza, 5 s, 10% loss each way: the server serves
    // 65 frames, 4 of its responses are lost on the downlink, and the
    // client publishes the other 61. edge_served counts what reached
    // the client; the server's edge.served counts what it served.
    IntegratedConfig cfg;
    cfg.app = AppId::Sponza;
    cfg.duration = 5 * kSecond;
    cfg.deterministic = true;
    cfg.seed = 1;

    OffloadConfig offload;
    offload.link = NetworkLink::edgeEthernet();
    offload.link.loss_rate = 0.1;

    const IntegratedResult result = runOffloaded(cfg, offload);

    ASSERT_NE(result.trace, nullptr);
    const double slow_poses = static_cast<double>(
        result.trace->eventsOnTopic(topics::kSlowPose).size());
    const double remote = slow_poses - result.extra.at("failover_poses");
    EXPECT_EQ(result.extra.at("edge_served"), remote);
    EXPECT_EQ(result.extra.at("edge_served"), 61.0);
    ASSERT_NE(result.metrics, nullptr);
    EXPECT_EQ(result.metrics->counter("edge.served").value(), 65u);
}

TEST(OffloadIntegrationTest, CleanLinkNeedsNoFailover)
{
    // Failover is invisible on a healthy wired link: no local poses,
    // no losses, and the link metrics land in the per-session
    // registry.
    IntegratedConfig cfg;
    cfg.duration = 2 * kSecond;

    OffloadConfig offload;
    offload.link = NetworkLink::edgeEthernet();
    offload.link.loss_rate = 0.0;

    const IntegratedResult result = runOffloaded(cfg, offload);

    EXPECT_EQ(result.extra.at("failover_poses"), 0.0);
    EXPECT_EQ(result.extra.at("frames_lost"), 0.0);
    EXPECT_GT(result.extra.at("pose_round_trip_ms"), 0.0);
    ASSERT_NE(result.metrics, nullptr);
    EXPECT_GT(result.metrics->counter("net.edge-ethernet.sent").value(),
              0u);
    EXPECT_EQ(result.metrics->counter("net.edge-ethernet.lost").value(),
              0u);
}

TEST(OffloadIntegrationTest, BrownoutFailsOverThenFailsBack)
{
    // A mid-run total brownout (1.5 s..2.5 s of a 4 s run) on an
    // otherwise lossless link: exactly the frames whose uplink or
    // downlink falls inside the window are lost and answered locally,
    // and every frame outside it is served.
    IntegratedConfig cfg;
    cfg.duration = 4 * kSecond;
    ASSERT_TRUE(parseFaultPlan("brownout=1500:1000:1.0:0", cfg.fault_plan));

    OffloadConfig offload;
    offload.link = NetworkLink::edgeEthernet(); // Lossless.

    const IntegratedResult result = runOffloaded(cfg, offload);

    const double lost = framesLostToBlackout(
        1500 * kMillisecond, 1000 * kMillisecond, cfg.duration);
    EXPECT_EQ(lost, 16.0);
    EXPECT_EQ(result.extra.at("frames_lost"), lost);
    EXPECT_EQ(result.extra.at("failover_poses"), lost);
    // Each camera frame got a pose, except the last one, still in
    // flight when the run ends; all but the lost ones were served.
    EXPECT_EQ(static_cast<double>(result.vio_trajectory.size()),
              static_cast<double>(result.tasks.at("vio").invocations) - 1);
    ASSERT_FALSE(result.vio_trajectory.empty());
    EXPECT_GT(result.vio_trajectory.back().time,
              cfg.duration - 500 * kMillisecond);
    EXPECT_GT(result.extra.at("pose_round_trip_ms"), 0.0);
}

} // namespace
} // namespace illixr
