/**
 * @file
 * Tests for the resilience subsystem: fault-plan parsing and the
 * deterministic fault draw, exception containment at the executor
 * invocation boundary, and the end-to-end chaos acceptance runs
 * (contained plugin crashes, and an offload brownout, each with
 * bounded pose error).
 */

#include "failover_oracle.hpp"

#include "foundation/trajectory_error.hpp"
#include "edge/offload_vio.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/fault_plan.hpp"
#include "runtime/pool_executor.hpp"
#include "runtime/sim_scheduler.hpp"
#include "sensors/dataset.hpp"
#include "xr/illixr_system.hpp"
#include "xr/plugins.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace illixr {
namespace {

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlanTest, ParsesFullSpec)
{
    FaultPlan plan;
    ASSERT_TRUE(parseFaultPlan(
        "seed=9,crash=0.01,stall=0.02,stall_ms=30,spike=0.03,"
        "spike_scale=5,drop=0.04,corrupt=0.05,tasks=vio|camera,"
        "topics=camera|imu,brownout=1000:500:1.0:80",
        plan));
    EXPECT_EQ(plan.seed, 9u);
    EXPECT_DOUBLE_EQ(plan.crash_rate, 0.01);
    EXPECT_DOUBLE_EQ(plan.stall_rate, 0.02);
    EXPECT_EQ(plan.stall, 30 * kMillisecond);
    EXPECT_DOUBLE_EQ(plan.spike_rate, 0.03);
    EXPECT_DOUBLE_EQ(plan.spike_scale, 5.0);
    EXPECT_DOUBLE_EQ(plan.drop_rate, 0.04);
    EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.05);
    ASSERT_EQ(plan.tasks.size(), 2u);
    EXPECT_EQ(plan.tasks[0], "vio");
    ASSERT_EQ(plan.topics.size(), 2u);
    ASSERT_EQ(plan.brownouts.size(), 1u);
    EXPECT_EQ(plan.brownouts[0].start, 1000 * kMillisecond);
    EXPECT_EQ(plan.brownouts[0].length, 500 * kMillisecond);
    EXPECT_DOUBLE_EQ(plan.brownouts[0].extra_loss, 1.0);
    EXPECT_DOUBLE_EQ(plan.brownouts[0].extra_latency_ms, 80.0);
    EXPECT_TRUE(plan.active());
}

TEST(FaultPlanTest, RejectsMalformedSpecLeavingOutputUntouched)
{
    FaultPlan plan;
    plan.crash_rate = 0.5;
    EXPECT_FALSE(parseFaultPlan("crash=notanumber", plan));
    EXPECT_FALSE(parseFaultPlan("unknown_key=1", plan));
    EXPECT_FALSE(parseFaultPlan("brownout=10:20", plan));
    EXPECT_DOUBLE_EQ(plan.crash_rate, 0.5); // Untouched on failure.
}

TEST(FaultPlanTest, EmptySpecIsInactive)
{
    FaultPlan plan;
    EXPECT_TRUE(parseFaultPlan("", plan));
    EXPECT_FALSE(plan.active());
}

TEST(FaultPlanTest, TaskScopingEmptyMeansAllTopicsEmptyMeansNone)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.appliesToTask("anything"));
    EXPECT_FALSE(plan.appliesToTopic("anything"));
    plan.tasks = {"vio"};
    plan.topics = {"camera"};
    EXPECT_TRUE(plan.appliesToTask("vio"));
    EXPECT_FALSE(plan.appliesToTask("timewarp"));
    EXPECT_TRUE(plan.appliesToTopic("camera"));
    EXPECT_FALSE(plan.appliesToTopic("imu"));
}

TEST(FaultPlanTest, BrownoutWindowLookup)
{
    FaultPlan plan;
    plan.brownouts.push_back(
        {1 * kSecond, 500 * kMillisecond, 1.0, 50.0});
    EXPECT_EQ(plan.brownoutAt(0), nullptr);
    EXPECT_NE(plan.brownoutAt(1 * kSecond + kMillisecond), nullptr);
    EXPECT_EQ(plan.brownoutAt(2 * kSecond), nullptr);
}

TEST(FaultDrawTest, PureStableAndUniform)
{
    const double a = faultDraw(7, 1, "vio", 42);
    EXPECT_DOUBLE_EQ(a, faultDraw(7, 1, "vio", 42));
    EXPECT_NE(a, faultDraw(7, 2, "vio", 42));
    EXPECT_NE(a, faultDraw(7, 1, "timewarp", 42));
    EXPECT_NE(a, faultDraw(8, 1, "vio", 42));

    double sum = 0.0;
    for (int i = 0; i < 4000; ++i) {
        const double x = faultDraw(7, 1, "vio", static_cast<std::uint64_t>(i));
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.03);
}

// ------------------------------------------------------- FaultInjector

/** No-op plugin for boundary tests. */
class IdlePlugin : public Plugin
{
  public:
    explicit IdlePlugin(std::string name) : Plugin(std::move(name)) {}
    void iterate(TimePoint) override { ++count; }
    Duration period() const override { return 10 * kMillisecond; }
    int count = 0;
};

struct ValueEvent : Event
{
    int value = 0;
};

TEST(FaultInjectorTest, InvocationDecisionsAreDeterministic)
{
    FaultPlan plan;
    plan.seed = 21;
    plan.crash_rate = 0.1;
    plan.stall_rate = 0.1;
    plan.spike_rate = 0.1;
    FaultInjector a(plan);
    FaultInjector b(plan);
    IdlePlugin plugin("vio");

    for (std::uint64_t attempt = 1; attempt <= 200; ++attempt) {
        const PreInvocationAction pa = a.before(plugin, attempt, 0);
        const PreInvocationAction pb = b.before(plugin, attempt, 0);
        EXPECT_EQ(pa.crash, pb.crash);
        EXPECT_EQ(pa.stall, pb.stall);
        EXPECT_DOUBLE_EQ(pa.duration_scale, pb.duration_scale);
    }
    EXPECT_EQ(a.injectedCrashes(), b.injectedCrashes());
    EXPECT_GT(a.injectedCrashes(), 0u);
    EXPECT_GT(a.injectedStalls(), 0u);
    EXPECT_GT(a.injectedSpikes(), 0u);
}

TEST(FaultInjectorTest, PublishHookDropsEverythingAtRateOne)
{
    FaultPlan plan;
    plan.drop_rate = 1.0;
    plan.topics = {"t"};
    FaultInjector injector(plan);

    Switchboard sb;
    sb.setPublishHook(injector.makePublishHook());
    auto writer = sb.writer<ValueEvent>("t");
    for (int i = 0; i < 10; ++i)
        writer.put(makeEvent<ValueEvent>());
    auto other = sb.writer<ValueEvent>("other");
    other.put(makeEvent<ValueEvent>()); // Out of scope.

    EXPECT_EQ(sb.publishCount("t"), 0u);
    EXPECT_EQ(sb.publishAttempts("t"), 10u);
    EXPECT_EQ(sb.publishCount("other"), 1u);
    EXPECT_EQ(injector.injectedDrops(), 10u);
}

TEST(FaultInjectorTest, PublishHookCorruptsInPlaceDeterministically)
{
    FaultPlan plan;
    plan.corrupt_rate = 1.0;
    plan.topics = {"t"};

    auto corrupted = [&plan](int trial) {
        FaultInjector injector(plan);
        injector.setCorrupter("t", [](Event &e, Rng &rng) {
            static_cast<ValueEvent &>(e).value =
                static_cast<int>(rng.uniformInt(1000000));
        });
        Switchboard sb;
        sb.setPublishHook(injector.makePublishHook());
        auto writer = sb.writer<ValueEvent>("t");
        auto ev = makeEvent<ValueEvent>();
        ev->value = -1;
        writer.put(std::move(ev));
        (void)trial;
        auto seen = sb.asyncReader<ValueEvent>("t").latest();
        EXPECT_EQ(injector.injectedCorruptions(), 1u);
        return seen ? seen->value : -2;
    };
    const int first = corrupted(0);
    EXPECT_NE(first, -1); // Actually mutated.
    EXPECT_EQ(first, corrupted(1)); // Same coordinates, same bytes.
}

// ------------------------------------------- Executor fault containment

/** Plugin whose iterate() throws on demand. */
class ThrowingPlugin : public Plugin
{
  public:
    ThrowingPlugin(std::string name, Duration period, int throw_every)
        : Plugin(std::move(name)), period_(period),
          throwEvery_(throw_every)
    {
    }

    void
    iterate(TimePoint) override
    {
        ++calls;
        if (throwEvery_ > 0 && calls % throwEvery_ == 0)
            throw std::runtime_error("synthetic plugin failure");
    }

    Duration period() const override { return period_; }

    int calls = 0;

  private:
    Duration period_;
    int throwEvery_;
};

TEST(FaultContainmentTest, SimSchedulerSurvivesThrowingPlugin)
{
    ThrowingPlugin bad("bad", 10 * kMillisecond, 2); // Every 2nd call.
    IdlePlugin good("good");
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.addPlugin(&bad);
    sched.addPlugin(&good);
    sched.run(1 * kSecond);

    const TaskStats &stats = sched.stats("bad");
    EXPECT_GT(stats.exceptions, 10u);
    // The thrower keeps being scheduled after each exception...
    EXPECT_GT(bad.calls, 50);
    // ...and its neighbor is unaffected.
    EXPECT_GT(good.count, 90);
    // The count agrees with the per-invocation records.
    std::size_t thrown = 0;
    for (const InvocationRecord &rec : stats.records)
        thrown += rec.exception ? 1 : 0;
    EXPECT_EQ(thrown, stats.exceptions);
}

TEST(FaultContainmentTest, PoolExecutorSurvivesThrowingPlugin)
{
    ThrowingPlugin bad("bad", 5 * kMillisecond, 1);
    IdlePlugin good("good");
    PoolExecutorConfig cfg;
    cfg.workers = 2;
    PoolExecutor exec(cfg);
    exec.addPlugin(&bad);
    exec.addPlugin(&good);
    exec.run(200 * kMillisecond);
    EXPECT_GT(exec.stats("bad").exceptions, 5u);
    EXPECT_GT(exec.stats("good").invocations, 5u);
}

TEST(FaultContainmentTest, DeterministicPoolCountsInjectedCrashes)
{
    auto runOnce = [](unsigned seed) {
        ThrowingPlugin bad("bad", 10 * kMillisecond, 0);
        IdlePlugin good("good");
        FaultPlan plan;
        plan.seed = seed;
        plan.crash_rate = 0.2;
        plan.tasks = {"bad"};
        FaultInjector injector(plan);
        SimScheduler exec(PlatformModel::get(PlatformId::Desktop), seed);
        exec.setInterceptor(&injector);
        exec.addPlugin(&bad);
        exec.addPlugin(&good);
        exec.run(1 * kSecond);
        return exec.stats("bad").exceptions;
    };
    const std::size_t a = runOnce(3);
    EXPECT_GT(a, 5u);
    EXPECT_EQ(a, runOnce(3)); // Replayable.
}

// --------------------------------------------------- Integrated chaos

TEST(IntegratedChaosTest, CrashyRunIsContainedWithBoundedError)
{
    IntegratedConfig cfg;
    cfg.duration = 2 * kSecond;
    ASSERT_TRUE(parseFaultPlan("seed=5,crash=0.05,tasks=vio|timewarp",
                               cfg.fault_plan));

    const IntegratedResult result = runIntegrated(cfg);

    // The run finished with every component still producing output.
    // Sanitizer slowdown inflates the measured host costs that feed
    // the modeled timeline, so the throughput floor only holds in
    // uninstrumented builds; the containment and pose-error bounds
    // below are what the sanitizer legs are after.
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
    EXPECT_GT(result.achievedHz("timewarp"),
              0.5 * result.target_hz.at("timewarp"));
#endif
    EXPECT_GT(result.achievedHz("timewarp"), 0.0);
    EXPECT_GT(result.vio_trajectory.size(), 10u);
    // Every injected crash was contained and booked as an exception
    // of the task it hit; the other tasks never threw.
    double contained = 0.0;
    for (const auto &[name, stats] : result.tasks) {
        if (name != "vio" && name != "timewarp") {
            EXPECT_EQ(stats.exceptions, 0u) << name;
        }
        contained += static_cast<double>(stats.exceptions);
    }
    EXPECT_GT(result.extra.at("injected_crashes"), 0.0);
    EXPECT_EQ(contained, result.extra.at("injected_crashes"));

    // Pose error stays bounded despite injected VIO crashes.
    const SyntheticDataset ds(datasetConfigFor(cfg));
    const double ate = computeTrajectoryError(result.vio_trajectory,
                                              ds.groundTruthTrajectory())
                           .ate_rmse_m;
    EXPECT_LT(ate, 0.5);
}

TEST(IntegratedChaosTest, BrownoutFailsOverAndRecovers)
{
    IntegratedConfig cfg;
    cfg.duration = 4 * kSecond;
    // Total blackout of an otherwise lossless link from 1.0 s to 2.0 s.
    ASSERT_TRUE(parseFaultPlan("seed=3,brownout=1000:1000:1.0:100",
                               cfg.fault_plan));

    OffloadConfig offload;
    offload.link = NetworkLink::edgeEthernet(); // Lossless.

    SessionConfig sc{cfg};
    attachEdgeClient(sc, offload);
    const IntegratedResult result = runSession(std::move(sc));

    // Exactly the frames whose uplink or downlink fell inside the
    // blackout were lost, and local failover poses answered each one.
    const double lost =
        framesLostToBlackout(1 * kSecond, 1 * kSecond, cfg.duration);
    EXPECT_EQ(lost, 16.0);
    EXPECT_EQ(result.extra.at("frames_lost"), lost);
    EXPECT_EQ(result.extra.at("edge_shed"), 0.0);
    EXPECT_EQ(result.extra.at("edge_rejected"), 0.0);
    expectFailoverAccounting(result);

    // Every other frame was served: the trajectory has a pose for
    // each camera frame but the last, still in flight at the end.
    EXPECT_EQ(static_cast<double>(result.vio_trajectory.size()),
              static_cast<double>(result.tasks.at("vio").invocations) - 1);
    ASSERT_FALSE(result.vio_trajectory.empty());
    EXPECT_GT(result.vio_trajectory.back().time, 3 * kSecond);

    // And the pose error is bounded across the fault.
    const SyntheticDataset ds(datasetConfigFor(cfg));
    const double ate = computeTrajectoryError(result.vio_trajectory,
                                              ds.groundTruthTrajectory())
                           .ate_rmse_m;
    // Dead-reckoning drifts through the blackout, so the bound is
    // looser than the clean-run one (slam_test holds 0.15 m), but it
    // must stay the same order of magnitude: tracking never diverged.
    EXPECT_LT(ate, 1.0);
}

} // namespace
} // namespace illixr
