/**
 * @file
 * Tests for the resilience subsystem: fault-plan parsing and the
 * deterministic fault draw, the circuit breaker, exception
 * containment at the executor invocation boundary, the Supervisor's
 * restart/backoff machinery, the DegradationManager's hysteresis
 * loop, and the end-to-end chaos acceptance run (plugin crashes +
 * offload brownout with bounded pose error).
 */

#include "foundation/trajectory_error.hpp"
#include "offload/offload_vio.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/resilience.hpp"
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

// ------------------------------------------------------ CircuitBreaker

TEST(CircuitBreakerTest, TripsHoldsProbesAndCloses)
{
    CircuitBreakerPolicy policy;
    policy.failure_threshold = 2;
    policy.open_hold = 100 * kMillisecond;
    policy.probe_successes = 2;
    CircuitBreaker breaker(policy);

    EXPECT_TRUE(breaker.allow(0));
    breaker.recordFailure(0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    breaker.recordFailure(0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.opens(), 1u);

    // Held open until the hold elapses.
    EXPECT_FALSE(breaker.allow(50 * kMillisecond));
    EXPECT_TRUE(breaker.allow(100 * kMillisecond));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);

    // Two probe successes close it.
    breaker.recordSuccess(100 * kMillisecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    breaker.recordSuccess(110 * kMillisecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens)
{
    CircuitBreakerPolicy policy;
    policy.failure_threshold = 1;
    policy.open_hold = 10 * kMillisecond;
    CircuitBreaker breaker(policy);
    breaker.recordFailure(0);
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::Open);
    ASSERT_TRUE(breaker.allow(20 * kMillisecond));
    breaker.recordFailure(20 * kMillisecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.opens(), 2u);
    // And the hold restarts from the re-trip.
    EXPECT_FALSE(breaker.allow(25 * kMillisecond));
}

TEST(CircuitBreakerTest, ConsecutiveReopensBackOffExponentially)
{
    CircuitBreakerPolicy policy;
    policy.failure_threshold = 1;
    policy.open_hold = 100 * kMillisecond;
    policy.max_hold = 500 * kMillisecond;
    policy.jitter = 0.0; // Exact doubling for this test.
    CircuitBreaker breaker(policy);

    TimePoint now = 0;
    breaker.recordFailure(now);
    EXPECT_EQ(breaker.currentHold(), 100 * kMillisecond);

    // Each failed probe doubles the hold until the cap.
    const Duration expected[] = {200 * kMillisecond, 400 * kMillisecond,
                                 500 * kMillisecond,
                                 500 * kMillisecond};
    for (const Duration want : expected) {
        now += breaker.currentHold();
        ASSERT_TRUE(breaker.allow(now));
        breaker.recordFailure(now); // Probe fails, re-open.
        EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
        EXPECT_EQ(breaker.currentHold(), want);
    }

    // Recovery resets the streak: the next trip holds open_hold.
    now += breaker.currentHold();
    ASSERT_TRUE(breaker.allow(now));
    breaker.recordSuccess(now);
    breaker.recordSuccess(now);
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    breaker.recordFailure(now);
    EXPECT_EQ(breaker.currentHold(), 100 * kMillisecond);
}

TEST(CircuitBreakerTest, ReopenJitterIsDeterministicAndBounded)
{
    CircuitBreakerPolicy policy;
    policy.failure_threshold = 1;
    policy.open_hold = 100 * kMillisecond;
    policy.jitter = 0.1;
    policy.jitter_seed = 42;

    auto holds = [&policy] {
        CircuitBreaker b(policy);
        std::vector<Duration> out;
        TimePoint now = 0;
        b.recordFailure(now);
        out.push_back(b.currentHold());
        for (int k = 0; k < 3; ++k) {
            now += b.currentHold();
            b.allow(now);
            b.recordFailure(now);
            out.push_back(b.currentHold());
        }
        return out;
    };
    const auto a = holds();
    EXPECT_EQ(a, holds()); // Same seed, same holds.
    EXPECT_EQ(a[0], 100 * kMillisecond); // First open: no jitter.
    for (std::size_t k = 1; k < a.size(); ++k) {
        const auto base =
            static_cast<double>(100 * kMillisecond) *
            std::pow(2.0, static_cast<double>(k));
        EXPECT_GE(static_cast<double>(a[k]), base);
        EXPECT_LE(static_cast<double>(a[k]), base * 1.1 + 1.0);
    }
    // A different jitter stream gives different holds past the first.
    policy.jitter_seed = 43;
    const auto b = holds();
    EXPECT_NE(a, b);
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
    MetricsRegistry metrics;
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.setMetrics(&metrics);
    sched.addPlugin(&bad);
    sched.addPlugin(&good);
    sched.run(1 * kSecond);

    const TaskStats &stats = sched.stats("bad");
    EXPECT_GT(stats.exceptions, 10u);
    // The thrower keeps being scheduled after each exception...
    EXPECT_GT(bad.calls, 50);
    // ...and its neighbor is unaffected.
    EXPECT_GT(good.count, 90);
    EXPECT_EQ(metrics.counter("task.bad.exceptions").value(),
              stats.exceptions);
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
        PoolExecutorConfig cfg;
        cfg.workers = 2;
        cfg.deterministic = true;
        cfg.seed = seed;
        PoolExecutor exec(cfg);
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

// ---------------------------------------------------------- Supervisor

TEST(SupervisorTest, TakesPluginDownThenRestartsAfterBackoff)
{
    Switchboard sb;
    auto health = sb.reader<HealthEvent>(topics::kHealth);
    MetricsRegistry metrics;
    SupervisorPolicy policy;
    policy.exception_threshold = 2;
    policy.initial_backoff = 100 * kMillisecond;
    Supervisor sup(sb, &metrics, policy);
    IdlePlugin plugin("flaky");

    InvocationOutcome boom;
    boom.exception = true;
    boom.error = "boom";

    // First exception: counted, not yet down.
    sup.after(plugin, 0, boom);
    EXPECT_FALSE(sup.isDown("flaky"));
    // Second consecutive exception crosses the threshold.
    sup.after(plugin, 10 * kMillisecond, boom);
    EXPECT_TRUE(sup.isDown("flaky"));

    // While down and inside the backoff: suppressed.
    const PreInvocationAction held =
        sup.before(plugin, 3, 50 * kMillisecond);
    EXPECT_TRUE(held.suppress);
    EXPECT_TRUE(sup.isDown("flaky"));

    // After the backoff: restarted and live again.
    const PreInvocationAction live =
        sup.before(plugin, 4, 200 * kMillisecond);
    EXPECT_FALSE(live.suppress);
    EXPECT_FALSE(sup.isDown("flaky"));
    EXPECT_EQ(sup.restarts(), 1u);
    EXPECT_EQ(sup.exceptionsSeen(), 2u);
    EXPECT_EQ(metrics.counter("resilience.restarts").value(), 1u);

    // Health stream told the whole story: 2 exceptions, down, restart.
    std::size_t exceptions = 0, restarts = 0;
    while (auto ev = health.pop()) {
        if (ev->kind == HealthKind::Exception)
            ++exceptions;
        if (ev->kind == HealthKind::Restart)
            ++restarts;
    }
    EXPECT_EQ(exceptions, 2u);
    EXPECT_EQ(restarts, 2u); // "down" announcement + the restart.
}

// ---------------------------------------------------------- Degradation

TEST(DegradationTest, CommandForLevelMapsKnobsInSheddingOrder)
{
    const auto l0 = DegradationPlugin::commandForLevel(0);
    EXPECT_EQ(l0.camera_stride, 1);
    EXPECT_EQ(l0.reprojection_stride, 1);
    EXPECT_EQ(l0.audio_coalesce, 1);
    const auto l1 = DegradationPlugin::commandForLevel(1);
    EXPECT_EQ(l1.camera_stride, 2);
    EXPECT_EQ(l1.reprojection_stride, 1);
    const auto l3 = DegradationPlugin::commandForLevel(3);
    EXPECT_EQ(l3.camera_stride, 2);
    EXPECT_EQ(l3.reprojection_stride, 2);
    EXPECT_EQ(l3.audio_coalesce, 2);
}

TEST(DegradationTest, ShedsUnderPressureAndRecoversWithHysteresis)
{
    Switchboard sb;
    auto commands = sb.reader<DegradationCommandEvent>(topics::kDegradation);
    MetricsRegistry metrics;
    DegradationPolicy policy;
    policy.watched = {"timewarp"};
    policy.rise_hold = 2;
    policy.recover_hold = 3;
    DegradationPlugin governor(sb, &metrics, policy);

    Counter &inv = metrics.counter("task.timewarp.invocations");
    Counter &skp = metrics.counter("task.timewarp.skips");

    TimePoint now = 0;
    auto tick = [&](std::uint64_t d_inv, std::uint64_t d_skips) {
        inv.add(d_inv);
        skp.add(d_skips);
        now += policy.period;
        governor.iterate(now);
    };

    governor.iterate(now); // Baseline command (level 0).
    EXPECT_EQ(governor.level(), 0);

    // 50% miss ratio for rise_hold ticks -> level 1; keep the
    // pressure up and it escalates further.
    tick(6, 6);
    tick(6, 6);
    EXPECT_EQ(governor.level(), 1);
    tick(6, 6);
    tick(6, 6);
    EXPECT_EQ(governor.level(), 2);

    // Clean window for recover_hold ticks -> one level back.
    tick(12, 0);
    tick(12, 0);
    tick(12, 0);
    EXPECT_EQ(governor.level(), 1);
    EXPECT_EQ(governor.maxLevelReached(), 2);
    EXPECT_EQ(metrics.counter("resilience.shed_steps").value(), 2u);
    EXPECT_EQ(metrics.counter("resilience.recover_steps").value(), 1u);

    // Every level change was published as a typed command.
    std::vector<int> levels;
    while (auto cmd = commands.pop()) {
        levels.push_back(cmd->level);
    }
    EXPECT_EQ(levels, (std::vector<int>{0, 1, 2, 1}));
}

// --------------------------------------------------- Integrated chaos

TEST(IntegratedChaosTest, CrashyRunCompletesWithSupervisionAndBoundedError)
{
    IntegratedConfig cfg;
    cfg.duration = 2 * kSecond;
    cfg.resilience.supervise = true;
    ASSERT_TRUE(parseFaultPlan("seed=5,crash=0.05,tasks=vio|timewarp",
                               cfg.resilience.fault_plan));

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
    EXPECT_GT(result.extra.at("injected_crashes"), 0.0);
    EXPECT_GT(result.extra.at("plugin_exceptions"), 0.0);

    // Pose error stays bounded despite injected VIO crashes.
    DatasetConfig ds_cfg;
    ds_cfg.duration_s = toSeconds(cfg.duration) + 0.5;
    ds_cfg.image_width = cfg.camera_width;
    ds_cfg.image_height = cfg.camera_height;
    ds_cfg.camera_rate_hz = 15.0;
    ds_cfg.imu_rate_hz = 500.0;
    ds_cfg.preset = DatasetConfig::Preset::LabWalk;
    ds_cfg.seed = cfg.seed;
    const SyntheticDataset ds(ds_cfg);
    const double ate = computeTrajectoryError(result.vio_trajectory,
                                              ds.groundTruthTrajectory())
                           .ate_rmse_m;
    EXPECT_LT(ate, 0.5);
}

TEST(IntegratedChaosTest, BrownoutTripsBreakerFailsOverAndRecovers)
{
    IntegratedConfig cfg;
    cfg.duration = 4 * kSecond;
    cfg.resilience.supervise = true;
    // Total blackout of the link from 1.0 s to 2.0 s.
    ASSERT_TRUE(parseFaultPlan("seed=3,brownout=1000:1000:1.0:100",
                               cfg.resilience.fault_plan));

    OffloadConfig offload;
    offload.link = NetworkLink::edgeEthernet();
    offload.breaker.failure_threshold = 2;
    offload.breaker.open_hold = 200 * kMillisecond;

    const IntegratedResult result = runIntegratedOffloaded(cfg, offload);

    // The breaker tripped during the brownout and local failover
    // poses kept head tracking alive.
    EXPECT_GE(result.extra.at("circuit_opens"), 1.0);
    EXPECT_GT(result.extra.at("failover_poses"), 0.0);

    // After the brownout the remote path recovered: the trajectory
    // covers (nearly) the whole run, not just the pre-fault part.
    ASSERT_FALSE(result.vio_trajectory.empty());
    EXPECT_GT(result.vio_trajectory.back().time, 3 * kSecond);

    // And the pose error is bounded across the fault.
    DatasetConfig ds_cfg;
    ds_cfg.duration_s = toSeconds(cfg.duration) + 0.5;
    ds_cfg.image_width = cfg.camera_width;
    ds_cfg.image_height = cfg.camera_height;
    ds_cfg.camera_rate_hz = 15.0;
    ds_cfg.imu_rate_hz = 500.0;
    ds_cfg.preset = DatasetConfig::Preset::LabWalk;
    ds_cfg.seed = cfg.seed;
    const SyntheticDataset ds(ds_cfg);
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
