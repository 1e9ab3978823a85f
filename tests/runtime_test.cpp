/**
 * @file
 * Unit tests for the runtime core: phonebook, switchboard semantics
 * (sync vs async reads), plugin registry, the discrete-event
 * scheduler (periodicity, skip-on-overrun, contention, vsync
 * alignment), and the real-threaded executor.
 */

#include "foundation/profile.hpp"
#include "runtime/phonebook.hpp"
#include "runtime/plugin.hpp"
#include "runtime/rt_executor.hpp"
#include "runtime/sim_scheduler.hpp"
#include "runtime/switchboard.hpp"
#include "trace/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <type_traits>

namespace illixr {
namespace {

struct IntEvent : Event
{
    int value = 0;
};

TEST(PhonebookTest, RegisterAndLookup)
{
    Phonebook pb;
    auto sb = std::make_shared<Switchboard>();
    pb.registerService(sb);
    EXPECT_TRUE(pb.has<Switchboard>());
    EXPECT_EQ(pb.lookup<Switchboard>().get(), sb.get());
    EXPECT_FALSE(pb.has<SyncReader>());
    EXPECT_THROW(pb.lookup<SyncReader>(), std::out_of_range);
}

TEST(SwitchboardTest, AsyncReadReturnsLatest)
{
    Switchboard sb;
    auto peek = sb.asyncReader<IntEvent>("t");
    EXPECT_EQ(peek.latest(), nullptr);
    auto writer = sb.writer<IntEvent>("t");
    for (int i = 0; i < 5; ++i) {
        auto e = makeEvent<IntEvent>();
        e->value = i;
        writer.put(std::move(e));
    }
    auto latest = peek.latest();
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->value, 4);
    EXPECT_EQ(sb.publishCount("t"), 5u);
}

TEST(SwitchboardTest, SyncReaderSeesEveryValueInOrder)
{
    Switchboard sb;
    auto writer = sb.writer<IntEvent>("t");
    auto reader = sb.reader<IntEvent>("t", 16);
    for (int i = 0; i < 10; ++i) {
        auto e = makeEvent<IntEvent>();
        e->value = i;
        writer.put(std::move(e));
    }
    EXPECT_EQ(reader.pending(), 10u);
    for (int i = 0; i < 10; ++i) {
        auto e = reader.pop();
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->value, i);
    }
    EXPECT_EQ(reader.pop(), nullptr);
}

TEST(SwitchboardTest, SyncReaderMissesEventsBeforeSubscription)
{
    Switchboard sb;
    auto writer = sb.writer<IntEvent>("t");
    writer.put(makeEvent<IntEvent>());
    auto reader = sb.reader<IntEvent>("t");
    EXPECT_EQ(reader.pending(), 0u);
    writer.put(makeEvent<IntEvent>());
    EXPECT_EQ(reader.pending(), 1u);
}

TEST(SwitchboardTest, TopicTypeIsLockedAtFirstHandle)
{
    // The typed handles lock a topic's payload type at intern time:
    // asking for the same topic under a different type is a wiring
    // bug, reported loudly instead of returning silent nullptrs the
    // way the old dynamic_cast shims did.
    struct OtherEvent : Event
    {
    };
    Switchboard sb;
    auto writer = sb.writer<OtherEvent>("t");
    writer.put(makeEvent<OtherEvent>());
    EXPECT_THROW(sb.asyncReader<IntEvent>("t"), std::logic_error);
    EXPECT_THROW(sb.writer<IntEvent>("t"), std::logic_error);
    EXPECT_THROW(sb.reader<IntEvent>("t"), std::logic_error);
}

TEST(SwitchboardTest, PublishListenersFireAndExpire)
{
    Switchboard sb;
    auto writer_t = sb.writer<IntEvent>("t");
    auto writer_u = sb.writer<IntEvent>("u");
    int hits = 0;
    auto handle =
        sb.onPublish("t", [&hits](const std::string &topic) {
            EXPECT_EQ(topic, "t");
            ++hits;
        });
    writer_t.put(makeEvent<IntEvent>());
    writer_u.put(makeEvent<IntEvent>()); // Other topics don't fire.
    EXPECT_EQ(hits, 1);
    handle.reset(); // Dropping the handle unsubscribes.
    writer_t.put(makeEvent<IntEvent>());
    EXPECT_EQ(hits, 1);
}

TEST(SwitchboardTest, ThrowingListenerIsContainedAndOthersStillFire)
{
    Switchboard sb;
    int before_hits = 0, after_hits = 0;
    auto h1 = sb.onPublish("t", [&before_hits](const std::string &) {
        ++before_hits;
    });
    auto h2 = sb.onPublish("t", [](const std::string &) -> void {
        throw std::runtime_error("listener failure");
    });
    auto h3 = sb.onPublish("t", [&after_hits](const std::string &) {
        ++after_hits;
    });
    auto writer = sb.writer<IntEvent>("t");
    writer.put(makeEvent<IntEvent>());
    writer.put(makeEvent<IntEvent>());

    // The publishes completed, both healthy listeners fired every
    // time, and the contained exceptions were accounted.
    EXPECT_EQ(sb.publishCount("t"), 2u);
    EXPECT_EQ(before_hits, 2);
    EXPECT_EQ(after_hits, 2);
    EXPECT_EQ(sb.listenerExceptions(), 2u);
}

TEST(SwitchboardTest, TopicNamesEnumerates)
{
    Switchboard sb;
    sb.writer<IntEvent>("alpha").put(makeEvent<IntEvent>());
    auto reader = sb.reader<IntEvent>("beta");
    const auto names = sb.topicNames();
    EXPECT_EQ(names.size(), 2u);
}

/** Plugin that burns a configurable amount of host time. */
class BurnPlugin : public Plugin
{
  public:
    BurnPlugin(std::string name, Duration period, double burn_us,
               ExecUnit unit = ExecUnit::Cpu, bool skip = true)
        : Plugin(std::move(name)), period_(period), burnUs_(burn_us),
          unit_(unit), skip_(skip)
    {
    }

    void
    iterate(TimePoint) override
    {
        ++count;
        const double start = hostTimeSeconds();
        double acc = 0.0;
        while ((hostTimeSeconds() - start) * 1e6 < burnUs_)
            acc += 1.0;
        sink_ = acc;
    }

    Duration period() const override { return period_; }
    ExecUnit execUnit() const override { return unit_; }
    bool skipOnOverrun() const override { return skip_; }

    int count = 0;

  private:
    double sink_ = 0.0;
    Duration period_;
    double burnUs_;
    ExecUnit unit_;
    bool skip_;
};

TEST(PluginRegistryTest, CreateByName)
{
    PluginRegistry registry;
    registry.registerFactory("burn", [](const Phonebook &) {
        return std::make_unique<BurnPlugin>("burn", kMillisecond, 1.0);
    });
    EXPECT_TRUE(registry.has("burn"));
    EXPECT_FALSE(registry.has("nope"));
    Phonebook pb;
    auto plugin = registry.create("burn", pb);
    EXPECT_EQ(plugin->name(), "burn");
    EXPECT_THROW(registry.create("nope", pb), std::out_of_range);
    EXPECT_EQ(registry.names().size(), 1u);
}

TEST(SimSchedulerTest, PeriodicTaskRunsAtTargetRate)
{
    BurnPlugin fast("fast", 10 * kMillisecond, 5.0);
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.addPlugin(&fast);
    sched.run(1 * kSecond);
    // 100 Hz over 1 s: ~100 invocations (inclusive of t=0).
    EXPECT_NEAR(static_cast<double>(fast.count), 100.0, 3.0);
    const TaskStats &stats = sched.stats("fast");
    EXPECT_EQ(stats.invocations, static_cast<std::size_t>(fast.count));
    EXPECT_EQ(stats.skips, 0u);
    EXPECT_GT(stats.exec_ms.mean(), 0.0);
}

TEST(SimSchedulerTest, SlowPlatformInflatesVirtualTime)
{
    BurnPlugin a("a", 10 * kMillisecond, 100.0);
    BurnPlugin b("b", 10 * kMillisecond, 100.0);
    SimScheduler desktop(PlatformModel::get(PlatformId::Desktop));
    desktop.addPlugin(&a);
    desktop.run(kSecond);
    SimScheduler jetson(PlatformModel::get(PlatformId::JetsonLP));
    jetson.addPlugin(&b);
    jetson.run(kSecond);
    const double d = desktop.stats("a").exec_ms.mean();
    const double j = jetson.stats("b").exec_ms.mean();
    EXPECT_NEAR(j / d, 5.6, 1.5); // Jetson-LP cpu_scale.
}

TEST(SimSchedulerTest, OverrunSkipsFrames)
{
    // A task whose virtual duration exceeds its period must skip.
    // 2 ms of work on Jetson-LP -> 11.2 ms virtual vs 5 ms period.
    BurnPlugin heavy("heavy", 5 * kMillisecond, 2000.0);
    SimScheduler sched(PlatformModel::get(PlatformId::JetsonLP));
    sched.addPlugin(&heavy);
    sched.run(kSecond);
    const TaskStats &stats = sched.stats("heavy");
    EXPECT_GT(stats.skips, 50u);
    EXPECT_LT(stats.achievedHz(kSecond), 150.0);
}

TEST(SimSchedulerTest, GpuQueueSerializesGpuTasks)
{
    // Two GPU tasks of 1 ms at 500 Hz each saturate the single GPU
    // queue: total GPU busy can't exceed the run duration.
    BurnPlugin g1("g1", 2 * kMillisecond, 1000.0, ExecUnit::GpuGraphics);
    BurnPlugin g2("g2", 2 * kMillisecond, 1000.0, ExecUnit::GpuCompute);
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.addPlugin(&g1);
    sched.addPlugin(&g2);
    sched.run(kSecond);
    EXPECT_LE(sched.gpuUtilization(), 1.0);
    EXPECT_GT(sched.gpuUtilization(), 0.7);
    // Together they demand 2x the queue: someone must skip.
    EXPECT_GT(sched.stats("g1").skips + sched.stats("g2").skips, 100u);
}

TEST(SimSchedulerTest, CpuUtilizationAccounting)
{
    // One task of ~1 ms every 10 ms on 12 threads: ~1/120 utilization.
    BurnPlugin t("t", 10 * kMillisecond, 1000.0);
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.addPlugin(&t);
    sched.run(kSecond);
    EXPECT_NEAR(sched.cpuUtilization(), 1.0 / 120.0, 0.5 / 120.0);
}

TEST(SimSchedulerTest, VsyncAlignedTaskTargetsVsync)
{
    BurnPlugin warp("warp", 0, 500.0, ExecUnit::GpuGraphics);
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    const Duration vsync = periodFromHz(120.0);
    sched.addVsyncAlignedPlugin(&warp, vsync);
    sched.run(kSecond);
    const TaskStats &stats = sched.stats("warp");
    EXPECT_GT(stats.invocations, 100u);
    // After warmup, completions should land before their targets and
    // arrivals should be late in the vsync interval.
    std::size_t on_time = 0;
    for (std::size_t i = 5; i < stats.records.size(); ++i) {
        const auto &rec = stats.records[i];
        ASSERT_GT(rec.target_vsync, 0);
        if (rec.completion <= rec.target_vsync)
            ++on_time;
    }
    EXPECT_GT(on_time, (stats.records.size() - 5) * 3 / 4);
}

TEST(RtExecutorTest, RunsPluginsLive)
{
    BurnPlugin fast("fast", 5 * kMillisecond, 10.0);
    RtExecutor exec;
    exec.addPlugin(&fast);
    exec.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    exec.stop();
    // ~24 iterations expected; allow generous slack for CI noise.
    EXPECT_GE(exec.iterations("fast"), 8u);
    EXPECT_LE(exec.iterations("fast"), 40u);
    // The Executor-interface stats mirror the iteration counter.
    EXPECT_EQ(exec.stats("fast").invocations, exec.iterations("fast"));
    EXPECT_EQ(exec.taskNames().size(), 1u);
    EXPECT_STREQ(exec.timeline(), "wall");
}

TEST(RtExecutorTest, StopCompletesPromptlyUnderLoad)
{
    // Regression: stop() used to let each plugin thread sleep out the
    // remainder of its period before observing the flag, so a plugin
    // with a long period stalled shutdown for up to that period (and
    // a stop() racing a thread between its flag check and its sleep
    // could miss the wakeup entirely). With the condition-variable
    // handshake, stop() must return promptly even when one thread is
    // parked 10 s into the future and others are busy iterating.
    BurnPlugin parked("parked", 10 * kSecond, 1.0);
    BurnPlugin busy_a("busy_a", kMillisecond, 200.0);
    BurnPlugin busy_b("busy_b", kMillisecond, 200.0);
    RtExecutor exec;
    exec.addPlugin(&parked);
    exec.addPlugin(&busy_a);
    exec.addPlugin(&busy_b);
    exec.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const auto t0 = std::chrono::steady_clock::now();
    exec.stop();
    const auto stop_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // Far below the parked plugin's 10 s period; generous for CI.
    EXPECT_LT(stop_ms, 2000);
    EXPECT_GE(exec.iterations("parked"), 1u); // The t=0 release ran.
    EXPECT_GE(exec.iterations("busy_a"), 1u);
    // Stopped means stopped: counters do not advance afterwards.
    const std::size_t after = exec.iterations("busy_a");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(exec.iterations("busy_a"), after);
}

TEST(SwitchboardTest, TypedHandlesRoundTrip)
{
    Switchboard sb;
    auto writer = sb.writer<IntEvent>("t");
    auto reader = sb.reader<IntEvent>("t", 8);
    auto peek = sb.asyncReader<IntEvent>("t");

    for (int i = 0; i < 3; ++i) {
        auto e = makeEvent<IntEvent>();
        e->value = i;
        writer.put(std::move(e));
    }
    EXPECT_EQ(peek.latest()->value, 2);
    EXPECT_EQ(reader.latest()->value, 2);
    for (int i = 0; i < 3; ++i) {
        auto e = reader.pop();
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->value, i);
    }
    EXPECT_EQ(reader.pop(), nullptr);
    EXPECT_EQ(reader.dropped(), 0u);
}

TEST(SwitchboardTest, TypedHandlesInteroperateWithUntypedIntern)
{
    Switchboard sb;
    // A topic first touched through the untyped onPublish() intern
    // (which leaves the payload type unlocked)...
    int hits = 0;
    auto handle =
        sb.onPublish("t", [&hits](const std::string &) { ++hits; });
    // ...is the same topic the typed handles lock and use afterwards.
    auto writer = sb.writer<IntEvent>("t");
    auto reader = sb.asyncReader<IntEvent>("t");
    writer.put(makeEvent<IntEvent>());
    writer.put(makeEvent<IntEvent>());
    ASSERT_NE(reader.latest(), nullptr);
    EXPECT_EQ(sb.publishCount("t"), 2u);
    EXPECT_EQ(hits, 2);
}

TEST(SwitchboardTest, ListenerMayReadItsTopicAndPublishElsewhere)
{
    // latest() and pop() take the topic mutex, and listeners run after
    // publish releases it: a listener on "a" may read "a" both ways
    // and publish on "b" (how a displayed frame gets timestamped)
    // without deadlocking, and it sees the event that woke it.
    Switchboard sb;
    auto writer_a = sb.writer<IntEvent>("a");
    auto peek_a = sb.asyncReader<IntEvent>("a");
    auto reader_a = sb.reader<IntEvent>("a");
    auto writer_b = sb.writer<IntEvent>("b");
    auto reader_b = sb.reader<IntEvent>("b");

    std::vector<int> latest_seen, popped_seen;
    auto handle = sb.onPublish("a", [&](const std::string &) {
        auto latest = peek_a.latest();
        auto popped = reader_a.pop();
        ASSERT_NE(latest, nullptr);
        ASSERT_NE(popped, nullptr);
        latest_seen.push_back(latest->value);
        popped_seen.push_back(popped->value);
        auto echo = makeEvent<IntEvent>();
        echo->value = latest->value;
        writer_b.put(std::move(echo));
    });

    for (int i = 0; i < 3; ++i) {
        auto e = makeEvent<IntEvent>();
        e->value = i;
        writer_a.put(std::move(e));
    }

    const std::vector<int> want = {0, 1, 2};
    EXPECT_EQ(latest_seen, want);
    EXPECT_EQ(popped_seen, want);
    EXPECT_EQ(reader_a.pending(), 0u);
    EXPECT_EQ(sb.publishCount("b"), 3u);
    for (int v : want) {
        auto e = reader_b.pop();
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->value, v);
    }
}

TEST(SwitchboardTest, SyncReaderEvictsOldestAndCountsDropsMetric)
{
    // Documented overflow policy: a full queue evicts the OLDEST
    // queued event so the survivors are always the newest `capacity`
    // events, and every eviction is visible both on the handle
    // (dropped()) and in the aggregate sb.reader.dropped counter.
    MetricsRegistry metrics;
    Switchboard sb;
    sb.setMetrics(&metrics);
    auto writer = sb.writer<IntEvent>("t");
    auto reader = sb.reader<IntEvent>("t", 4);

    for (int i = 0; i < 10; ++i) {
        auto e = makeEvent<IntEvent>();
        e->value = i;
        writer.put(std::move(e));
    }

    EXPECT_EQ(reader.pending(), 4u);
    EXPECT_EQ(reader.dropped(), 6u);
    EXPECT_EQ(metrics.counter("sb.reader.dropped").value(), 6.0);
    // Survivors are the newest four, still in publish order.
    for (int want = 6; want < 10; ++want) {
        auto e = reader.pop();
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->value, want);
    }
    EXPECT_EQ(reader.pop(), nullptr);
}

// Detection idiom: substitution succeeds only if the string-keyed
// call still compiles. The deprecated shims were deleted once every
// call site moved to typed handles; these traits pin the API surface
// so a shim cannot quietly reappear.
template <typename SB, typename = void>
struct HasStringPublish : std::false_type
{
};
template <typename SB>
struct HasStringPublish<
    SB, std::void_t<decltype(std::declval<SB &>().publish(
            std::declval<const std::string &>(),
            std::declval<EventPtr>()))>> : std::true_type
{
};

template <typename SB, typename = void>
struct HasStringLatest : std::false_type
{
};
template <typename SB>
struct HasStringLatest<
    SB, std::void_t<decltype(std::declval<const SB &>().latest(
            std::declval<const std::string &>()))>> : std::true_type
{
};

template <typename SB, typename = void>
struct HasStringSubscribe : std::false_type
{
};
template <typename SB>
struct HasStringSubscribe<
    SB, std::void_t<decltype(std::declval<SB &>().subscribe(
            std::declval<const std::string &>()))>> : std::true_type
{
};

TEST(SwitchboardTest, DeprecatedStringShimsAreGone)
{
    static_assert(!HasStringPublish<Switchboard>::value,
                  "string-keyed publish() must stay deleted");
    static_assert(!HasStringLatest<Switchboard>::value,
                  "string-keyed latest() must stay deleted");
    static_assert(!HasStringSubscribe<Switchboard>::value,
                  "string-keyed subscribe() must stay deleted");

    // And with no shims left, nothing can mint sb.deprecated.*
    // counters: a full typed-handle round trip leaves none behind.
    MetricsRegistry metrics;
    Switchboard sb;
    sb.setMetrics(&metrics);
    auto writer = sb.writer<IntEvent>("t");
    auto reader = sb.reader<IntEvent>("t", 8);
    auto peek = sb.asyncReader<IntEvent>("t");
    writer.put(makeEvent<IntEvent>());
    (void)peek.latest();
    (void)reader.pop();
    for (const MetricRow &row : metrics.snapshotRows())
        EXPECT_EQ(row.name.rfind("sb.deprecated.", 0), std::string::npos)
            << "unexpected deprecated-shim counter: " << row.name;
    EXPECT_FALSE(metrics.hasCounter("sb.deprecated.publish"));
    EXPECT_FALSE(metrics.hasCounter("sb.deprecated.latest"));
    EXPECT_FALSE(metrics.hasCounter("sb.deprecated.subscribe"));
}

TEST(SwitchboardTest, EventsOutliveTheSwitchboard)
{
    // A consumer may keep an event after the switchboard (and every
    // topic, reader and queue with it) is gone; the payload must stay
    // valid until the last reference dies.
    std::shared_ptr<const IntEvent> survivor;
    std::shared_ptr<const IntEvent> queued;
    {
        Switchboard sb;
        auto writer = sb.writer<IntEvent>("t");
        auto peek = sb.asyncReader<IntEvent>("t");
        auto reader = sb.reader<IntEvent>("t", 4);
        auto e = makeEvent<IntEvent>();
        e->value = 41;
        writer.put(std::move(e));
        queued = reader.pop();
        // Churn the topic so evictions and latest-value replacement
        // release references before teardown.
        for (int i = 0; i < 100; ++i) {
            auto f = makeEvent<IntEvent>();
            f->value = i;
            writer.put(std::move(f));
        }
        auto g = makeEvent<IntEvent>();
        g->value = 42;
        writer.put(std::move(g));
        survivor = peek.latest();
    }
    ASSERT_NE(survivor, nullptr);
    EXPECT_EQ(survivor->value, 42);
    EXPECT_TRUE(survivor->trace.valid());
    ASSERT_NE(queued, nullptr);
    EXPECT_EQ(queued->value, 41);
    EXPECT_EQ(queued->trace.sequence, 1u);
}

/** Plugin that logs its lifecycle transitions into a shared journal. */
class LifecyclePlugin : public Plugin
{
  public:
    LifecyclePlugin(std::string name, std::vector<std::string> *journal)
        : Plugin(std::move(name)), journal_(journal)
    {
    }

    void
    start(const Phonebook &) override
    {
        journal_->push_back(name() + ":start");
    }

    void
    stop() override
    {
        journal_->push_back(name() + ":stop");
    }

    void
    iterate(TimePoint) override
    {
        if (!iterated_) {
            journal_->push_back(name() + ":first_iterate");
            iterated_ = true;
        }
    }

    Duration period() const override { return 100 * kMillisecond; }

  private:
    std::vector<std::string> *journal_;
    bool iterated_ = false;
};

TEST(ExecutorLifecycleTest, SimSchedulerStartsAndStopsPlugins)
{
    std::vector<std::string> journal;
    LifecyclePlugin a("a", &journal);
    LifecyclePlugin b("b", &journal);
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.addPlugin(&a);
    sched.addPlugin(&b);
    sched.run(kSecond);
    // start() in registration order, before any iterate(); stop() in
    // reverse order after the run.
    ASSERT_GE(journal.size(), 6u);
    EXPECT_EQ(journal[0], "a:start");
    EXPECT_EQ(journal[1], "b:start");
    EXPECT_EQ(journal[journal.size() - 2], "b:stop");
    EXPECT_EQ(journal.back(), "a:stop");
}

TEST(ExecutorLifecycleTest, RtExecutorRunIsStartSleepStop)
{
    std::vector<std::string> journal;
    LifecyclePlugin a("a", &journal);
    RtExecutor exec;
    Executor &iface = exec; // The common interface drives both.
    iface.addPlugin(&a);
    iface.run(50 * kMillisecond);
    ASSERT_GE(journal.size(), 3u);
    EXPECT_EQ(journal.front(), "a:start");
    EXPECT_EQ(journal[1], "a:first_iterate");
    EXPECT_EQ(journal.back(), "a:stop");
}

TEST(ExecutorLifecycleTest, VsyncFallbackOnExecutorInterface)
{
    // Through the base interface, executors without late-latch
    // scheduling treat vsync-aligned plugins as plain periodic.
    std::vector<std::string> journal;
    LifecyclePlugin a("a", &journal);
    RtExecutor exec;
    Executor &iface = exec;
    iface.addVsyncAlignedPlugin(&a, periodFromHz(120.0));
    iface.run(50 * kMillisecond);
    EXPECT_GE(exec.iterations("a"), 1u);
}

} // namespace
} // namespace illixr
