/**
 * @file
 * Unit tests for the runtime core: phonebook, switchboard semantics
 * (sync vs async reads), plugin registry, the discrete-event
 * scheduler (periodicity, skip-on-overrun, bounded catch-up,
 * contention, vsync alignment, seeded reproducibility), and the
 * executor lifecycle.
 */

#include "foundation/profile.hpp"
#include "runtime/phonebook.hpp"
#include "runtime/plugin.hpp"
#include "runtime/pool_executor.hpp"
#include "runtime/sim_scheduler.hpp"
#include "runtime/switchboard.hpp"
#include "trace/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
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

TEST(SwitchboardTest, PeekIsNotACausalInput)
{
    // latest() makes the read event a parent of what the invocation
    // publishes; peek() (control settings) does not.
    Switchboard sb;
    auto cmd = sb.writer<IntEvent>("cmd");
    cmd.put(makeEvent<IntEvent>());
    auto cmd_reader = sb.asyncReader<IntEvent>("cmd");
    auto out = sb.writer<IntEvent>("out");
    auto out_reader = sb.reader<IntEvent>("out");

    TraceContext::beginInvocation(1, 0);
    ASSERT_NE(cmd_reader.peek(), nullptr);
    out.put(makeEvent<IntEvent>());
    TraceContext::endInvocation();
    auto peeked = out_reader.pop();
    ASSERT_NE(peeked, nullptr);
    EXPECT_TRUE(peeked->parents.empty());

    TraceContext::beginInvocation(2, 0);
    ASSERT_NE(cmd_reader.latest(), nullptr);
    out.put(makeEvent<IntEvent>());
    TraceContext::endInvocation();
    auto read = out_reader.pop();
    ASSERT_NE(read, nullptr);
    ASSERT_EQ(read->parents.size(), 1u);
    EXPECT_EQ(read->parents[0].key(), cmd.lastId().key());
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

TEST(SimSchedulerTest, MeasuredCostIgnoresBlockedTime)
{
    // A plugin that sleeps 20 ms per call does almost no work: a cost
    // read off the wall clock would charge the 20 ms, the work clock
    // charges only the CPU the call used.
    class SleepPlugin : public Plugin
    {
      public:
        SleepPlugin() : Plugin("sleep") {}
        void iterate(TimePoint) override
        {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        Duration period() const override { return 100 * kMillisecond; }
    };
    SleepPlugin sleeper;
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.addPlugin(&sleeper);
    sched.run(500 * kMillisecond);
    const TaskStats &stats = sched.stats("sleep");
    EXPECT_GE(stats.invocations, 5u);
    EXPECT_LT(stats.exec_ms.max(), 2.0);
    EXPECT_EQ(stats.skips, 0u);
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

TEST(SimSchedulerTest, NonSkipPluginNeverOverlapsItself)
{
    // 3 ms of work every 2 ms, and the plugin may not skip: each
    // arrival that finds it busy waits for the completion, and the
    // backlog stops growing at kMaxCatchupPeriods.
    BurnPlugin imu("imu", 2 * kMillisecond, 3000.0, ExecUnit::Cpu,
                   /*skip=*/false);
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.addPlugin(&imu);
    const Duration run = 200 * kMillisecond;
    sched.run(run);
    const TaskStats &stats = sched.stats("imu");
    ASSERT_GT(stats.records.size(), 10u);
    for (std::size_t i = 1; i < stats.records.size(); ++i)
        EXPECT_GE(stats.records[i].start, stats.records[i - 1].completion)
            << "invocation " << i << " overlaps its predecessor";
    // Every arrival at t = 0, 2, ..., 200 ms ran, was dropped over the
    // cap, or still waits in the (at most cap - 1 deep) backlog.
    const std::size_t arrivals = run / (2 * kMillisecond) + 1;
    EXPECT_GT(stats.skips, 0u);
    EXPECT_LE(stats.invocations + stats.skips, arrivals);
    EXPECT_GE(stats.invocations + stats.skips + kMaxCatchupPeriods - 1,
              arrivals);
}

/** Records of every task of a seeded run, in registration order. */
std::vector<InvocationRecord>
allRecords(const SimScheduler &sched)
{
    std::vector<InvocationRecord> records;
    for (const std::string &name : sched.taskNames()) {
        const TaskStats &stats = sched.stats(name);
        records.insert(records.end(), stats.records.begin(),
                       stats.records.end());
    }
    return records;
}

TEST(SimSchedulerTest, DeterministicModeIsReproducible)
{
    // Two runs, same seed: identical invocation records on the
    // virtual timeline (costs are modeled, not measured).
    auto once = [](std::uint64_t seed) {
        BurnPlugin cam("camera", 10 * kMillisecond, 0.0);
        BurnPlugin app("application", 8 * kMillisecond, 0.0,
                       ExecUnit::GpuGraphics);
        BurnPlugin aud("audio_encoding", 20 * kMillisecond, 0.0);
        SimScheduler sched(PlatformModel::get(PlatformId::Desktop), seed);
        sched.addPlugin(&cam);
        sched.addPlugin(&app);
        sched.addPlugin(&aud);
        sched.run(500 * kMillisecond);
        return allRecords(sched);
    };
    const auto a = once(7);
    const auto b = once(7);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].virtual_duration, b[i].virtual_duration);
        EXPECT_EQ(a[i].completion, b[i].completion);
    }
    // A different seed draws different modeled costs.
    const auto c = once(8);
    ASSERT_EQ(a.size(), c.size());
    bool any_differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_differs |= a[i].virtual_duration != c[i].virtual_duration;
    EXPECT_TRUE(any_differs);
}

TEST(SimSchedulerTest, DeterministicTimelineIsVirtual)
{
    SimScheduler seeded(PlatformModel::get(PlatformId::Desktop), 1);
    EXPECT_STREQ(seeded.timeline(), "virtual");
    PoolExecutor live_pool;
    EXPECT_STREQ(live_pool.timeline(), "wall");
}

/** Burns a host-random 0-3 ms per call (differs run to run). */
class RandomBurnPlugin : public Plugin
{
  public:
    RandomBurnPlugin(std::string name, Duration period, ExecUnit unit)
        : Plugin(std::move(name)), period_(period), unit_(unit)
    {
    }

    void
    iterate(TimePoint) override
    {
        const double burn_s =
            std::uniform_real_distribution<double>(0.0, 3e-3)(host_);
        const double start = hostTimeSeconds();
        while (hostTimeSeconds() - start < burn_s) {
        }
    }

    Duration period() const override { return period_; }
    ExecUnit execUnit() const override { return unit_; }

  private:
    Duration period_;
    ExecUnit unit_;
    std::random_device host_;
};

TEST(SimSchedulerTest, SeededTimelineIgnoresHostTime)
{
    // Host cost varies freely between the two runs; with a seed none
    // of it may reach the timeline — not the costs, and not the
    // late-latched reprojection arrivals (whose budget is an EMA of
    // past costs).
    auto once = [] {
        RandomBurnPlugin app("application", 16 * kMillisecond,
                             ExecUnit::GpuGraphics);
        RandomBurnPlugin warp("timewarp", 0, ExecUnit::GpuGraphics);
        RandomBurnPlugin imu("imu", 5 * kMillisecond, ExecUnit::Cpu);
        SimScheduler sched(PlatformModel::get(PlatformId::Desktop), 3);
        sched.addPlugin(&app);
        sched.addVsyncAlignedPlugin(&warp, periodFromHz(120.0));
        sched.addPlugin(&imu);
        sched.run(250 * kMillisecond);
        return allRecords(sched);
    };
    const auto a = once();
    const auto b = once();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 60u);
    bool host_differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].virtual_duration, b[i].virtual_duration);
        EXPECT_EQ(a[i].completion, b[i].completion);
        EXPECT_EQ(a[i].target_vsync, b[i].target_vsync);
        host_differs |= a[i].host_seconds != b[i].host_seconds;
    }
    EXPECT_TRUE(host_differs);
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

} // namespace
} // namespace illixr
