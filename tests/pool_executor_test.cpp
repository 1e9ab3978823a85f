/**
 * @file
 * PoolExecutor tests: lifecycle, priority-lane ordering, rate-limit
 * adherence, topic-driven wakeups, deterministic-mode reproducibility,
 * and a multi-worker stress run across all three pipelines (built to
 * stay clean under ThreadSanitizer; the CI TSan leg runs it).
 */

#include "foundation/profile.hpp"
#include "runtime/pool_executor.hpp"
#include "runtime/switchboard.hpp"
#include "trace/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace illixr {
namespace {

struct IntEvent : Event
{
    int value = 0;
};

/** Plugin that appends to a mutex-guarded journal on each call. */
class JournalPlugin : public Plugin
{
  public:
    JournalPlugin(std::string name, Duration period,
                  std::vector<std::string> *journal, std::mutex *mutex)
        : Plugin(std::move(name)), period_(period), journal_(journal),
          mutex_(mutex)
    {
    }

    void
    start(const Phonebook &) override
    {
        std::lock_guard<std::mutex> lock(*mutex_);
        journal_->push_back(name() + ":start");
    }

    void
    stop() override
    {
        std::lock_guard<std::mutex> lock(*mutex_);
        journal_->push_back(name() + ":stop");
    }

    void
    iterate(TimePoint) override
    {
        std::lock_guard<std::mutex> lock(*mutex_);
        journal_->push_back(name());
    }

    Duration period() const override { return period_; }

  private:
    Duration period_;
    std::vector<std::string> *journal_;
    std::mutex *mutex_;
};

/** Counting plugin (no shared state beyond an atomic). */
class CountPlugin : public Plugin
{
  public:
    CountPlugin(std::string name, Duration period)
        : Plugin(std::move(name)), period_(period)
    {
    }

    void iterate(TimePoint) override { count.fetch_add(1); }
    Duration period() const override { return period_; }

    std::atomic<int> count{0};

  private:
    Duration period_;
};

/** Publishes to a topic every iteration (stress producer). */
class ProducerPlugin : public Plugin
{
  public:
    ProducerPlugin(std::string name, Duration period, Switchboard *sb,
                   const std::string &topic)
        : Plugin(std::move(name)), period_(period),
          writer_(sb->writer<IntEvent>(topic))
    {
    }

    void
    iterate(TimePoint) override
    {
        auto e = makeEvent<IntEvent>();
        e->value = count.fetch_add(1);
        writer_.put(std::move(e));
    }

    Duration period() const override { return period_; }

    std::atomic<int> count{0};

  private:
    Duration period_;
    Switchboard::Writer<IntEvent> writer_;
};

/** Event-driven consumer (period <= 0), drains a topic reader. */
class ConsumerPlugin : public Plugin
{
  public:
    ConsumerPlugin(std::string name, Switchboard *sb,
                   const std::string &topic)
        : Plugin(std::move(name)), reader_(sb->reader<IntEvent>(topic))
    {
    }

    void
    iterate(TimePoint) override
    {
        while (auto e = reader_.pop())
            consumed.fetch_add(1);
        invocations.fetch_add(1);
    }

    Duration period() const override { return 0; }

    std::atomic<int> consumed{0};
    std::atomic<int> invocations{0};

  private:
    Switchboard::Reader<IntEvent> reader_;
};

TEST(PoolExecutorTest, LaneMappingFromTaskNames)
{
    EXPECT_EQ(laneForTask("camera"), PipelineLane::Perception);
    EXPECT_EQ(laneForTask("imu"), PipelineLane::Perception);
    EXPECT_EQ(laneForTask("vio"), PipelineLane::Perception);
    EXPECT_EQ(laneForTask("integrator"), PipelineLane::Perception);
    EXPECT_EQ(laneForTask("audio_encoding"), PipelineLane::Audio);
    EXPECT_EQ(laneForTask("audio_playback"), PipelineLane::Audio);
    EXPECT_EQ(laneForTask("application"), PipelineLane::Visual);
    EXPECT_EQ(laneForTask("timewarp"), PipelineLane::Visual);
}

TEST(PoolExecutorTest, LifecycleStartStopOrder)
{
    std::vector<std::string> journal;
    std::mutex mutex;
    JournalPlugin a("a", 50 * kMillisecond, &journal, &mutex);
    JournalPlugin b("b", 50 * kMillisecond, &journal, &mutex);
    PoolExecutorConfig cfg;
    cfg.workers = 2;
    PoolExecutor pool(cfg);
    pool.addPlugin(&a, PipelineLane::Perception);
    pool.addPlugin(&b, PipelineLane::Visual);
    pool.run(60 * kMillisecond);
    // start() in registration order before any iterate(); stop() in
    // reverse order after the last one.
    ASSERT_GE(journal.size(), 4u);
    EXPECT_EQ(journal[0], "a:start");
    EXPECT_EQ(journal[1], "b:start");
    EXPECT_EQ(journal[journal.size() - 2], "b:stop");
    EXPECT_EQ(journal.back(), "a:stop");
    EXPECT_FALSE(pool.running());
}

TEST(PoolExecutorTest, StartStopIdempotentAndPrompt)
{
    CountPlugin slow("slow", 10 * kSecond); // Parks workers mid-period.
    PoolExecutorConfig cfg;
    cfg.workers = 2;
    PoolExecutor pool(cfg);
    pool.addPlugin(&slow, PipelineLane::Visual);
    pool.start();
    pool.start(); // Second start is a no-op.
    EXPECT_TRUE(pool.running());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const auto t0 = std::chrono::steady_clock::now();
    pool.stop();
    pool.stop(); // Second stop is a no-op.
    const auto stop_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    // Workers were parked until t+10s; stop must not wait for that.
    EXPECT_LT(stop_ms, 2000);
    EXPECT_GE(slow.count.load(), 1); // The t=0 release ran.
}

TEST(PoolExecutorTest, PriorityLaneOrderingOnContention)
{
    // One worker, three plugins released simultaneously: dispatch
    // must follow the criticality order perception > visual > audio.
    std::vector<std::string> journal;
    std::mutex mutex;
    JournalPlugin audio("audio_playback", 100 * kMillisecond, &journal,
                        &mutex);
    JournalPlugin visual("timewarp", 100 * kMillisecond, &journal,
                         &mutex);
    JournalPlugin percep("imu", 100 * kMillisecond, &journal, &mutex);
    PoolExecutorConfig cfg;
    cfg.workers = 1;
    PoolExecutor pool(cfg);
    // Registration order is worst-case: lowest priority first.
    pool.addPlugin(&audio);
    pool.addPlugin(&visual);
    pool.addPlugin(&percep);
    pool.run(50 * kMillisecond);
    // Strip lifecycle markers, keep iterate entries.
    std::vector<std::string> order;
    for (const std::string &s : journal) {
        if (s.find(':') == std::string::npos)
            order.push_back(s);
    }
    ASSERT_GE(order.size(), 3u);
    EXPECT_EQ(order[0], "imu");
    EXPECT_EQ(order[1], "timewarp");
    EXPECT_EQ(order[2], "audio_playback");
}

TEST(PoolExecutorTest, DeterministicLaneOrderingAtEqualTime)
{
    // Same contention scenario on the virtual timeline: arrivals at
    // t=0 are dispatched in lane order regardless of registration.
    std::vector<std::string> journal;
    std::mutex mutex;
    JournalPlugin audio("audio_playback", 20 * kMillisecond, &journal,
                        &mutex);
    JournalPlugin visual("application", 20 * kMillisecond, &journal,
                         &mutex);
    JournalPlugin percep("camera", 20 * kMillisecond, &journal, &mutex);
    PoolExecutorConfig cfg;
    cfg.workers = 1;
    cfg.deterministic = true;
    PoolExecutor pool(cfg);
    pool.addPlugin(&audio);
    pool.addPlugin(&visual);
    pool.addPlugin(&percep);
    pool.run(30 * kMillisecond);
    std::vector<std::string> order;
    for (const std::string &s : journal) {
        if (s.find(':') == std::string::npos)
            order.push_back(s);
    }
    ASSERT_GE(order.size(), 3u);
    EXPECT_EQ(order[0], "camera");
    EXPECT_EQ(order[1], "application");
    EXPECT_EQ(order[2], "audio_playback");
}

TEST(PoolExecutorTest, RateLimitedPeriodicTask)
{
    // A 20 ms task over ~300 ms wall: at most one invocation per
    // period boundary, never a burst above the rate limit.
    CountPlugin task("task", 20 * kMillisecond);
    PoolExecutorConfig cfg;
    cfg.workers = 2;
    PoolExecutor pool(cfg);
    pool.addPlugin(&task, PipelineLane::Visual);
    pool.run(300 * kMillisecond);
    // 300 ms / 20 ms = 15 boundaries (+1 for t=0); generous floor for
    // a loaded CI host, hard ceiling for the rate limit.
    EXPECT_GE(task.count.load(), 5);
    EXPECT_LE(task.count.load(), 17);
    const TaskStats &stats = pool.stats("task");
    EXPECT_EQ(stats.invocations,
              static_cast<std::size_t>(task.count.load()));
}

TEST(PoolExecutorTest, TopicDrivenWakeupAndCoalescing)
{
    Switchboard sb;
    ConsumerPlugin consumer("consumer", &sb, "t");
    PoolExecutorConfig cfg;
    cfg.workers = 1;
    PoolExecutor pool(cfg);
    pool.addEventDrivenPlugin(&consumer, PipelineLane::Perception, sb,
                              "t");
    pool.start();
    // No publishes yet: the consumer must not run.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(consumer.invocations.load(), 0);
    // A burst of publishes wakes it; bursts may coalesce, so the
    // invocation count is in [1, 10] but every event is consumed.
    auto writer = sb.writer<IntEvent>("t");
    for (int i = 0; i < 10; ++i)
        writer.put(makeEvent<IntEvent>());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (consumer.consumed.load() < 10 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pool.stop();
    EXPECT_EQ(consumer.consumed.load(), 10);
    EXPECT_GE(consumer.invocations.load(), 1);
    EXPECT_LE(consumer.invocations.load(), 10);
}

TEST(PoolExecutorTest, DeterministicModeIsReproducible)
{
    // Two runs, same seed: identical invocation records on the
    // virtual timeline (times are modeled, not measured).
    auto once = [](std::uint64_t seed) {
        CountPlugin cam("camera", 10 * kMillisecond);
        CountPlugin app("application", 8 * kMillisecond);
        CountPlugin aud("audio_encoding", 20 * kMillisecond);
        PoolExecutorConfig cfg;
        cfg.workers = 2;
        cfg.deterministic = true;
        cfg.seed = seed;
        PoolExecutor pool(cfg);
        pool.addPlugin(&cam);
        pool.addPlugin(&app);
        pool.addPlugin(&aud);
        pool.run(500 * kMillisecond);
        std::vector<InvocationRecord> records;
        for (const std::string &name : pool.taskNames()) {
            const TaskStats &stats = pool.stats(name);
            records.insert(records.end(), stats.records.begin(),
                           stats.records.end());
        }
        return records;
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

TEST(PoolExecutorTest, DeterministicTimelineIsVirtual)
{
    PoolExecutorConfig det;
    det.deterministic = true;
    PoolExecutor sim_pool(det);
    EXPECT_STREQ(sim_pool.timeline(), "virtual");
    PoolExecutor live_pool;
    EXPECT_STREQ(live_pool.timeline(), "wall");
}

TEST(PoolExecutorTest, ExportsWorkerAndLaneMetrics)
{
    MetricsRegistry metrics;
    CountPlugin cam("camera", 10 * kMillisecond);
    PoolExecutorConfig cfg;
    cfg.workers = 2;
    cfg.deterministic = true;
    PoolExecutor pool(cfg);
    pool.setMetrics(&metrics);
    pool.addPlugin(&cam);
    pool.run(200 * kMillisecond);
    std::uint64_t worker_total = 0; // Worker ids are 1-based.
    worker_total += metrics.counter("pool.worker.1.invocations").value();
    worker_total += metrics.counter("pool.worker.2.invocations").value();
    EXPECT_EQ(worker_total,
              static_cast<std::uint64_t>(cam.count.load()));
    EXPECT_EQ(metrics.counter("task.camera.invocations").value(),
              worker_total);
}

TEST(PoolExecutorStressTest, FourWorkersThreePipelines)
{
    // The TSan target: producers and event-driven consumers on all
    // three pipelines under a 4-worker pool, live, ~250 ms.
    Switchboard sb;
    ProducerPlugin cam("camera", 5 * kMillisecond, &sb, "frames");
    ProducerPlugin imu("imu", 2 * kMillisecond, &sb, "imu");
    ConsumerPlugin vio("vio", &sb, "frames");
    ProducerPlugin app("application", 8 * kMillisecond, &sb, "eyes");
    ConsumerPlugin warp("timewarp", &sb, "eyes");
    ProducerPlugin enc("audio_encoding", 10 * kMillisecond, &sb,
                       "audio");
    ConsumerPlugin play("audio_playback", &sb, "audio");

    PoolExecutorConfig cfg;
    cfg.workers = 4;
    PoolExecutor pool(cfg);
    pool.addPlugin(&cam);
    pool.addPlugin(&imu);
    pool.addEventDrivenPlugin(&vio, PipelineLane::Perception, sb,
                              "frames");
    pool.addPlugin(&app);
    pool.addEventDrivenPlugin(&warp, PipelineLane::Visual, sb, "eyes");
    pool.addPlugin(&enc);
    pool.addEventDrivenPlugin(&play, PipelineLane::Audio, sb, "audio");
    pool.run(250 * kMillisecond);

    EXPECT_GT(cam.count.load(), 0);
    EXPECT_GT(imu.count.load(), 0);
    EXPECT_GT(app.count.load(), 0);
    EXPECT_GT(enc.count.load(), 0);
    // Consumers eventually drain what their producers publish; the
    // tail published around stop() may stay queued, so allow a lag
    // (generous on an oversubscribed CI host).
    EXPECT_GE(vio.consumed.load() + 8, cam.count.load());
    EXPECT_GE(warp.consumed.load() + 8, app.count.load());
    EXPECT_GE(play.consumed.load() + 8, enc.count.load());
    EXPECT_GE(pool.cpuUtilization(), 0.0);
    EXPECT_LE(pool.cpuUtilization(), 1.0);
}

} // namespace
} // namespace illixr
