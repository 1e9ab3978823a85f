/**
 * @file
 * PoolExecutor tests: lifecycle, priority-lane ordering, rate-limit
 * adherence, worker/lane metrics, and a multi-worker stress run
 * across all three pipelines (built to stay clean under
 * ThreadSanitizer; the CI TSan leg runs it).
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

/** Periodic consumer: drains a topic's SyncReader on every call. */
class ConsumerPlugin : public Plugin
{
  public:
    ConsumerPlugin(std::string name, Duration period, Switchboard *sb,
                   const std::string &topic)
        : Plugin(std::move(name)), period_(period),
          reader_(sb->reader<IntEvent>(topic))
    {
    }

    void
    iterate(TimePoint) override
    {
        while (auto e = reader_.pop())
            consumed.fetch_add(1);
        invocations.fetch_add(1);
    }

    Duration period() const override { return period_; }

    std::atomic<int> consumed{0};
    std::atomic<int> invocations{0};

  private:
    Duration period_;
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
    EXPECT_STREQ(pool.timeline(), "wall");
}

TEST(PoolExecutorTest, StartStopIdempotentAndPrompt)
{
    CountPlugin slow("slow", 10 * kSecond); // Parks workers mid-period.
    CountPlugin busy("busy", kMillisecond);
    PoolExecutorConfig cfg;
    cfg.workers = 2;
    PoolExecutor pool(cfg);
    pool.addPlugin(&slow, PipelineLane::Visual);
    pool.addPlugin(&busy, PipelineLane::Visual);
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
    // Stopped means stopped: counters do not advance afterwards.
    const std::size_t after = pool.stats("busy").invocations;
    EXPECT_GE(after, 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(pool.stats("busy").invocations, after);
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

TEST(PoolExecutorTest, ExportsWorkerAndLaneMetrics)
{
    MetricsRegistry metrics;
    CountPlugin cam("camera", 10 * kMillisecond);
    PoolExecutorConfig cfg;
    cfg.workers = 2;
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
    // The TSan target: producers and periodic consumers on all three
    // pipelines under a 4-worker pool, live, ~250 ms. Each consumer
    // drains its SyncReader while the producer publishes.
    Switchboard sb;
    ProducerPlugin cam("camera", 5 * kMillisecond, &sb, "frames");
    ProducerPlugin imu("imu", 2 * kMillisecond, &sb, "imu");
    ConsumerPlugin vio("vio", 3 * kMillisecond, &sb, "frames");
    ProducerPlugin app("application", 8 * kMillisecond, &sb, "eyes");
    ConsumerPlugin warp("timewarp", 4 * kMillisecond, &sb, "eyes");
    ProducerPlugin enc("audio_encoding", 10 * kMillisecond, &sb,
                       "audio");
    ConsumerPlugin play("audio_playback", 6 * kMillisecond, &sb, "audio");

    PoolExecutorConfig cfg;
    cfg.workers = 4;
    PoolExecutor pool(cfg);
    pool.addPlugin(&cam);
    pool.addPlugin(&imu);
    pool.addPlugin(&vio);
    pool.addPlugin(&app);
    pool.addPlugin(&warp);
    pool.addPlugin(&enc);
    pool.addPlugin(&play);
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
