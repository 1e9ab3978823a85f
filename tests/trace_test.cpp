/**
 * @file
 * Tests for the causal frame-lineage tracing subsystem: TraceId
 * identity, TraceContext propagation through the switchboard, the
 * TraceSink ancestry queries, both exporters (chrome://tracing JSON
 * and the per-frame lineage CSV), the lineage-derived MTP, and the
 * metrics registry.
 */

#include "foundation/profile.hpp"
#include "foundation/rng.hpp"
#include "foundation/stats.hpp"
#include "metrics/mtp.hpp"
#include "runtime/sim_scheduler.hpp"
#include "runtime/switchboard.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace illixr {
namespace {

struct IntEvent : Event
{
    int value = 0;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos; pos = haystack.find(needle, pos + 1))
        ++n;
    return n;
}

TEST(TraceIdTest, ValidityAndIdentity)
{
    TraceId none;
    EXPECT_FALSE(none.valid());
    TraceId a{1, 7};
    TraceId b{1, 7};
    TraceId c{2, 7};
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a == c);
    EXPECT_NE(std::hash<TraceId>{}(a), std::hash<TraceId>{}(c));
}

TEST(TraceContextTest, InactiveOutsideInvocation)
{
    EXPECT_FALSE(TraceContext::active());
    EXPECT_EQ(TraceContext::currentSpan(), 0u);
    // Consumption notes outside a scope are dropped, not crashed on.
    TraceContext::noteConsumed(TraceId{1, 1});
    TraceContext::beginInvocation(42, 5);
    EXPECT_TRUE(TraceContext::active());
    EXPECT_EQ(TraceContext::currentSpan(), 42u);
    EXPECT_EQ(TraceContext::now(), 5);
    EXPECT_TRUE(TraceContext::consumed().empty());
    TraceContext::endInvocation();
    EXPECT_FALSE(TraceContext::active());
}

TEST(TraceContextTest, ConsumedSetDeduplicates)
{
    TraceContext::beginInvocation(1, 0);
    TraceContext::noteConsumed(TraceId{1, 1});
    TraceContext::noteConsumed(TraceId{1, 1});
    TraceContext::noteConsumed(TraceId{2, 1});
    EXPECT_EQ(TraceContext::consumed().size(), 2u);
    TraceContext::endInvocation();
}

TEST(SwitchboardTraceTest, PublishStampsMonotonicIds)
{
    Switchboard sb;
    auto writer = sb.writer<IntEvent>("t");
    EXPECT_FALSE(writer.lastId().valid());
    for (int i = 0; i < 3; ++i)
        writer.put(makeEvent<IntEvent>());
    const TraceId last = writer.lastId();
    EXPECT_TRUE(last.valid());
    EXPECT_EQ(last.sequence, 3u);
    EXPECT_EQ(last.source, sb.topicIndex("t"));
}

TEST(SwitchboardTraceTest, ParentsInheritedFromConsumption)
{
    Switchboard sb;
    auto sink = std::make_shared<TraceSink>();
    sb.setTraceSink(sink);

    auto in = sb.writer<IntEvent>("in");
    auto out = sb.writer<IntEvent>("out");
    auto reader = sb.reader<IntEvent>("in");

    in.put(makeEvent<IntEvent>());

    TraceContext::beginInvocation(sink->nextSpanId(), 10);
    ASSERT_NE(reader.pop(), nullptr);
    out.put(makeEvent<IntEvent>());
    TraceContext::endInvocation();

    const EventRecord *rec = sink->find(out.lastId());
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->parents.size(), 1u);
    EXPECT_EQ(rec->parents[0], in.lastId());
    EXPECT_EQ(rec->publish_time, 10);
}

TEST(SwitchboardTraceTest, ExplicitParentsAreRespected)
{
    Switchboard sb;
    auto sink = std::make_shared<TraceSink>();
    sb.setTraceSink(sink);

    auto in = sb.writer<IntEvent>("in");
    auto out = sb.writer<IntEvent>("out");
    auto reader = sb.asyncReader<IntEvent>("in");

    in.put(makeEvent<IntEvent>());
    in.put(makeEvent<IntEvent>());
    const TraceId first{sb.topicIndex("in"), 1};

    // The invocation reads the latest "in", but the event explicitly
    // pins its parent to the first one (deferred-release pattern).
    TraceContext::beginInvocation(sink->nextSpanId(), 0);
    ASSERT_NE(reader.latest(), nullptr);
    auto e = makeEvent<IntEvent>();
    e->parents = {first};
    out.put(std::move(e));
    TraceContext::endInvocation();

    const EventRecord *rec = sink->find(out.lastId());
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->parents.size(), 1u);
    EXPECT_EQ(rec->parents[0], first);
}

/**
 * Build the synthetic three-stage lineage used by the exporter and
 * MTP tests: sensor -> pose -> frame, two frames, with spans.
 */
class LineageFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sink = std::make_shared<TraceSink>();
        sb.setTraceSink(sink);
        sensor = sb.writer<IntEvent>("sensor");
        pose = sb.writer<IntEvent>("pose");
        frame = sb.writer<IntEvent>("frame");
        sensorReader = sb.reader<IntEvent>("sensor");
        poseReader = sb.asyncReader<IntEvent>("pose");

        for (int f = 0; f < 2; ++f) {
            // Sensor fires twice per frame, outside any invocation.
            for (int s = 0; s < 2; ++s) {
                auto e = makeEvent<IntEvent>();
                e->time = (4 * f + s) * kMillisecond;
                sensor.put(std::move(e));
            }
            // Pose stage consumes both sensor events.
            runStage("pose_stage", (4 * f + 2) * kMillisecond, [this, f] {
                while (sensorReader.pop())
                    ;
                auto e = makeEvent<IntEvent>();
                e->time = (4 * f + 2) * kMillisecond;
                pose.put(std::move(e));
            });
            // Frame stage consumes the latest pose.
            runStage("frame_stage", (4 * f + 3) * kMillisecond, [this, f] {
                (void)poseReader.latest();
                auto e = makeEvent<IntEvent>();
                e->time = (4 * f + 3) * kMillisecond;
                frame.put(std::move(e));
            });
        }
    }

    template <typename Fn>
    void
    runStage(const char *task, TimePoint at, Fn &&body)
    {
        const std::uint64_t id = sink->nextSpanId();
        TraceContext::beginInvocation(id, at);
        body();
        TraceContext::endInvocation();
        Span span;
        span.task = task;
        span.arrival = at;
        span.start = at;
        span.completion = at + kMillisecond / 2;
        span.id = id;
        sink->recordSpan(std::move(span));
    }

    Switchboard sb;
    std::shared_ptr<TraceSink> sink;
    Switchboard::Writer<IntEvent> sensor, pose, frame;
    Switchboard::Reader<IntEvent> sensorReader;
    Switchboard::AsyncReader<IntEvent> poseReader;
};

TEST_F(LineageFixture, AncestryQueriesResolveTransitively)
{
    const TraceId f2 = frame.lastId();
    const auto anc = sink->ancestors(f2);
    // Frame 2's ancestry: pose 2 + sensors 3,4 (stage 2 drained only
    // the two new sensor events).
    EXPECT_EQ(anc.size(), 3u);
    const auto rows = sink->frameLineage("frame", {"sensor", "nope"});
    ASSERT_EQ(rows.size(), 2u);
    const FrameLineageRow &row = rows[1];
    EXPECT_EQ(row.frame, f2);
    ASSERT_TRUE(row.stages[0].present);
    EXPECT_EQ(row.stages[0].first.sequence, 3u);
    EXPECT_EQ(row.stages[0].last.sequence, 4u);
    EXPECT_FALSE(row.stages[1].present);

    const Span *producer = sink->producingSpan(f2);
    ASSERT_NE(producer, nullptr);
    EXPECT_EQ(producer->task, "frame_stage");
    EXPECT_EQ(row.completion, producer->completion);
}

TEST_F(LineageFixture, FrameLineageRowsPerFrame)
{
    const auto rows = sink->frameLineage("frame", {"sensor", "pose"});
    ASSERT_EQ(rows.size(), 2u);
    for (const auto &row : rows) {
        ASSERT_EQ(row.stages.size(), 2u);
        EXPECT_TRUE(row.stages[0].present);
        EXPECT_TRUE(row.stages[1].present);
    }
    // Frame 1 descends from sensors 1-2, frame 2 from sensors 3-4.
    EXPECT_EQ(rows[0].stages[0].first.sequence, 1u);
    EXPECT_EQ(rows[0].stages[0].last.sequence, 2u);
    EXPECT_EQ(rows[1].stages[0].first.sequence, 3u);
    EXPECT_EQ(rows[1].stages[0].last.sequence, 4u);
}

TEST_F(LineageFixture, ChromeTraceRoundTripsLineage)
{
    const std::string path = ::testing::TempDir() + "trace_test.json";
    ASSERT_TRUE(sink->writeChromeTrace(path));
    const std::string json = slurp(path);
    std::remove(path.c_str());

    // Structure: one complete event per span, named by task.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), sink->spanCount());
    EXPECT_GE(countOccurrences(json, "\"pose_stage\""), 2u);
    EXPECT_GE(countOccurrences(json, "\"frame_stage\""), 2u);

    // Lineage: every published event appears with its trace id, and
    // each parent edge round-trips as one flow start/finish pair.
    EXPECT_EQ(countOccurrences(json, "\"trace_id\":\"frame#2\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"trace_id\":\"sensor#4\""), 1u);
    std::size_t edges = 0;
    for (const EventRecord *rec : sink->eventsOnTopic("pose"))
        edges += rec->parents.size();
    for (const EventRecord *rec : sink->eventsOnTopic("frame"))
        edges += rec->parents.size();
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"s\""), edges);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"f\""), edges);

    // Balanced braces: cheap well-formedness check.
    EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));
}

TEST_F(LineageFixture, LineageCsvHasOneRowPerFrame)
{
    const std::string path = ::testing::TempDir() + "lineage_test.csv";
    ASSERT_TRUE(sink->writeLineageCsv(path, "frame", {"sensor", "pose"}));
    const std::string csv = slurp(path);
    std::remove(path.c_str());

    std::size_t lines = countOccurrences(csv, "\n");
    EXPECT_EQ(lines, 3u); // Header + two frames.
    EXPECT_NE(csv.find("sensor_first_seq"), std::string::npos);
    EXPECT_NE(csv.find("pose_to_frame_ms"), std::string::npos);
}

TEST_F(LineageFixture, LineageMtpResolvesFrames)
{
    const LineageMtp mtp =
        computeLineageMtp(*sink, periodFromHz(120.0), "frame",
                          {"sensor", "pose"});
    EXPECT_EQ(mtp.frames, 2u);
    EXPECT_EQ(mtp.resolved, 2u);
    EXPECT_EQ(mtp.mtp.latency_ms.count(), 2u);
    EXPECT_GT(mtp.stage_to_photon_ms.at("sensor").mean(), 0.0);
    // Reprojection segment comes from the producing span.
    EXPECT_NEAR(mtp.mtp.reprojection_ms.mean(), 0.5, 1e-9);
}

TEST(SimSchedulerTraceTest, OverrunsBecomeSkipRecords)
{
    class Burn : public Plugin
    {
      public:
        Burn() : Plugin("burn") {}
        void
        iterate(TimePoint) override
        {
            const double start = hostTimeSeconds();
            double acc = 0.0;
            while ((hostTimeSeconds() - start) * 1e6 < 2000.0)
                acc += 1.0;
            sink_ = acc;
        }
        Duration period() const override { return 5 * kMillisecond; }

      private:
        double sink_ = 0.0;
    };
    // 2 ms of work -> 11.2 ms virtual on Jetson-LP vs a 5 ms period:
    // the scheduler must drop arrivals, each as a SkipRecord.
    Burn plugin;
    auto sink = std::make_shared<TraceSink>();
    SimScheduler sched(PlatformModel::get(PlatformId::JetsonLP));
    sched.setTraceSink(sink);
    sched.addPlugin(&plugin);
    sched.run(kSecond);
    const TaskStats &stats = sched.stats("burn");
    EXPECT_GT(stats.skips, 0u);
    ASSERT_EQ(sink->skips().size(), stats.skips);
    for (const SkipRecord &skip : sink->skips()) {
        EXPECT_EQ(skip.task, "burn");
        EXPECT_EQ(skip.cause, SkipCause::Overrun);
    }
}

TEST(SimSchedulerTraceTest, SpansRecordedPerInvocation)
{
    class Spin : public Plugin
    {
      public:
        Spin() : Plugin("spin") {}
        void iterate(TimePoint) override {}
        Duration period() const override { return 10 * kMillisecond; }
    };
    Spin plugin;
    auto sink = std::make_shared<TraceSink>();
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop));
    sched.setTraceSink(sink);
    sched.addPlugin(&plugin);
    sched.run(kSecond);
    EXPECT_EQ(sink->spanCount(), sched.stats("spin").invocations);
    for (const Span &span : sink->spans()) {
        EXPECT_EQ(span.task, "spin");
        EXPECT_LE(span.arrival, span.start);
        EXPECT_LT(span.start, span.completion);
        EXPECT_GT(span.id, 0u);
    }
}

TEST(MetricsRegistryTest, CountersAndGauges)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("hits");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(&reg.counter("hits"), &c); // Interned, stable.
    EXPECT_TRUE(reg.hasCounter("hits"));
    EXPECT_FALSE(reg.hasCounter("misses"));

    reg.gauge("level").set(0.75);
    EXPECT_DOUBLE_EQ(reg.gauge("level").value(), 0.75);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistryTest, HistogramMergesConcurrentObservers)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("lat");
    constexpr int kThreads = 8;
    constexpr int kEach = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h] {
            for (int i = 0; i < kEach; ++i)
                h.observe(static_cast<double>(i % 100));
        });
    }
    for (auto &t : threads)
        t.join();
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, static_cast<std::size_t>(kThreads * kEach));
    EXPECT_NEAR(snap.mean, 49.5, 1e-9);
    EXPECT_EQ(snap.min, 0.0);
    EXPECT_EQ(snap.max, 99.0);
}

// Log-bucketed quantiles must stay within the documented relative
// error of exact sorted-sample percentiles across several decades of
// dynamic range (the p99/p99.9 resolution the tail harness gates on).
TEST(MetricsRegistryTest, HistogramQuantileAccuracy)
{
    Histogram h;
    SampleSeries exact;
    Rng rng(1234);
    for (int i = 0; i < 20000; ++i) {
        // Heavy-tailed latency-like mix: ~[0.05, 5000) "ms".
        const double u = rng.uniform(0.0, 1.0);
        const double x = 0.05 * std::pow(10.0, 5.0 * u);
        h.observe(x);
        exact.add(x);
    }
    for (const double q : {0.50, 0.90, 0.99, 0.999, 0.9999}) {
        const double want = exact.percentile(q * 100.0);
        const double got = h.quantile(q);
        ASSERT_GT(want, 0.0);
        EXPECT_NEAR(got / want, 1.0,
                    Histogram::kMaxRelativeQuantileError)
            << "q=" << q << " want=" << want << " got=" << got;
    }
    // Extremes are exact, not bucketed.
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.min, exact.min());
    EXPECT_DOUBLE_EQ(snap.max, exact.max());
    EXPECT_NEAR(snap.mean, exact.mean(), 1e-9 * exact.mean());
}

TEST(MetricsRegistryTest, HistogramNonPositiveAndReset)
{
    Histogram h;
    h.observe(-3.0);
    h.observe(0.0);
    h.observe(8.0);
    EXPECT_EQ(h.count(), 3u);
    HistogramSnapshot snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.min, -3.0);
    EXPECT_DOUBLE_EQ(snap.max, 8.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), -3.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(snap.p999, 0.0);
}

TEST(MetricsRegistryTest, SnapshotRowsAndCsv)
{
    MetricsRegistry reg;
    reg.counter("a.count").add(3);
    reg.gauge("b.level").set(1.5);
    reg.histogram("c.ms").observe(2.0);
    reg.histogram("c.ms").observe(4.0);

    const auto rows = reg.snapshotRows();
    ASSERT_EQ(rows.size(), 3u);

    const std::string path = ::testing::TempDir() + "metrics_test.csv";
    ASSERT_TRUE(reg.writeCsv(path));
    const std::string csv = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(csv.find("a.count,counter,3"), std::string::npos);
    EXPECT_NE(csv.find("c.ms,histogram,2"), std::string::npos);
}

} // namespace
} // namespace illixr
