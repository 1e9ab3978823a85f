/**
 * @file
 * Causal frame-lineage tracing.
 *
 * Three pieces cooperate to attribute end-to-end latency (the paper's
 * §III motion-to-photon characterization) to pipeline stages:
 *
 *  - TraceContext: a thread-local invocation scope opened by an
 *    executor around each Plugin::iterate(). Events read through the
 *    switchboard inside the scope are noted as *consumed*; events
 *    published inside it inherit those TraceIds as parent links (and
 *    are stamped with the producing span), so causality propagates
 *    without any per-plugin bookkeeping.
 *
 *  - TraceSink: the append-only store of per-invocation spans (task,
 *    exec unit, arrival/start/completion, skip causes) and published-
 *    event records (id, parents, producing span). Both SimScheduler
 *    (virtual timeline) and PoolExecutor (wall clock) feed it.
 *
 *  - Exporters: chrome://tracing JSON (spans as complete events, event
 *    edges as flow arrows) and a per-frame lineage CSV where every
 *    displayed frame resolves back to its source camera frame and IMU
 *    window.
 */

#pragma once

#include "foundation/time.hpp"
#include "perfmodel/platform.hpp"
#include "trace/trace_id.hpp"

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace illixr {

/** One executor invocation of one task. */
struct Span
{
    std::string task;
    ExecUnit unit = ExecUnit::Cpu;
    TimePoint arrival = 0;    ///< When the invocation became runnable.
    TimePoint start = 0;      ///< When it acquired its execution unit.
    TimePoint completion = 0; ///< When it released it.
    double host_seconds = 0.0;
    std::uint64_t id = 0;     ///< Sink-unique, 1-based.
    std::uint32_t worker = 0; ///< 1-based pool worker id (0 = none).
};

/** Why an arrival did not run. */
enum class SkipCause
{
    Overrun,      ///< Previous instance still running (frame drop).
    QueueDrop,    ///< Reader queue overflow dropped the event.
    InjectedDrop, ///< Publish dropped by an injected fault.
};

const char *skipCauseName(SkipCause cause);

/** One skipped/dropped arrival. */
struct SkipRecord
{
    std::string task;
    TimePoint time = 0;
    SkipCause cause = SkipCause::Overrun;
};

/** One event published on the switchboard. */
struct EventRecord
{
    TraceId id;
    std::vector<TraceId> parents;
    std::string topic;
    TimePoint event_time = 0;   ///< Event::time (capture/production).
    TimePoint publish_time = 0; ///< Timeline time of the publish.
    std::uint64_t span = 0;     ///< Producing span id (0 = outside one).
};

/**
 * Thread-local invocation scope. Executors open one around each
 * iterate(); the switchboard reads it on every access.
 */
class TraceContext
{
  public:
    /** Open a scope for span @p span_id at timeline time @p now. */
    static void beginInvocation(std::uint64_t span_id, TimePoint now);

    /** Close the scope (clears the consumed set). */
    static void endInvocation();

    /** True while inside an invocation scope on this thread. */
    static bool active();

    /** Note that the running invocation read event @p id. */
    static void noteConsumed(const TraceId &id);

    /** Span id of the running invocation (0 if none). */
    static std::uint64_t currentSpan();

    /** Timeline time the running invocation was dispatched at. */
    static TimePoint now();

    /** TraceIds consumed so far in the running invocation (deduped). */
    static const std::vector<TraceId> &consumed();
};

/** Lineage of one displayed frame back through the pipeline. */
struct StageRef
{
    bool present = false;
    TraceId first;          ///< Earliest ancestor on the stage topic.
    TraceId last;           ///< Latest ancestor on the stage topic.
    TimePoint first_time = 0; ///< Event time of `first`.
    TimePoint last_time = 0;  ///< Event time of `last`.
};

struct FrameLineageRow
{
    TraceId frame;              ///< The displayed frame's id.
    TimePoint event_time = 0;   ///< Its Event::time.
    TimePoint completion = 0;   ///< Producing span completion (or event
                                ///< time when no span was recorded).
    std::vector<StageRef> stages; ///< Parallel to the query's topics.
};

class TailMonitor;
struct TailBreakdown;

/**
 * Trace store. Thread-safe for recording; query and export after the
 * run. Append-only by default; setRetention() turns it into a ring
 * (bounded memory for 10^5+-frame runs) where old spans/events are
 * evicted FIFO — pair it with a TailMonitor, which *materializes*
 * outlier lineage at frame-publish time, before eviction can drop it.
 */
class TraceSink
{
  public:
    /** Reserve a span id before running the invocation. */
    std::uint64_t nextSpanId();

    void recordSpan(Span span);
    void recordSkip(const std::string &task, TimePoint time,
                    SkipCause cause);
    void recordEvent(EventRecord record);

    /**
     * Bound the store: keep at most the newest @p max_spans spans,
     * @p max_events events and @p max_skips skips (0 = unbounded).
     * Post-run whole-trace queries then only see the final window.
     */
    void setRetention(std::size_t max_spans, std::size_t max_events,
                      std::size_t max_skips);

    /**
     * Attach a tail monitor: spans/skips are forwarded as recorded,
     * and every event published on @p frame_topic is attributed
     * (critical-path walk) and delivered as a TailBreakdown. Attach
     * before the run; the monitor must outlive the sink's last
     * record call.
     */
    void setTailMonitor(TailMonitor *monitor, std::string frame_topic);

    // ---- queries (call after the run has quiesced) ----

    std::size_t spanCount() const;
    std::size_t eventCount() const;
    const std::deque<Span> &spans() const { return spans_; }
    const std::deque<SkipRecord> &skips() const { return skips_; }

    /** Critical-path latency decomposition of one frame event. */
    TailBreakdown attributeFrame(const TraceId &frame) const;

    /** The record of @p id, or nullptr if unknown. */
    const EventRecord *find(const TraceId &id) const;

    /** The span that produced @p id, or nullptr. */
    const Span *producingSpan(const TraceId &id) const;

    /** All events published on @p topic, in publish order. */
    std::vector<const EventRecord *>
    eventsOnTopic(const std::string &topic) const;

    /**
     * Transitive ancestor closure of @p id (excluding @p id itself),
     * in breadth-first order.
     */
    std::vector<const EventRecord *> ancestors(const TraceId &id) const;

    /**
     * Per-frame lineage of every event on @p frame_topic: for each,
     * the earliest/latest ancestor on each of @p stage_topics.
     */
    std::vector<FrameLineageRow>
    frameLineage(const std::string &frame_topic,
                 const std::vector<std::string> &stage_topics) const;

    /**
     * chrome://tracing JSON: spans as "X" complete events (one tid
     * per task, ts in microseconds), skips as instant events, and
     * parent->child event edges as flow arrows. Open via
     * chrome://tracing or https://ui.perfetto.dev.
     */
    bool writeChromeTrace(const std::string &path) const;

    /**
     * Per-frame latency-breakdown CSV: one row per event on
     * @p frame_topic with, for each stage topic, the first/last
     * ancestor sequence, its event time, and the latency from that
     * stage to the frame's completion (ms).
     */
    bool writeLineageCsv(const std::string &path,
                         const std::string &frame_topic,
                         const std::vector<std::string> &stage_topics) const;

  private:
    const EventRecord *findLocked(const TraceId &id) const;
    const Span *spanForLocked(std::uint64_t span_id) const;
    /** Any recorded skip of @p task with time in (t0, t1]? */
    bool skipInWindowLocked(const std::string &task, TimePoint t0,
                            TimePoint t1) const;
    TailBreakdown attributeFrameLocked(const EventRecord &frame) const;

    mutable std::mutex mutex_;
    std::deque<Span> spans_;
    std::deque<SkipRecord> skips_;
    std::deque<EventRecord> events_;
    // Index values are *absolute* record positions; subtract the base
    // (incremented on each FIFO eviction) to address the deque.
    std::unordered_map<TraceId, std::size_t> event_index_;
    std::unordered_map<std::uint64_t, std::size_t> span_index_;
    std::size_t span_base_ = 0;
    std::size_t event_base_ = 0;
    std::size_t max_spans_ = 0;  ///< 0 = unbounded.
    std::size_t max_events_ = 0; ///< 0 = unbounded.
    std::size_t max_skips_ = 0;  ///< 0 = unbounded.
    /** Per-task skip times, recording order (for gap classification). */
    std::unordered_map<std::string, std::deque<TimePoint>> skip_times_;
    TailMonitor *monitor_ = nullptr;
    std::string tail_frame_topic_;
    std::uint64_t next_span_ = 1;
};

} // namespace illixr
