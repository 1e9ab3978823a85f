#include "trace/trace.hpp"

#include "trace/tail_monitor.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_set>

namespace illixr {

const char *
skipCauseName(SkipCause cause)
{
    switch (cause) {
    case SkipCause::Overrun:
        return "overrun";
    case SkipCause::QueueDrop:
        return "queue_drop";
    case SkipCause::InjectedDrop:
        return "injected_drop";
    }
    return "unknown";
}

// ------------------------------------------------------------ TraceContext

namespace {

struct ContextState
{
    bool active = false;
    std::uint64_t span = 0;
    TimePoint now = 0;
    std::vector<TraceId> consumed;
};

ContextState &
contextState()
{
    static thread_local ContextState state;
    return state;
}

} // namespace

void
TraceContext::beginInvocation(std::uint64_t span_id, TimePoint now)
{
    ContextState &s = contextState();
    s.active = true;
    s.span = span_id;
    s.now = now;
    s.consumed.clear();
}

void
TraceContext::endInvocation()
{
    ContextState &s = contextState();
    s.active = false;
    s.span = 0;
    s.now = 0;
    s.consumed.clear();
}

bool
TraceContext::active()
{
    return contextState().active;
}

void
TraceContext::noteConsumed(const TraceId &id)
{
    ContextState &s = contextState();
    if (!s.active || !id.valid())
        return;
    if (std::find(s.consumed.begin(), s.consumed.end(), id) ==
        s.consumed.end())
        s.consumed.push_back(id);
}

std::uint64_t
TraceContext::currentSpan()
{
    return contextState().span;
}

TimePoint
TraceContext::now()
{
    return contextState().now;
}

const std::vector<TraceId> &
TraceContext::consumed()
{
    return contextState().consumed;
}

// --------------------------------------------------------------- TraceSink

std::uint64_t
TraceSink::nextSpanId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_span_++;
}

void
TraceSink::recordSpan(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    span_index_[span.id] = span_base_ + spans_.size();
    spans_.push_back(span);
    if (max_spans_) {
        while (spans_.size() > max_spans_) {
            span_index_.erase(spans_.front().id);
            spans_.pop_front();
            ++span_base_;
        }
    }
    if (monitor_)
        monitor_->onSpan(span);
}

void
TraceSink::recordSkip(const std::string &task, TimePoint time,
                      SkipCause cause)
{
    std::lock_guard<std::mutex> lock(mutex_);
    skips_.push_back(SkipRecord{task, time, cause});
    if (max_skips_) {
        while (skips_.size() > max_skips_)
            skips_.pop_front();
    }
    // Keep the per-task classification window bounded regardless of
    // the skip-record retention setting.
    std::deque<TimePoint> &times = skip_times_[task];
    times.push_back(time);
    while (times.size() > 4096)
        times.pop_front();
    if (monitor_)
        monitor_->onSkip(skips_.back());
}

void
TraceSink::recordEvent(EventRecord record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    event_index_[record.id] = event_base_ + events_.size();
    events_.push_back(std::move(record));
    if (max_events_) {
        while (events_.size() > max_events_) {
            event_index_.erase(events_.front().id);
            events_.pop_front();
            ++event_base_;
        }
    }
    if (monitor_ && events_.back().topic == tail_frame_topic_)
        monitor_->onFrame(attributeFrameLocked(events_.back()));
}

void
TraceSink::setRetention(std::size_t max_spans, std::size_t max_events,
                        std::size_t max_skips)
{
    std::lock_guard<std::mutex> lock(mutex_);
    max_spans_ = max_spans;
    max_events_ = max_events;
    max_skips_ = max_skips;
}

void
TraceSink::setTailMonitor(TailMonitor *monitor, std::string frame_topic)
{
    std::lock_guard<std::mutex> lock(mutex_);
    monitor_ = monitor;
    tail_frame_topic_ = std::move(frame_topic);
}

std::size_t
TraceSink::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::size_t
TraceSink::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

const EventRecord *
TraceSink::findLocked(const TraceId &id) const
{
    auto it = event_index_.find(id);
    if (it == event_index_.end())
        return nullptr;
    return &events_[it->second - event_base_];
}

const Span *
TraceSink::spanForLocked(std::uint64_t span_id) const
{
    if (span_id == 0)
        return nullptr;
    auto it = span_index_.find(span_id);
    if (it == span_index_.end())
        return nullptr;
    return &spans_[it->second - span_base_];
}

bool
TraceSink::skipInWindowLocked(const std::string &task, TimePoint t0,
                              TimePoint t1) const
{
    auto it = skip_times_.find(task);
    if (it == skip_times_.end())
        return false;
    const std::deque<TimePoint> &times = it->second;
    auto lo = std::lower_bound(times.begin(), times.end(), t0 + 1);
    return lo != times.end() && *lo <= t1;
}

const EventRecord *
TraceSink::find(const TraceId &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findLocked(id);
}

const Span *
TraceSink::producingSpan(const TraceId &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const EventRecord *rec = findLocked(id);
    if (!rec || rec->span == 0)
        return nullptr;
    return spanForLocked(rec->span);
}

// ----------------------------------------------------------- attribution

/**
 * Walk the critical path backward from @p frame: at each hop pick the
 * latest-published parent (the input the consumer actually waited
 * for), accumulating span wait/exec and inter-span gaps. Gaps that
 * coincide with a recorded skip of the consuming task are classed as
 * drop-retry, others as transport; any capture-to-ingest residual not
 * covered by the walk is transport (data staleness before the first
 * enqueue). Component sums can overlap e2e when pipeline stages ran
 * concurrently — they decompose the *path*, and the dominant stage is
 * their argmax.
 */
TailBreakdown
TraceSink::attributeFrameLocked(const EventRecord &frame) const
{
    constexpr std::size_t kMaxHops = 64;
    TailBreakdown b;
    b.frame = frame.id;
    b.capture = frame.event_time;
    b.completion = frame.publish_time;
    if (const Span *fspan = spanForLocked(frame.span))
        b.completion = fspan->completion;

    const EventRecord *cur = &frame;
    for (std::size_t hop = 0; cur && hop < kMaxHops; ++hop) {
        const Span *s = spanForLocked(cur->span);
        if (s) {
            b.sched_ms += toMilliseconds(s->start - s->arrival);
            b.kernel_ms += toMilliseconds(s->completion - s->start);
            ++b.path_spans;
        }
        const EventRecord *best = nullptr;
        for (const TraceId &pid : cur->parents) {
            const EventRecord *p = findLocked(pid);
            if (!p)
                continue;
            if (!best || p->publish_time > best->publish_time ||
                (p->publish_time == best->publish_time &&
                 p->id.sequence > best->id.sequence))
                best = p;
        }
        if (!best) {
            b.capture = cur->event_time;
            break;
        }
        if (s && s->arrival > best->publish_time) {
            const double gap =
                toMilliseconds(s->arrival - best->publish_time);
            if (skipInWindowLocked(s->task, best->publish_time,
                                   s->arrival))
                b.retry_ms += gap;
            else
                b.transport_ms += gap;
        }
        b.capture = best->event_time;
        cur = best;
    }

    b.attributed = b.path_spans > 0;
    if (b.capture > b.completion)
        b.capture = b.completion;
    b.e2e_ms = toMilliseconds(b.completion - b.capture);
    const double covered =
        b.sched_ms + b.kernel_ms + b.transport_ms + b.retry_ms;
    if (b.e2e_ms > covered)
        b.transport_ms += b.e2e_ms - covered;
    return b;
}

TailBreakdown
TraceSink::attributeFrame(const TraceId &frame) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const EventRecord *rec = findLocked(frame);
    if (!rec)
        return TailBreakdown{};
    return attributeFrameLocked(*rec);
}

std::vector<const EventRecord *>
TraceSink::eventsOnTopic(const std::string &topic) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const EventRecord *> out;
    for (const EventRecord &rec : events_) {
        if (rec.topic == topic)
            out.push_back(&rec);
    }
    return out;
}

std::vector<const EventRecord *>
TraceSink::ancestors(const TraceId &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const EventRecord *> out;
    std::unordered_set<std::uint64_t> seen;
    std::deque<TraceId> frontier;
    frontier.push_back(id);
    seen.insert(id.key());
    while (!frontier.empty()) {
        const TraceId cur = frontier.front();
        frontier.pop_front();
        const EventRecord *rec = findLocked(cur);
        if (!rec)
            continue;
        if (!(cur == id))
            out.push_back(rec);
        for (const TraceId &parent : rec->parents) {
            if (seen.insert(parent.key()).second)
                frontier.push_back(parent);
        }
    }
    return out;
}

const EventRecord *
TraceSink::earliestAncestorOn(const TraceId &id,
                              const std::string &topic) const
{
    const EventRecord *best = nullptr;
    for (const EventRecord *rec : ancestors(id)) {
        if (rec->topic != topic)
            continue;
        if (!best || rec->id.sequence < best->id.sequence)
            best = rec;
    }
    return best;
}

const EventRecord *
TraceSink::latestAncestorOn(const TraceId &id,
                            const std::string &topic) const
{
    const EventRecord *best = nullptr;
    for (const EventRecord *rec : ancestors(id)) {
        if (rec->topic != topic)
            continue;
        if (!best || rec->id.sequence > best->id.sequence)
            best = rec;
    }
    return best;
}

std::vector<FrameLineageRow>
TraceSink::frameLineage(const std::string &frame_topic,
                        const std::vector<std::string> &stage_topics) const
{
    std::vector<FrameLineageRow> rows;
    for (const EventRecord *frame : eventsOnTopic(frame_topic)) {
        FrameLineageRow row;
        row.frame = frame->id;
        row.event_time = frame->event_time;
        row.completion = frame->event_time;
        if (const Span *span = producingSpan(frame->id))
            row.completion = span->completion;
        const auto closure = ancestors(frame->id);
        row.stages.resize(stage_topics.size());
        for (std::size_t s = 0; s < stage_topics.size(); ++s) {
            StageRef &ref = row.stages[s];
            for (const EventRecord *rec : closure) {
                if (rec->topic != stage_topics[s])
                    continue;
                if (!ref.present ||
                    rec->id.sequence < ref.first.sequence) {
                    ref.first = rec->id;
                    ref.first_time = rec->event_time;
                }
                if (!ref.present || rec->id.sequence > ref.last.sequence) {
                    ref.last = rec->id;
                    ref.last_time = rec->event_time;
                }
                ref.present = true;
            }
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

// ---------------------------------------------------------------- export

namespace {

/** JSON string escape (topic/task names are plain but be safe). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
idString(const TraceId &id, const std::string &topic)
{
    return topic + "#" + std::to_string(id.sequence);
}

} // namespace

bool
TraceSink::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    // Stable tid per task name, plus one tid per topic for event rows.
    std::unordered_map<std::string, int> tids;
    auto tidOf = [&tids](const std::string &name) {
        auto it = tids.find(name);
        if (it != tids.end())
            return it->second;
        const int tid = static_cast<int>(tids.size()) + 1;
        tids.emplace(name, tid);
        return tid;
    };

    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto sep = [&first, f]() {
        if (!first)
            std::fprintf(f, ",\n");
        first = false;
    };

    for (const Span &span : spans_) {
        sep();
        std::fprintf(
            f,
            "{\"name\":\"%s\",\"cat\":\"task\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
            "\"args\":{\"span\":%llu,\"arrival_us\":%.3f,"
            "\"host_ms\":%.6f,\"unit\":%d,\"worker\":%u}}",
            jsonEscape(span.task).c_str(),
            static_cast<double>(span.start) / 1e3,
            static_cast<double>(span.completion - span.start) / 1e3,
            tidOf(span.task),
            static_cast<unsigned long long>(span.id),
            static_cast<double>(span.arrival) / 1e3, span.host_seconds * 1e3,
            static_cast<int>(span.unit), span.worker);
    }

    for (const SkipRecord &skip : skips_) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"skip %s\",\"cat\":\"skip\",\"ph\":\"i\","
                     "\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"s\":\"t\","
                     "\"args\":{\"cause\":\"%s\"}}",
                     jsonEscape(skip.task).c_str(),
                     static_cast<double>(skip.time) / 1e3,
                     tidOf(skip.task), skipCauseName(skip.cause));
    }

    std::uint64_t flow = 0;
    for (const EventRecord &rec : events_) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\","
                     "\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"s\":\"t\","
                     "\"args\":{\"trace_id\":\"%s\",\"parents\":[",
                     jsonEscape(rec.topic).c_str(),
                     static_cast<double>(rec.publish_time) / 1e3,
                     tidOf("topic:" + rec.topic),
                     idString(rec.id, jsonEscape(rec.topic)).c_str());
        for (std::size_t i = 0; i < rec.parents.size(); ++i) {
            const EventRecord *parent = findLocked(rec.parents[i]);
            const std::string ptopic =
                parent ? parent->topic : std::string("unknown");
            std::fprintf(f, "%s\"%s\"", i ? "," : "",
                         idString(rec.parents[i], jsonEscape(ptopic))
                             .c_str());
        }
        std::fprintf(f, "]}}");

        // Flow arrows parent -> child so lineage is visible in the UI.
        for (const TraceId &pid : rec.parents) {
            const EventRecord *parent = findLocked(pid);
            if (!parent)
                continue;
            ++flow;
            sep();
            std::fprintf(f,
                         "{\"name\":\"lineage\",\"cat\":\"lineage\","
                         "\"ph\":\"s\",\"id\":%llu,\"ts\":%.3f,"
                         "\"pid\":1,\"tid\":%d}",
                         static_cast<unsigned long long>(flow),
                         static_cast<double>(parent->publish_time) / 1e3,
                         tidOf("topic:" + parent->topic));
            sep();
            std::fprintf(f,
                         "{\"name\":\"lineage\",\"cat\":\"lineage\","
                         "\"ph\":\"f\",\"bp\":\"e\",\"id\":%llu,"
                         "\"ts\":%.3f,\"pid\":1,\"tid\":%d}",
                         static_cast<unsigned long long>(flow),
                         static_cast<double>(rec.publish_time) / 1e3,
                         tidOf("topic:" + rec.topic));
        }
    }

    // Thread-name metadata so the viewer shows task/topic labels.
    for (const auto &[name, tid] : tids) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                     tid, jsonEscape(name).c_str());
    }

    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
}

bool
TraceSink::writeLineageCsv(const std::string &path,
                           const std::string &frame_topic,
                           const std::vector<std::string> &stage_topics) const
{
    const auto rows = frameLineage(frame_topic, stage_topics);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "frame_seq,frame_time_ns,frame_completion_ns");
    for (const std::string &topic : stage_topics) {
        std::fprintf(f,
                     ",%s_first_seq,%s_last_seq,%s_first_time_ns,"
                     "%s_to_frame_ms",
                     topic.c_str(), topic.c_str(), topic.c_str(),
                     topic.c_str());
    }
    std::fprintf(f, "\n");
    for (const FrameLineageRow &row : rows) {
        std::fprintf(f, "%llu,%lld,%lld",
                     static_cast<unsigned long long>(row.frame.sequence),
                     static_cast<long long>(row.event_time),
                     static_cast<long long>(row.completion));
        for (const StageRef &ref : row.stages) {
            if (ref.present) {
                std::fprintf(
                    f, ",%llu,%llu,%lld,%.6f",
                    static_cast<unsigned long long>(ref.first.sequence),
                    static_cast<unsigned long long>(ref.last.sequence),
                    static_cast<long long>(ref.first_time),
                    toMilliseconds(row.completion - ref.first_time));
            } else {
                std::fprintf(f, ",,,,");
            }
        }
        std::fprintf(f, "\n");
    }
    std::fclose(f);
    return true;
}

} // namespace illixr
