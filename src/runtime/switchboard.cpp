#include "runtime/switchboard.hpp"

#include "trace/metrics_registry.hpp"

#include <algorithm>

namespace illixr {

// ---------------------------------------------------------------------------
// SyncReader: every field is guarded by the owning topic's mutex.
// ---------------------------------------------------------------------------

bool
SyncReader::push(const EventPtr &event)
{
    // Full: evict the oldest so the survivors are always the newest
    // `capacity_` events.
    const bool evict = queue_.size() >= capacity_;
    if (evict) {
        queue_.pop_front();
        ++dropped_;
    }
    queue_.push_back(event);
    return evict;
}

EventPtr
SyncReader::pop()
{
    EventPtr e;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return nullptr;
        e = std::move(queue_.front());
        queue_.pop_front();
    }
    // Reading an event inside an executor invocation marks it as a
    // causal input of whatever the invocation publishes.
    TraceContext::noteConsumed(e->trace);
    return e;
}

std::size_t
SyncReader::pending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

std::size_t
SyncReader::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

// ---------------------------------------------------------------------------
// Switchboard
// ---------------------------------------------------------------------------

Switchboard::TopicPtr
Switchboard::topicForUntyped(const std::string &topic)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TopicPtr &t = topics_[topic];
    if (!t) {
        t = std::make_shared<TopicState>();
        t->name = topic;
        by_index_.push_back(t);
        t->index = static_cast<std::uint32_t>(by_index_.size());
        t->sink = sink_;
        t->hook = hook_;
        wireTopicMetricsLocked(*t);
    }
    return t;
}

Switchboard::TopicPtr
Switchboard::topicFor(const std::string &topic, std::type_index type)
{
    TopicPtr t = topicForUntyped(topic);
    std::lock_guard<std::mutex> lock(t->mutex);
    if (t->type == std::type_index(typeid(void))) {
        t->type = type;
    } else if (t->type != type) {
        throw std::logic_error("switchboard: topic '" + topic +
                               "' already carries a different payload "
                               "type");
    }
    return t;
}

std::shared_ptr<SyncReader>
Switchboard::attachSyncReader(const TopicPtr &t, std::size_t capacity)
{
    // The topic's fan-out list holds a raw pointer; ownership lives in
    // the returned shared_ptr, whose deleter detaches the raw entry
    // under the topic mutex before deleting. publish therefore
    // iterates plain pointers — no per-reader weak_ptr lock, and the
    // detach serializes against any in-flight publish. The deleter's
    // copy of the topic keeps the mutex the reader locks alive.
    SyncReader *raw = new SyncReader(
        t->mutex, capacity == 0 ? kDefaultReaderCapacity : capacity);
    std::shared_ptr<SyncReader> reader(raw, [t](SyncReader *r) {
        {
            std::lock_guard<std::mutex> lock(t->mutex);
            auto &v = t->readers;
            v.erase(std::remove(v.begin(), v.end(), r), v.end());
        }
        delete r;
    });
    std::lock_guard<std::mutex> lock(t->mutex);
    t->readers.push_back(raw);
    return reader;
}

EventPtr
Switchboard::latestOf(const TopicState &t, bool traced)
{
    EventPtr e;
    {
        std::lock_guard<std::mutex> lock(t.mutex);
        e = t.latest;
    }
    if (e && traced)
        TraceContext::noteConsumed(e->trace);
    return e;
}

void
Switchboard::publishToTopic(const TopicPtr &t, EventPtr event)
{
    TraceId id;
    std::vector<TraceId> parents;
    std::shared_ptr<TraceSink> sink;
    std::vector<std::shared_ptr<PublishListener>> listeners;
    TimePoint event_time = 0;
    {
        std::lock_guard<std::mutex> lock(t->mutex);
        ++t->publish_attempts;
        if (t->hook) {
            // The event is still exclusively held: the hook may
            // corrupt it in place or veto the publish entirely.
            Event *mut = const_cast<Event *>(event.get());
            if (!(*t->hook)(t->name, t->publish_attempts, *mut)) {
                if (t->sink)
                    t->sink->recordSkip(t->name,
                                        TraceContext::active()
                                            ? TraceContext::now()
                                            : event->time,
                                        SkipCause::InjectedDrop);
                return;
            }
        }
        ++t->publish_count;
        id = TraceId{t->index, t->publish_count};

        // Stamp the (still exclusively held) event. Events are
        // immutable from the readers' perspective; the switchboard is
        // the single writer of the trace fields and does so before
        // any fan-out.
        Event *mut = const_cast<Event *>(event.get());
        mut->trace = id;
        if (mut->parents.empty() && TraceContext::active())
            mut->parents = TraceContext::consumed();
        sink = t->sink;
        if (sink)
            parents = mut->parents;
        if (t->m_publishes)
            t->m_publishes->add(1);

        // Fan out to the synchronous readers (detach-on-destroy keeps
        // every entry live; see attachSyncReader).
        for (SyncReader *reader : t->readers) {
            if (reader->push(event)) {
                if (t->m_drops)
                    t->m_drops->add(1);
                if (t->m_reader_dropped)
                    t->m_reader_dropped->add(1);
                if (sink)
                    sink->recordSkip(t->name, TraceContext::now(),
                                     SkipCause::QueueDrop);
            }
        }

        event_time = event->time;
        t->latest = std::move(event);

        // Snapshot live listeners; they run after the lock drops so a
        // listener may publish, subscribe, or wake a worker pool
        // without deadlocking against this topic.
        auto lit = t->listeners.begin();
        while (lit != t->listeners.end()) {
            if (auto listener = lit->lock()) {
                listeners.push_back(std::move(listener));
                ++lit;
            } else {
                lit = t->listeners.erase(lit);
            }
        }
    }

    if (sink) {
        EventRecord rec;
        rec.id = id;
        rec.parents = std::move(parents);
        rec.topic = t->name;
        rec.event_time = event_time;
        rec.publish_time =
            TraceContext::active() ? TraceContext::now() : event_time;
        rec.span = TraceContext::currentSpan();
        sink->recordEvent(std::move(rec));
    }

    for (const auto &listener : listeners) {
        // One throwing listener must not skip the rest or poison the
        // topic: contain, count, continue.
        try {
            (*listener)(t->name);
        } catch (...) {
            t->listener_exceptions.fetch_add(1,
                                             std::memory_order_relaxed);
        }
    }
}

PublishListenerHandle
Switchboard::onPublish(const std::string &topic, PublishListener listener)
{
    auto handle = std::make_shared<PublishListener>(std::move(listener));
    TopicPtr t = topicForUntyped(topic);
    std::lock_guard<std::mutex> lock(t->mutex);
    t->listeners.push_back(handle);
    return handle;
}

std::size_t
Switchboard::publishCount(const std::string &topic) const
{
    TopicPtr t;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = topics_.find(topic);
        if (it == topics_.end())
            return 0;
        t = it->second;
    }
    std::lock_guard<std::mutex> lock(t->mutex);
    return t->publish_count;
}

std::vector<std::string>
Switchboard::topicNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(topics_.size());
    for (const auto &[name, topic] : topics_)
        names.push_back(name);
    return names;
}

std::uint32_t
Switchboard::topicIndex(const std::string &topic) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = topics_.find(topic);
    if (it == topics_.end())
        return 0;
    return it->second->index;
}

void
Switchboard::setTraceSink(std::shared_ptr<TraceSink> sink)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sink_ = sink;
    for (auto &[name, topic] : topics_) {
        std::lock_guard<std::mutex> tlock(topic->mutex);
        topic->sink = sink;
    }
}

void
Switchboard::setMetrics(MetricsRegistry *metrics)
{
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_ = metrics;
    for (auto &[name, topic] : topics_) {
        std::lock_guard<std::mutex> tlock(topic->mutex);
        wireTopicMetricsLocked(*topic);
    }
}

void
Switchboard::wireTopicMetricsLocked(TopicState &t) const
{
    if (!metrics_) {
        // Detach: per-run registries die with the run; dangling
        // cached handles were PR 4's kernel-pool bug.
        t.m_publishes = nullptr;
        t.m_drops = nullptr;
        t.m_reader_dropped = nullptr;
        return;
    }
    t.m_publishes =
        &metrics_->counter("sb.topic." + t.name + ".publishes");
    t.m_drops = &metrics_->counter("sb.topic." + t.name + ".drops");
    t.m_reader_dropped = &metrics_->counter("sb.reader.dropped");
}

void
Switchboard::flushMetrics()
{
}

void
Switchboard::setPublishHook(PublishHookHandle hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    hook_ = hook;
    for (auto &[name, topic] : topics_) {
        std::lock_guard<std::mutex> tlock(topic->mutex);
        topic->hook = hook;
    }
}

std::uint64_t
Switchboard::publishAttempts(const std::string &topic) const
{
    TopicPtr t;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = topics_.find(topic);
        if (it == topics_.end())
            return 0;
        t = it->second;
    }
    std::lock_guard<std::mutex> lock(t->mutex);
    return t->publish_attempts;
}

std::size_t
Switchboard::listenerExceptions() const
{
    std::vector<TopicPtr> snapshot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snapshot.reserve(topics_.size());
        for (const auto &[name, topic] : topics_)
            snapshot.push_back(topic);
    }
    std::size_t total = 0;
    for (const TopicPtr &t : snapshot)
        total += t->listener_exceptions.load(std::memory_order_relaxed);
    return total;
}

} // namespace illixr

