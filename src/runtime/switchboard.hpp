/**
 * @file
 * Switchboard: the event-stream communication framework of §II-B.
 *
 * Topics are named channels carrying immutable events. Writers
 * publish; *asynchronous* readers get the latest value ("ask for the
 * latest"); *synchronous* readers see every value through a bounded
 * per-reader queue. Plugins may only interact through these streams,
 * which is what makes every component independently swappable.
 *
 * ## Typed handles
 *
 * The API is handle-based: a plugin interns a topic once
 * (`writer<T>()`, `reader<T>()`, `asyncReader<T>()`) and then
 * publishes/reads through the handle with no per-access map lookup
 * and no dynamic_pointer_cast — the topic's payload type is locked at
 * handle creation. The historical string-keyed `publish`/`latest`/
 * `subscribe` shims have been removed; `onPublish()` is the one
 * remaining string-keyed entry point (it observes a topic without
 * locking its type).
 *
 * ## Transport (DESIGN.md §7)
 *
 * Each topic is one mutex guarding its newest event, its counters and
 * one bounded queue per synchronous reader. Publish, `latest()`,
 * `pop()` and reader detach all take that lock and nothing else, so
 * there is no lock order to get wrong; listeners run after it drops.
 * A full queue evicts its *oldest* event, counted in `dropped()` and
 * the `sb.reader.dropped` metric.
 *
 * ## Lineage
 *
 * On publish every event is stamped with a TraceId (interned topic
 * index + per-topic sequence). If the publishing plugin is running
 * inside an executor invocation (TraceContext), the ids of every
 * event it read this invocation become the new event's parent links,
 * so a displayed frame's full causal chain back to its source camera
 * frame and IMU window is reconstructible from the TraceSink.
 */

#pragma once

#include "foundation/time.hpp"
#include "trace/trace.hpp"
#include "trace/trace_id.hpp"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <vector>

namespace illixr {

class MetricsRegistry;
class Counter;

/** Base class of everything published on a topic. */
struct Event
{
    TimePoint time = 0; ///< When the payload was produced/captured.

    /** Causal identity; assigned by the switchboard on publish. */
    TraceId trace;

    /**
     * Events this one was derived from. Left empty, the switchboard
     * fills it from the running invocation's consumed set; a plugin
     * may also set it explicitly (e.g., for results released long
     * after the invocation that consumed the inputs).
     */
    std::vector<TraceId> parents;

    virtual ~Event() = default;
};

using EventPtr = std::shared_ptr<const Event>;

/**
 * A synchronous reader: sees every event published after its
 * creation, in order, through a bounded queue guarded by its topic's
 * mutex.
 *
 * The queue holds at most `capacity` events. When a publish finds it
 * full, the *oldest* queued event is evicted and counted in dropped()
 * — the survivors are always the newest `capacity` events.
 */
class SyncReader
{
  public:
    /** Pop the oldest unread event; nullptr when drained. */
    EventPtr pop();

    /** Events currently queued. */
    std::size_t pending() const;

    /**
     * Number of events evicted due to queue overflow. Eviction always
     * removes the *oldest* queued event (newest events survive).
     */
    std::size_t dropped() const;

  private:
    friend class Switchboard;

    SyncReader(std::mutex &topic_mutex, std::size_t capacity)
        : mutex_(topic_mutex), capacity_(capacity)
    {
    }

    /** Publisher side; caller holds the topic mutex. Returns true
     *  when the push evicted the oldest queued event. */
    bool push(const EventPtr &event);

    std::mutex &mutex_; ///< The owning topic's mutex.
    const std::size_t capacity_;
    std::deque<EventPtr> queue_;
    std::size_t dropped_ = 0;
};

/** Callback fired after a publish completes on a topic. */
using PublishListener = std::function<void(const std::string &topic)>;

/**
 * Owning token of a publish listener: the listener stays registered
 * for as long as the handle is alive (topics keep only weak refs).
 */
using PublishListenerHandle = std::shared_ptr<PublishListener>;

/**
 * Hook consulted on every publish, before the event is stamped and
 * fanned out. Return false to drop the publish (no TraceId, no
 * readers, no listeners — recorded as an injected-drop skip); the
 * mutable Event reference may be corrupted in place.
 *
 * @p attempt counts publish *attempts* on the topic (1-based),
 * including dropped ones, so fault decisions keyed on it are
 * deterministic regardless of earlier drops. Runs under the topic
 * lock: must not re-enter the switchboard.
 */
using PublishHook = std::function<bool(
    const std::string &topic, std::uint64_t attempt, Event &event)>;

using PublishHookHandle = std::shared_ptr<PublishHook>;

/**
 * The switchboard.
 */
class Switchboard
{
    /** Interned per-topic state shared with the typed handles. */
    struct TopicState
    {
        std::string name;
        std::uint32_t index = 0; ///< 1-based interned source id.
        /** The topic's one lock: guards every field below except
         *  listener_exceptions, and every attached SyncReader. */
        mutable std::mutex mutex;
        EventPtr latest;
        std::uint64_t publish_count = 0;
        std::uint64_t publish_attempts = 0; ///< Includes dropped ones.
        std::type_index type = std::type_index(typeid(void));
        /** Raw fan-out list: the shared_ptr handed to Reader<T> owns
         *  the SyncReader through a deleter that detaches the raw
         *  pointer under this topic's mutex before deleting, so
         *  publish iterates without per-reader weak_ptr locking and
         *  never sees a dangling entry. */
        std::vector<SyncReader *> readers;
        std::vector<std::weak_ptr<PublishListener>> listeners;
        std::shared_ptr<TraceSink> sink;
        PublishHookHandle hook;
        std::atomic<std::size_t> listener_exceptions{0};

        /** Cached metric handles (null until a registry attaches). */
        Counter *m_publishes = nullptr;
        Counter *m_drops = nullptr;
        Counter *m_reader_dropped = nullptr; ///< Global sb.reader.dropped.
    };

    using TopicPtr = std::shared_ptr<TopicState>;

  public:
    /**
     * Typed publish handle. Obtain once; put() is map-lookup-free.
     */
    template <typename T> class Writer
    {
      public:
        Writer() = default;

        /** Publish (stamps TraceId + parents, fans out to readers). */
        void
        put(std::shared_ptr<T> event)
        {
            Switchboard::publishToTopic(topic_, std::move(event));
        }

        /** TraceId of the most recent put() on this topic. */
        TraceId
        lastId() const
        {
            std::lock_guard<std::mutex> lock(topic_->mutex);
            if (topic_->publish_count == 0)
                return TraceId{};
            return TraceId{topic_->index, topic_->publish_count};
        }

        explicit operator bool() const { return topic_ != nullptr; }

      private:
        friend class Switchboard;
        explicit Writer(TopicPtr topic) : topic_(std::move(topic)) {}
        TopicPtr topic_;
    };

    /**
     * Typed latest-value handle ("asynchronous read" in §II-B): no
     * queue, no history, just the newest event.
     */
    template <typename T> class AsyncReader
    {
      public:
        AsyncReader() = default;

        std::shared_ptr<const T>
        latest() const
        {
            return std::static_pointer_cast<const T>(
                Switchboard::latestOf(*topic_));
        }

        /**
         * latest() without noting the event as a causal input: for
         * control settings (degradation commands) that shape how a
         * plugin runs but are not data its outputs derive from, so
         * lineage never walks from a frame into an old command.
         */
        std::shared_ptr<const T>
        peek() const
        {
            return std::static_pointer_cast<const T>(
                Switchboard::latestOf(*topic_, false));
        }

        explicit operator bool() const { return topic_ != nullptr; }

      private:
        friend class Switchboard;
        explicit AsyncReader(TopicPtr topic) : topic_(std::move(topic)) {}
        TopicPtr topic_;
    };

    /**
     * Typed every-event handle: a bounded queue that sees each value
     * published after creation, in order, plus a latest() peek.
     */
    template <typename T> class Reader
    {
      public:
        Reader() = default;

        /** Pop the oldest unread event; nullptr when drained. */
        std::shared_ptr<const T>
        pop()
        {
            return std::static_pointer_cast<const T>(sync_->pop());
        }

        /** Batch drain of everything queued, in order. */
        std::size_t
        popAll(std::vector<std::shared_ptr<const T>> &out)
        {
            std::size_t n = 0;
            while (EventPtr e = sync_->pop()) {
                out.push_back(
                    std::static_pointer_cast<const T>(std::move(e)));
                ++n;
            }
            return n;
        }

        /** Newest value on the topic (independent of the queue). */
        std::shared_ptr<const T>
        latest() const
        {
            return async_.latest();
        }

        std::size_t pending() const { return sync_->pending(); }
        std::size_t dropped() const { return sync_->dropped(); }

        explicit operator bool() const { return sync_ != nullptr; }

      private:
        friend class Switchboard;
        Reader(TopicPtr topic, std::shared_ptr<SyncReader> sync)
            : async_(std::move(topic)), sync_(std::move(sync))
        {
        }
        AsyncReader<T> async_;
        std::shared_ptr<SyncReader> sync_;
    };

    // ---- typed handle factories (intern once, use forever) ----

    /** Get the typed publish handle for @p topic. */
    template <typename T>
    Writer<T>
    writer(const std::string &topic)
    {
        return Writer<T>(topicFor(topic, typeid(T)));
    }

    /** Get the typed latest-value handle for @p topic. */
    template <typename T>
    AsyncReader<T>
    asyncReader(const std::string &topic)
    {
        return AsyncReader<T>(topicFor(topic, typeid(T)));
    }

    /** Queue bound of a reader created with capacity 0. */
    static constexpr std::size_t kDefaultReaderCapacity = 1024;

    /**
     * Create a typed every-event reader on @p topic whose queue holds
     * at most @p capacity events (0 = kDefaultReaderCapacity).
     */
    template <typename T>
    Reader<T>
    reader(const std::string &topic, std::size_t capacity = 0)
    {
        TopicPtr t = topicFor(topic, typeid(T));
        return Reader<T>(t, attachSyncReader(t, capacity));
    }

    // ---- introspection / wiring ----

    /** Number of events ever published on a topic. */
    std::size_t publishCount(const std::string &topic) const;

    /** Names of all topics that have been touched. */
    std::vector<std::string> topicNames() const;

    /** Interned 1-based index of a topic (0 if never touched). */
    std::uint32_t topicIndex(const std::string &topic) const;

    /**
     * Attach a trace sink: every subsequent publish (on existing and
     * future topics) is recorded as an EventRecord.
     */
    void setTraceSink(std::shared_ptr<TraceSink> sink);

    /**
     * Attach a metrics registry: per-topic `sb.topic.<name>.*`
     * counters and the global `sb.reader.dropped` counter land there.
     * null detaches (handles are re-resolved, so per-run registries
     * never dangle).
     */
    void setMetrics(MetricsRegistry *metrics);

    /**
     * Does nothing: every switchboard metric is a live counter, so
     * there are no sampled gauges to mirror before a registry is
     * handed off. Kept for callers that flush before hand-off.
     */
    void flushMetrics();

    /**
     * Attach the publish-boundary hook (fault injection): consulted
     * on every subsequent publish on existing and future topics.
     * nullptr detaches.
     */
    void setPublishHook(PublishHookHandle hook);

    /**
     * Publish attempts ever made on a topic, including ones a hook
     * dropped (publishCount() counts only completed publishes).
     */
    std::uint64_t publishAttempts(const std::string &topic) const;

    /**
     * Total exceptions thrown (and contained) by onPublish listeners
     * across all topics: one throwing listener never skips the rest.
     */
    std::size_t listenerExceptions() const;

    /**
     * Register a wakeup callback on @p topic: invoked after every
     * publish, outside the topic lock (safe to re-enter the
     * switchboard or wake an executor). The listener is dropped as
     * soon as the returned handle dies; executors keep the handle for
     * the lifetime of the subscribed task.
     */
    PublishListenerHandle onPublish(const std::string &topic,
                                    PublishListener listener);

  private:
    /** Intern (or fetch) a topic, locking its payload type. */
    TopicPtr topicFor(const std::string &topic, std::type_index type);

    /** Untyped intern (onPublish; leaves the type unlocked). */
    TopicPtr topicForUntyped(const std::string &topic);

    static std::shared_ptr<SyncReader> attachSyncReader(const TopicPtr &t,
                                                        std::size_t capacity);

    /** The one publish path: stamp id/parents, fan out, record. */
    static void publishToTopic(const TopicPtr &t, EventPtr event);

    template <typename T>
    static void
    publishToTopic(const TopicPtr &t, std::shared_ptr<T> event)
    {
        publishToTopic(t, std::static_pointer_cast<const Event>(
                              std::shared_ptr<const T>(std::move(event))));
    }

    /** The topic's newest event, noted as consumed when @p traced. */
    static EventPtr latestOf(const TopicState &t, bool traced = true);

    /** Resolve per-topic counters from the attached registry. */
    void wireTopicMetricsLocked(TopicState &t) const;

    mutable std::mutex mutex_;
    std::map<std::string, TopicPtr> topics_;
    std::vector<TopicPtr> by_index_;
    std::shared_ptr<TraceSink> sink_;
    PublishHookHandle hook_;
    MetricsRegistry *metrics_ = nullptr;
};

/** Make a shared event of type T: the one way events are allocated. */
template <typename T, typename... Args>
std::shared_ptr<T>
makeEvent(Args &&...args)
{
    return std::make_shared<T>(std::forward<Args>(args)...);
}

} // namespace illixr
