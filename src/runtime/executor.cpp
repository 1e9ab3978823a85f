#include "runtime/executor.hpp"

#include "foundation/profile.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace illixr {

double
TaskStats::achievedHz(Duration wall) const
{
    if (wall <= 0)
        return 0.0;
    return static_cast<double>(invocations) / toSeconds(wall);
}

SampleSeries
TaskStats::execMs() const
{
    SampleSeries out;
    for (const InvocationRecord &rec : records)
        out.add(toMilliseconds(rec.virtual_duration));
    return out;
}

void
ExecutorBase::registerSlot(TaskSlot &slot, Plugin *plugin, Duration period)
{
    slot.plugin = plugin;
    slot.stats.name = plugin->name();
    slot.stats.unit = plugin->execUnit();
    slot.stats.period = period;
    slots_.push_back(&slot);
}

const TaskStats &
ExecutorBase::stats(const std::string &name) const
{
    for (const TaskSlot *slot : slots_) {
        if (slot->stats.name == name)
            return slot->stats;
    }
    throw std::out_of_range("no such task: " + name);
}

std::vector<std::string>
ExecutorBase::taskNames() const
{
    std::vector<std::string> names;
    names.reserve(slots_.size());
    for (const TaskSlot *slot : slots_)
        names.push_back(slot->stats.name);
    return names;
}

void
ExecutorBase::recordInvocation(TaskSlot &slot, const InvocationRecord &rec,
                               const InvocationOutcome &out,
                               std::uint64_t span_id, std::uint32_t worker)
{
    TaskStats &stats = slot.stats;
    stats.records.push_back(rec);
    stats.records.back().exception = out.exception;
    ++stats.invocations;
    if (out.exception)
        ++stats.exceptions;

    if (sink_) {
        Span span;
        span.task = stats.name;
        span.unit = slot.plugin->execUnit();
        span.arrival = rec.arrival;
        span.start = rec.start;
        span.completion = rec.completion;
        span.host_seconds = rec.host_seconds;
        span.id = span_id;
        span.worker = worker;
        sink_->recordSpan(std::move(span));
    }
}

void
ExecutorBase::recordOverrun(TaskSlot &slot, TimePoint t)
{
    ++slot.stats.skips;
    if (sink_)
        sink_->recordSkip(slot.stats.name, t, SkipCause::Overrun);
}

InvocationOutcome
ExecutorBase::invokeGuarded(Plugin &plugin, std::uint64_t attempt,
                            TimePoint now, std::uint64_t span_id)
{
    InvocationOutcome out;
    PreInvocationAction pre;
    if (interceptor_)
        pre = interceptor_->before(plugin, attempt, now);
    out.extra = std::max<Duration>(0, pre.stall);
    out.duration_scale = std::max(1.0, pre.duration_scale);

    // Route kernel.* metrics/spans launched by this invocation to THIS
    // executor's sinks: every session shares the one KernelPool, and
    // the thread-local scope keeps kernel accounting per session (a
    // launch outside any scope records nothing).
    KernelPool::MetricsScope kernel_scope(metrics_, sink_.get());

    TraceContext::beginInvocation(span_id, now);
    const double t0 = KernelPool::threadWorkSeconds();
    try {
        if (pre.crash)
            throw InjectedFault("injected fault: task '" + plugin.name() +
                                "', attempt " + std::to_string(attempt));
        plugin.iterate(now);
        out.ran = true;
    } catch (const std::exception &e) {
        out.exception = true;
        out.error = e.what();
    } catch (...) {
        out.exception = true;
        out.error = "non-standard exception";
    }
    out.host_seconds =
        std::max(0.0, KernelPool::threadWorkSeconds() - t0 -
                          plugin.consumeExcludedHostSeconds());
    // Close the scope on every path: an escaped exception must not
    // leave a poisoned consumed set for this thread's next invocation.
    TraceContext::endInvocation();

    if (interceptor_)
        interceptor_->after(plugin, now, out);
    return out;
}

void
ExecutorBase::requestStop()
{
    {
        // The lock orders the flag-store before any waiter's re-check:
        // without it a sleeper could test the flag, lose the CPU, miss
        // the notify, and wait out the full configured duration.
        std::lock_guard<std::mutex> lock(stop_request_mutex_);
        stop_requested_.store(true, std::memory_order_release);
    }
    stop_request_cv_.notify_all();
}

void
ExecutorBase::interruptibleSleep(Duration duration)
{
    if (duration <= 0)
        return;
    std::unique_lock<std::mutex> lock(stop_request_mutex_);
    stop_request_cv_.wait_for(
        lock, std::chrono::nanoseconds(duration), [this] {
            return stop_requested_.load(std::memory_order_acquire);
        });
}

void
ExecutorBase::startPlugins()
{
    if (started_)
        return;
    started_ = true;
    static const Phonebook empty;
    const Phonebook &pb = phonebook_ ? *phonebook_ : empty;
    for (TaskSlot *slot : slots_)
        slot->plugin->start(pb);
}

void
ExecutorBase::stopPlugins()
{
    if (!started_)
        return;
    started_ = false;
    for (auto it = slots_.rbegin(); it != slots_.rend(); ++it)
        (*it)->plugin->stop();
}

} // namespace illixr
