#include "runtime/pool_executor.hpp"

#include "foundation/profile.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace illixr {

const char *
laneName(PipelineLane lane)
{
    switch (lane) {
    case PipelineLane::Perception:
        return "perception";
    case PipelineLane::Visual:
        return "visual";
    case PipelineLane::Audio:
        return "audio";
    }
    return "?";
}

PipelineLane
laneForTask(const std::string &name)
{
    // The integrated system's component names (paper Table II /
    // Fig 2). Unknown tasks land on the middle lane.
    if (name == "camera" || name == "imu" || name == "vio" ||
        name == "integrator" || name.find("vio") != std::string::npos ||
        name.find("imu") != std::string::npos)
        return PipelineLane::Perception;
    if (name.find("audio") != std::string::npos)
        return PipelineLane::Audio;
    return PipelineLane::Visual;
}

PoolExecutor::PoolExecutor(PoolExecutorConfig config) : config_(config)
{
    if (config_.workers == 0)
        config_.workers = 1;
}

PoolExecutor::~PoolExecutor()
{
    stop();
}

void
PoolExecutor::addEntry(Plugin *plugin, PipelineLane lane, Duration period,
                       bool vsync_aligned)
{
    if (period <= 0)
        throw std::invalid_argument("PoolExecutor: task '" +
                                    plugin->name() + "' has no period");
    auto entry = std::make_unique<Entry>();
    entry->lane = lane;
    entry->vsync_aligned = vsync_aligned;
    registerSlot(*entry, plugin, period);
    entries_.push_back(std::move(entry));
}

void
PoolExecutor::addPlugin(Plugin *plugin)
{
    addPlugin(plugin, laneForTask(plugin->name()));
}

void
PoolExecutor::addPlugin(Plugin *plugin, PipelineLane lane)
{
    addEntry(plugin, lane, plugin->period(), false);
}

void
PoolExecutor::addVsyncAlignedPlugin(Plugin *plugin, Duration vsync)
{
    addEntry(plugin, laneForTask(plugin->name()), vsync, true);
}

TimePoint
PoolExecutor::wallNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
PoolExecutor::run(Duration duration)
{
    start();
    interruptibleSleep(duration); // Eviction cuts the wall run short.
    stop();
    runDuration_ = duration;
}

void
PoolExecutor::start()
{
    if (running_.exchange(true))
        return;
    startPlugins();
    epoch_ = std::chrono::steady_clock::now();
    internPoolMetrics();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        busyCpu_ = 0;
        busyGpu_ = 0;
        for (auto &entry : entries_) {
            entry->next_release = 0;
            entry->in_flight = false;
        }
    }
    for (std::size_t w = 0; w < config_.workers; ++w)
        workers_.emplace_back([this, w] { workerMain(w); });
}

void
PoolExecutor::stop()
{
    // Raise the flag under the scheduling mutex so a worker between
    // its running check and its wait cannot miss the broadcast, then
    // release it: the joins below must never run while holding it
    // (a parked worker needs the mutex to observe the flag and exit).
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_.exchange(false))
            return;
    }
    cv_.notify_all();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
    stopPlugins();
}

PoolExecutor::Entry *
PoolExecutor::pickDue(TimePoint now)
{
    Entry *best = nullptr;
    for (auto &entry : entries_) {
        if (entry->in_flight || entry->next_release > now)
            continue;
        if (!best || entry->lane < best->lane ||
            (entry->lane == best->lane &&
             entry->next_release < best->next_release))
            best = entry.get();
    }
    return best;
}

TimePoint
PoolExecutor::earliestRelease() const
{
    TimePoint earliest = -1;
    for (const auto &entry : entries_) {
        if (entry->in_flight)
            continue;
        if (earliest < 0 || entry->next_release < earliest)
            earliest = entry->next_release;
    }
    return earliest;
}

void
PoolExecutor::updateQueueGauges(TimePoint now)
{
    if (!laneDepth_[0])
        return;
    std::size_t depth[3] = {0, 0, 0};
    for (const auto &entry : entries_) {
        if (!entry->in_flight && entry->next_release <= now)
            ++depth[static_cast<int>(entry->lane)];
    }
    for (int lane = 0; lane < 3; ++lane)
        laneDepth_[lane]->set(static_cast<double>(depth[lane]));
}

void
PoolExecutor::internPoolMetrics()
{
    if (!metrics_)
        return;
    for (int lane = 0; lane < 3; ++lane)
        laneDepth_[lane] = &metrics_->gauge(
            std::string("pool.lane.") +
            laneName(static_cast<PipelineLane>(lane)) + ".queue_depth");
    workerInvocations_.clear();
    for (std::size_t w = 0; w < config_.workers; ++w)
        workerInvocations_.push_back(&metrics_->counter(
            "pool.worker." + std::to_string(w + 1) + ".invocations"));
}

void
PoolExecutor::recordWorker(Entry &entry, const InvocationRecord &rec,
                           const InvocationOutcome &out,
                           std::uint64_t span_id, std::size_t w)
{
    recordInvocation(entry, rec, out, span_id,
                     static_cast<std::uint32_t>(w + 1));
    if (w < workerInvocations_.size())
        workerInvocations_[w]->add();
    if (entry.plugin->execUnit() == ExecUnit::Cpu)
        busyCpu_ += rec.virtual_duration;
    else
        busyGpu_ += rec.virtual_duration;
}

void
PoolExecutor::workerMain(std::size_t worker_index)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (running_.load()) {
        const TimePoint now = wallNs();
        Entry *entry = pickDue(now);
        if (!entry) {
            const TimePoint wake = earliestRelease();
            updateQueueGauges(now);
            if (wake < 0)
                cv_.wait(lock);
            else
                cv_.wait_until(lock,
                               epoch_ + std::chrono::nanoseconds(wake));
            continue;
        }

        const TimePoint release = entry->next_release;
        entry->in_flight = true;
        updateQueueGauges(now);

        // Wakeup chaining: by the time this worker claimed its entry
        // another may have become due. Without a chained notify the
        // remaining work waits for this worker's completion.
        if (pickDue(now))
            cv_.notify_one();

        const std::uint64_t span_id = sink_ ? sink_->nextSpanId() : 0;
        // The entry is in flight, so no other worker books it before
        // this invocation does.
        const std::uint64_t attempt = entry->stats.invocations + 1;
        lock.unlock();
        const InvocationOutcome out =
            invokeGuarded(*entry->plugin, attempt, now, span_id);
        // Injected stalls hang the worker (bounded) so the occupancy
        // is real contention for the pool, like an actual hang.
        if (out.extra > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                std::min<Duration>(out.extra, 100 * kMillisecond)));
        const TimePoint done = wallNs();
        lock.lock();

        InvocationRecord rec;
        rec.arrival = release;
        rec.start = now;
        rec.virtual_duration = done - now;
        rec.completion = done;
        rec.host_seconds = out.host_seconds;
        if (entry->vsync_aligned) {
            const Duration vsync = entry->stats.period;
            rec.target_vsync = ((now + vsync - 1) / vsync) * vsync;
        }
        recordWorker(*entry, rec, out, span_id, worker_index);
        entry->in_flight = false;
        // Rate limit: exactly one invocation per period boundary.
        const Duration period = entry->stats.period;
        const TimePoint after = wallNs();
        entry->next_release += period;
        if (entry->next_release <= after) {
            const bool skip = entry->plugin->skipOnOverrun();
            const TimePoint behind = (after - entry->next_release) / period;
            if (skip || behind > kMaxCatchupPeriods) {
                // Drop the missed boundaries and realign.
                while (entry->next_release <= after) {
                    recordOverrun(*entry, after);
                    entry->next_release += period;
                }
            }
            // else: a non-skip plugin catches up by running again
            // immediately (bounded by kMaxCatchupPeriods).
        }
        // A slot changed: a sleeping worker may now have work.
        cv_.notify_one();
    }
}

// ---------------------------------------------------------- stats

double
PoolExecutor::cpuUtilization() const
{
    if (runDuration_ <= 0 || config_.workers == 0)
        return 0.0;
    return toSeconds(busyCpu_) /
           (toSeconds(runDuration_) * static_cast<double>(config_.workers));
}

double
PoolExecutor::gpuUtilization() const
{
    if (runDuration_ <= 0)
        return 0.0;
    return std::min(1.0, toSeconds(busyGpu_) / toSeconds(runDuration_));
}

} // namespace illixr
