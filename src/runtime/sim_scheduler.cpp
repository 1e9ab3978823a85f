#include "runtime/sim_scheduler.hpp"

#include "foundation/profile.hpp"

#include <algorithm>

namespace illixr {

SimScheduler::SimScheduler(const PlatformModel &platform)
    : platform_(platform)
{
    cpuFreeAt_.assign(platform_.cpu_threads, 0);
}

void
SimScheduler::addPlugin(Plugin *plugin)
{
    registerSlot(tasks_.emplace_back(), plugin, plugin->period());
}

void
SimScheduler::addVsyncAlignedPlugin(Plugin *plugin, Duration vsync)
{
    Task &t = tasks_.emplace_back();
    t.vsync_aligned = true;
    t.vsync = vsync;
    registerSlot(t, plugin, vsync);
}

void
SimScheduler::scheduleArrival(std::size_t task_index, TimePoint t)
{
    queue_.push(SimEvent{t, seq_++, 0, task_index});
}

TimePoint
SimScheduler::acquireResource(ExecUnit unit, TimePoint earliest,
                              Duration duration)
{
    if (unit == ExecUnit::Cpu) {
        // Pick the hardware thread that frees up soonest.
        std::size_t best = 0;
        for (std::size_t i = 1; i < cpuFreeAt_.size(); ++i) {
            if (cpuFreeAt_[i] < cpuFreeAt_[best])
                best = i;
        }
        const TimePoint start = std::max(earliest, cpuFreeAt_[best]);
        cpuFreeAt_[best] = start + duration;
        cpuBusy_ += duration;
        return start;
    }
    // Single GPU queue serializes compute and graphics (the paper's
    // GPU contention between application, reprojection, and
    // GPU-compute components).
    const TimePoint start = std::max(earliest, gpuFreeAt_);
    gpuFreeAt_ = start + duration;
    gpuBusy_ += duration;
    return start;
}

void
SimScheduler::dispatch(std::size_t task_index, TimePoint arrival)
{
    Task &task = tasks_[task_index];

    // Execute the plugin for real and measure its host cost. The
    // invocation scope makes every switchboard read a causal input of
    // every publish, all stamped with this span's id. The guarded
    // call contains plugin exceptions and applies any interceptor
    // decision (suppression, injected crash/stall/spike).
    const std::uint64_t span_id = sink_ ? sink_->nextSpanId() : 0;
    const std::uint64_t attempt = ++task.stats.attempts;
    const InvocationOutcome out =
        invokeGuarded(*task.plugin, attempt, arrival, span_id);

    if (out.suppressed) {
        recordSuppressed(task, arrival);
        return;
    }

    const double host_seconds = std::max(1e-9, out.host_seconds);
    Duration vdur =
        platform_.scaleDuration(host_seconds, task.plugin->execUnit());
    vdur = static_cast<Duration>(static_cast<double>(vdur) *
                                 out.duration_scale) +
           out.extra;
    const TimePoint start =
        acquireResource(task.plugin->execUnit(), arrival, vdur);
    const TimePoint completion = start + vdur;

    task.running = true;
    queue_.push(SimEvent{completion, seq_++, 1, task_index});

    InvocationRecord rec;
    rec.arrival = arrival;
    rec.start = start;
    rec.virtual_duration = vdur;
    rec.completion = completion;
    rec.host_seconds = host_seconds;
    if (task.vsync_aligned) {
        // The vsync this frame was aimed at: the next boundary at or
        // after the arrival.
        rec.target_vsync =
            ((arrival + task.vsync - 1) / task.vsync) * task.vsync;
    }
    recordInvocation(task, rec, out, span_id, 0);

    // EMA of host duration drives the late-latch estimate.
    const double alpha = 0.2;
    task.duration_ema_s = (task.duration_ema_s == 0.0)
                              ? host_seconds
                              : (1.0 - alpha) * task.duration_ema_s +
                                    alpha * host_seconds;
}

void
SimScheduler::run(Duration duration)
{
    startPlugins();
    runDuration_ = duration;
    now_ = 0;
    // Seed arrivals; with no EMA yet a vsync-aligned task also
    // starts at 0.
    for (std::size_t i = 0; i < tasks_.size(); ++i)
        scheduleArrival(i, 0);

    while (!queue_.empty()) {
        // Cooperative eviction (Session::stop()): wind down at the
        // next event boundary; stopPlugins() below still runs.
        if (stopRequested())
            break;
        const SimEvent ev = queue_.top();
        queue_.pop();
        if (ev.time > duration)
            break;
        now_ = ev.time;
        Task &task = tasks_[ev.task];

        if (ev.type == 1) { // Completion.
            task.running = false;
            continue;
        }

        // Arrival.
        if (task.running && task.plugin->skipOnOverrun())
            recordOverrun(task, ev.time);
        else
            dispatch(ev.task, ev.time);

        // Schedule the next arrival.
        if (task.vsync_aligned) {
            ++task.vsync_index;
            const TimePoint next_vsync =
                static_cast<TimePoint>(task.vsync_index + 1) * task.vsync;
            // As late as possible: budget = EMA scaled to virtual
            // time with a 30% safety margin.
            const Duration budget = platform_.scaleDuration(
                task.duration_ema_s * 1.3, task.plugin->execUnit());
            TimePoint next = next_vsync - budget;
            const TimePoint floor_time =
                static_cast<TimePoint>(task.vsync_index) * task.vsync;
            next = std::max(next, floor_time);
            scheduleArrival(ev.task, next);
        } else {
            scheduleArrival(ev.task, ev.time + task.plugin->period());
        }
    }
    now_ = duration;
    stopPlugins();
}

double
SimScheduler::cpuUtilization() const
{
    if (runDuration_ <= 0 || cpuFreeAt_.empty())
        return 0.0;
    return toSeconds(cpuBusy_) /
           (toSeconds(runDuration_) * static_cast<double>(cpuFreeAt_.size()));
}

double
SimScheduler::gpuUtilization() const
{
    if (runDuration_ <= 0)
        return 0.0;
    return std::min(1.0, toSeconds(gpuBusy_) / toSeconds(runDuration_));
}

} // namespace illixr
