#include "runtime/sim_scheduler.hpp"

#include "foundation/profile.hpp"

#include <algorithm>

namespace illixr {

SimScheduler::SimScheduler(const PlatformModel &platform,
                           std::optional<std::uint64_t> seed)
    : platform_(platform), seed_(seed)
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
SimScheduler::dispatch(std::size_t task_index, TimePoint arrival,
                       TimePoint now)
{
    Task &task = tasks_[task_index];

    // Execute the plugin for real. The invocation scope makes every
    // switchboard read a causal input of every publish, all stamped
    // with this span's id. The guarded call contains plugin
    // exceptions and applies any interceptor decision (injected
    // crash/stall/spike).
    const std::uint64_t span_id = sink_ ? sink_->nextSpanId() : 0;
    const std::uint64_t attempt = task.stats.invocations + 1;
    const InvocationOutcome out =
        invokeGuarded(*task.plugin, attempt, now, span_id);

    // The cost in host seconds: measured, or modeled when seeded.
    const double host_seconds = std::max(1e-9, out.host_seconds);
    const double cost_s =
        seed_ ? toSeconds(task.stats.period / 4) * rng_.uniform(0.9, 1.1)
              : host_seconds;
    Duration vdur = platform_.scaleDuration(cost_s, task.plugin->execUnit());
    vdur = static_cast<Duration>(static_cast<double>(vdur) *
                                 out.duration_scale) +
           out.extra;
    const TimePoint start =
        acquireResource(task.plugin->execUnit(), now, vdur);
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

    // EMA of the cost drives the late-latch estimate.
    const double alpha = 0.2;
    task.duration_ema_s = (task.duration_ema_s == 0.0)
                              ? cost_s
                              : (1.0 - alpha) * task.duration_ema_s +
                                    alpha * cost_s;
}

void
SimScheduler::run(Duration duration)
{
    startPlugins();
    runDuration_ = duration;
    now_ = 0;
    if (seed_)
        rng_ = Rng(*seed_);
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

        if (ev.type == 1) { // Completion: run deferred catch-up work.
            task.running = false;
            while (!task.running && !task.deferred.empty()) {
                const TimePoint arrival = task.deferred.front();
                task.deferred.pop_front();
                dispatch(ev.task, arrival, ev.time);
            }
            continue;
        }

        // Arrival.
        if (!task.running)
            dispatch(ev.task, ev.time, ev.time);
        else if (task.plugin->skipOnOverrun() ||
                 task.deferred.size() + 1 >=
                     static_cast<std::size_t>(kMaxCatchupPeriods))
            recordOverrun(task, ev.time);
        else
            task.deferred.push_back(ev.time);

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
