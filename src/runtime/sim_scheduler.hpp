/**
 * @file
 * Discrete-event runtime scheduler: the one virtual-time engine.
 *
 * The paper's runtime schedules components on real hardware; here the
 * same scheduling problem is solved on a *modeled* platform: plugins
 * execute for real (producing real images, poses, and audio), each
 * invocation's cost is converted to virtual time by the PlatformModel,
 * and the invocation occupies a modeled CPU hardware thread or the GPU
 * queue for that virtual span. Contention, missed deadlines, frame
 * skips, and motion-to-photon latency all emerge from this schedule
 * (see DESIGN.md §4 for the run-at-start simplification).
 *
 * The cost source is the only thing a seed changes:
 *  - measured (no seed): the invocation's work time
 *    (KernelPool::threadWorkSeconds: thread CPU time plus the
 *    helpers' share of its kernel launches), which host load does not
 *    stretch;
 *  - seeded: a modeled cost, a quarter of the task's period times a
 *    uniform [0.9, 1.1) jitter drawn from one Rng stream. Host time
 *    never reaches the timeline, so two runs with the same seed are
 *    byte-identical whatever the host load (DESIGN.md §4c).
 * Event order, the resources and late-latch are the same in both.
 *
 * Reprojection support follows §II-B footnote 5: a vsync-aligned
 * task is dispatched as late as possible before each vsync, using an
 * exponential moving average of its past costs as the budget
 * estimate.
 *
 * A plugin never overlaps itself: an arrival that finds its task busy
 * is dropped (skip-on-overrun plugins) or deferred to the task's
 * completion, at most kMaxCatchupPeriods deep.
 *
 * Implements the Executor interface (virtual timeline); with a
 * TraceSink attached, every invocation is recorded as a Span and
 * every skipped arrival as a SkipRecord.
 */

#pragma once

#include "foundation/rng.hpp"
#include "perfmodel/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/plugin.hpp"

#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

namespace illixr {

/**
 * The discrete-event scheduler.
 */
class SimScheduler : public ExecutorBase
{
  public:
    /** Measured cost without @p seed; seeded modeled cost with it. */
    explicit SimScheduler(const PlatformModel &platform,
                          std::optional<std::uint64_t> seed = {});

    /** Register a periodic plugin (not owned). */
    void addPlugin(Plugin *plugin) override;

    /**
     * Register a vsync-aligned plugin (reprojection): dispatched as
     * late as possible before each vsync of period @p vsync.
     */
    void addVsyncAlignedPlugin(Plugin *plugin, Duration vsync) override;

    /** Run the virtual timeline for @p duration. */
    void run(Duration duration) override;

    /** Current virtual time. */
    TimePoint now() const { return now_; }

    const char *timeline() const override { return "virtual"; }

    /** Mean CPU hardware-thread utilization over the run, [0, 1]. */
    double cpuUtilization() const;

    /** GPU busy fraction over the run, [0, 1]. */
    double gpuUtilization() const;

    const PlatformModel &platform() const { return platform_; }

  private:
    struct Task : TaskSlot
    {
        bool running = false;
        std::deque<TimePoint> deferred; ///< Arrivals held while busy.
        bool vsync_aligned = false;
        Duration vsync = 0;
        std::size_t vsync_index = 0;
        double duration_ema_s = 0.0; ///< Cost EMA, host seconds.
    };

    struct SimEvent
    {
        TimePoint time = 0;
        std::uint64_t seq = 0;    ///< FIFO tie-break.
        int type = 0;             ///< 0 = arrival, 1 = completion.
        std::size_t task = 0;

        bool operator>(const SimEvent &o) const
        {
            if (time != o.time)
                return time > o.time;
            return seq > o.seq;
        }
    };

    void scheduleArrival(std::size_t task_index, TimePoint t);
    /** Invoke the task at @p now for the arrival at @p arrival. */
    void dispatch(std::size_t task_index, TimePoint arrival, TimePoint now);
    TimePoint acquireResource(ExecUnit unit, TimePoint earliest,
                              Duration duration);

    PlatformModel platform_;
    std::optional<std::uint64_t> seed_;
    Rng rng_; ///< The seeded cost stream, reset by run().
    std::deque<Task> tasks_; ///< Stable addresses for registerSlot().
    std::priority_queue<SimEvent, std::vector<SimEvent>,
                        std::greater<SimEvent>>
        queue_;
    std::uint64_t seq_ = 0;
    TimePoint now_ = 0;
    Duration runDuration_ = 0;

    std::vector<TimePoint> cpuFreeAt_;
    TimePoint gpuFreeAt_ = 0;
    Duration cpuBusy_ = 0;
    Duration gpuBusy_ = 0;
};

} // namespace illixr
