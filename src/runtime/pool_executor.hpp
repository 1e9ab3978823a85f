/**
 * @file
 * PoolExecutor: a fixed-size worker pool over the plugin set. It is
 * the one engine that runs plugins on the wall clock; SimScheduler is
 * the one virtual-time engine (measured or seeded cost).
 *
 * The pool runs the paper's three pipelines genuinely concurrently
 * (§III's per-stage variability only appears when stages contend),
 * with:
 *
 *  - per-plugin task queues: each plugin owns a release slot; an
 *    invocation is dispatched to whichever worker is free, never to
 *    two workers at once;
 *  - per-pipeline priority lanes mirroring the paper's criticality
 *    ordering (perception > visual > audio): when workers are scarce,
 *    due perception work always dispatches before due visual work,
 *    which beats audio;
 *  - rate-limited periodic tasks: a plugin never runs more than once
 *    per period boundary; overruns realign to the next boundary
 *    (skip-on-overrun plugins drop the missed arrivals, others are
 *    allowed a bounded catch-up burst).
 *
 * Instrumentation: every span carries the 1-based id of the worker
 * that executed it, and the pool exports per-lane ready-queue depth
 * gauges (`pool.lane.<lane>.queue_depth`) plus per-worker invocation
 * counters (`pool.worker.<i>.invocations`) into the MetricsRegistry.
 */

#pragma once

#include "runtime/executor.hpp"
#include "runtime/plugin.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace illixr {

/** The paper's criticality ordering; lower value = higher priority. */
enum class PipelineLane
{
    Perception = 0,
    Visual = 1,
    Audio = 2,
};

const char *laneName(PipelineLane lane);

/** Default lane of a task, from the integrated component names. */
PipelineLane laneForTask(const std::string &name);

/** Pool configuration. */
struct PoolExecutorConfig
{
    std::size_t workers = 4;
};

/**
 * Fixed-size worker-pool executor.
 */
class PoolExecutor : public ExecutorBase
{
  public:
    explicit PoolExecutor(PoolExecutorConfig config = {});
    ~PoolExecutor() override;

    PoolExecutor(const PoolExecutor &) = delete;
    PoolExecutor &operator=(const PoolExecutor &) = delete;

    /** Register a periodic plugin on its default lane (by name). */
    void addPlugin(Plugin *plugin) override;

    /** Register a periodic plugin on an explicit lane. */
    void addPlugin(Plugin *plugin, PipelineLane lane);

    /** Vsync-aligned plugin: periodic at the vsync period, each
     *  invocation stamped with the boundary it aims at. */
    void addVsyncAlignedPlugin(Plugin *plugin, Duration vsync) override;

    /** Run for @p duration of wall time. */
    void run(Duration duration) override;

    /** Launch the workers. */
    void start();

    /** Stop and join the workers. Never blocks on a sleeping worker:
     *  the stop flag is raised and broadcast before any join, and no
     *  lock is held across the joins. */
    void stop();

    bool running() const { return running_.load(); }

    const char *timeline() const override { return "wall"; }

    /** Mean worker-busy fraction over the run, [0, 1]. */
    double cpuUtilization() const;

    /** Busy fraction of the GPU-unit tasks over the run, [0, 1]. */
    double gpuUtilization() const;

  private:
    struct Entry : TaskSlot
    {
        PipelineLane lane = PipelineLane::Visual;
        bool vsync_aligned = false; ///< Period is the vsync interval.

        // Release state, guarded by mutex_.
        TimePoint next_release = 0;
        bool in_flight = false;
    };

    /** @throws std::invalid_argument when @p period <= 0. */
    void addEntry(Plugin *plugin, PipelineLane lane, Duration period,
                  bool vsync_aligned);

    void workerMain(std::size_t worker_index);
    /** Pick the due entry with the best (lane, release); nullptr if
     *  none. Caller holds mutex_. */
    Entry *pickDue(TimePoint now);
    /** Earliest future release among idle entries; -1 when every
     *  entry is in flight. Caller holds mutex_. */
    TimePoint earliestRelease() const;
    void updateQueueGauges(TimePoint now);

    /** Resolve the lane-depth gauges and per-worker counters. */
    void internPoolMetrics();
    /** recordInvocation() plus the pool's per-worker accounting for
     *  worker @p w (0-based). Caller holds mutex_. */
    void recordWorker(Entry &entry, const InvocationRecord &rec,
                      const InvocationOutcome &out, std::uint64_t span_id,
                      std::size_t w);

    TimePoint wallNs() const;

    PoolExecutorConfig config_;
    std::vector<std::unique_ptr<Entry>> entries_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::thread> workers_;
    std::atomic<bool> running_{false};
    std::chrono::steady_clock::time_point epoch_;

    Duration runDuration_ = 0;
    Duration busyCpu_ = 0;
    Duration busyGpu_ = 0;

    std::vector<Counter *> workerInvocations_;
    Gauge *laneDepth_[3] = {nullptr, nullptr, nullptr};
};

} // namespace illixr
