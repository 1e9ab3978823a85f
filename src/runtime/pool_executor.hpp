/**
 * @file
 * PoolExecutor: a fixed-size worker pool over the plugin set. It is
 * the Executor implementation next to the discrete-event SimScheduler
 * and the one engine that runs plugins on the wall clock.
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
 *    allowed a bounded catch-up burst);
 *  - topic-driven wakeups: event-driven plugins (period() <= 0) are
 *    subscribed to a switchboard topic and woken by its publishes,
 *    with bursts coalesced to one pending invocation ("latest wins");
 *  - a deterministic mode (virtual-clock stepping): the run advances
 *    a virtual timeline event by event, invocations run inline on the
 *    calling thread one at a time in (time, lane, seq) order, and
 *    invocation costs are *modeled* — drawn from per-worker seeded
 *    Rng streams instead of measured host time — so two runs with the
 *    same seed produce byte-identical outputs. A worker is logical
 *    there: it picks the Rng stream and tags the span (see DESIGN.md
 *    §4c for the determinism contract).
 *
 * Instrumentation: every span carries the 1-based id of the worker
 * that executed it, and the pool exports per-lane ready-queue depth
 * gauges (`pool.lane.<lane>.queue_depth`) plus per-worker invocation
 * counters (`pool.worker.<i>.invocations`) into the MetricsRegistry.
 */

#pragma once

#include "foundation/rng.hpp"
#include "perfmodel/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/plugin.hpp"
#include "runtime/switchboard.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
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
    /** Virtual-clock stepping; runs are bit-reproducible. */
    bool deterministic = false;
    /** Seed of the per-worker Rng streams (deterministic mode). */
    std::uint64_t seed = 1;
    /** Platform whose CPU scale shapes the modeled costs
     *  (deterministic mode only; live mode uses the wall clock). */
    PlatformId platform = PlatformId::Desktop;
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

    /**
     * Register an event-driven plugin (period() <= 0): it runs when
     * @p topic is published on @p sb, bursts coalesced to one pending
     * invocation while the plugin is queued or running.
     */
    void addEventDrivenPlugin(Plugin *plugin, PipelineLane lane,
                              Switchboard &sb, const std::string &topic);

    /**
     * Run for @p duration: wall time live, virtual time when
     * deterministic.
     */
    void run(Duration duration) override;

    /** Launch the workers (live mode; no-op when deterministic). */
    void start();

    /** Stop and join the workers. Never blocks on a sleeping worker:
     *  the stop flag is raised and broadcast before any join, and no
     *  lock is held across the joins. */
    void stop();

    bool running() const { return running_.load(); }

    const char *timeline() const override
    {
        return config_.deterministic ? "virtual" : "wall";
    }

    const PoolExecutorConfig &config() const { return config_; }

    /** Mean worker-busy fraction over the run, [0, 1]. */
    double cpuUtilization() const;

    /** Busy fraction of the GPU-unit tasks over the run, [0, 1]. */
    double gpuUtilization() const;

  private:
    struct Entry : TaskSlot
    {
        PipelineLane lane = PipelineLane::Visual;
        Duration period = 0;      ///< <= 0 means event-driven.
        bool vsync_aligned = false;
        Duration vsync = 0;

        // Live-mode release state, guarded by mutex_.
        TimePoint next_release = 0;
        std::size_t pending_events = 0; ///< Coalesced to <= 1.
        bool in_flight = false;

        // Deterministic-mode state (single-threaded event loop).
        bool sim_running = false;
        int sim_queued = 0; ///< Ready-queue backlog of this entry.

        PublishListenerHandle listener;
    };

    /** Events of the deterministic virtual timeline. */
    struct SimEvent
    {
        TimePoint time = 0;
        int lane = 0;          ///< Criticality tie-break at equal time.
        std::uint64_t seq = 0; ///< FIFO tie-break within a lane.
        int type = 0;          ///< 0 = arrival, 1 = completion.
        std::size_t task = 0;
        std::size_t worker = 0; ///< Completion: worker being freed.

        bool operator>(const SimEvent &o) const
        {
            if (time != o.time)
                return time > o.time;
            if (lane != o.lane)
                return lane > o.lane;
            return seq > o.seq;
        }
    };

    void addEntry(Plugin *plugin, PipelineLane lane, Duration period,
                  bool vsync_aligned, Duration vsync);

    // ---- live mode ----
    void workerMain(std::size_t worker_index);
    /** Pick the due entry with the best (lane, release); nullptr if
     *  none. Caller holds mutex_. */
    Entry *pickDue(TimePoint now);
    /** Earliest future release among idle periodic entries; -1 when
     *  only event-driven work remains. Caller holds mutex_. */
    TimePoint earliestRelease() const;
    void updateQueueGauges(TimePoint now);

    /** Resolve the lane-depth gauges and per-worker counters. */
    void internPoolMetrics();
    /** recordInvocation() plus the pool's per-worker accounting for
     *  worker @p w (0-based). Live mode: caller holds mutex_. */
    void recordWorker(Entry &entry, const InvocationRecord &rec,
                      const InvocationOutcome &out, std::uint64_t span_id,
                      std::size_t w);

    // ---- deterministic mode ----
    void runVirtual(Duration duration);
    /** Modeled virtual cost of one invocation on worker @p w. */
    Duration modeledCost(const Entry &entry, std::size_t w);

    TimePoint wallNs() const;

    PoolExecutorConfig config_;
    PlatformModel platform_;
    std::vector<std::unique_ptr<Entry>> entries_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::thread> workers_;
    std::atomic<bool> running_{false};
    std::chrono::steady_clock::time_point epoch_;

    // Topic wakeups raised while a deterministic invocation runs;
    // drained by the event loop after each invocation.
    std::mutex simWakeupMutex_;
    std::vector<std::size_t> simWakeups_;

    Duration runDuration_ = 0;
    Duration busyCpu_ = 0;
    Duration busyGpu_ = 0;

    std::vector<Rng> workerRng_;
    std::vector<Counter *> workerInvocations_;
    Gauge *laneDepth_[3] = {nullptr, nullptr, nullptr};
};

} // namespace illixr
