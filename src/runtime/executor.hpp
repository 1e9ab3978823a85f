/**
 * @file
 * Executor: the one interface over both ways of running a plugin set
 * — the discrete-event SimScheduler (virtual timeline, with measured
 * or seeded cost) and the worker-pool PoolExecutor (wall clock).
 * Examples and benches program against this interface, so simulated
 * and live execution are swappable without divergent call sites.
 *
 * The base class also unifies the plugin lifecycle and the per-task
 * bookkeeping: run() calls Plugin::start() in registration order
 * before the first iterate() and Plugin::stop() in reverse order
 * after the last one, and every executor books each invocation and
 * overrun through the same helpers.
 *
 * Instrumentation: TaskStats::records is the one per-invocation
 * record; an attached TraceSink also receives one Span per invocation
 * (task, exec unit, arrival/start/completion) and one SkipRecord per
 * overrun. The attached MetricsRegistry is the scope for the kernel.*
 * metrics of the plugins' kernel launches (and the PoolExecutor's
 * pool.* metrics); it holds no per-task copy of the records.
 */

#pragma once

#include "foundation/stats.hpp"
#include "perfmodel/platform.hpp"
#include "runtime/phonebook.hpp"
#include "runtime/plugin.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace illixr {

/** One completed invocation (virtual or wall timeline). */
struct InvocationRecord
{
    TimePoint arrival = 0;
    TimePoint start = 0;
    Duration virtual_duration = 0;
    TimePoint completion = 0;
    TimePoint target_vsync = 0; ///< 0 unless vsync-aligned.
    double host_seconds = 0.0;
    bool exception = false; ///< iterate() (or an injected crash) threw.
};

/** Aggregated statistics of one scheduled task. */
struct TaskStats
{
    std::string name;
    ExecUnit unit = ExecUnit::Cpu;
    Duration period = 0;
    std::size_t invocations = 0;
    std::size_t skips = 0;       ///< Arrivals dropped due to overrun.
    std::size_t exceptions = 0;  ///< Invocations that threw.
    std::vector<InvocationRecord> records; ///< One per invocation.

    /** Achieved rate over a run of @p wall duration. */
    double achievedHz(Duration wall) const;

    /** Each record's virtual_duration in ms, in invocation order. */
    SampleSeries execMs() const;
};

/**
 * Backlog bound of a non-skip plugin (Plugin::skipOnOverrun() false):
 * arrivals that find it busy may queue up to this many periods of
 * catch-up work, counting the running invocation; any further arrival
 * is booked as an overrun. Both engines enforce it.
 */
constexpr int kMaxCatchupPeriods = 8;

/** The exception type thrown by injected crash faults. */
struct InjectedFault : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Decision taken at the invocation boundary, before iterate() runs.
 * Produced by an InvocationInterceptor (the FaultInjector).
 */
struct PreInvocationAction
{
    bool crash = false;    ///< Throw an InjectedFault inside the scope.
    Duration stall = 0;    ///< Extra occupancy (hang-then-complete).
    double duration_scale = 1.0; ///< Latency-spike cost multiplier.
};

/** What one guarded invocation did. */
struct InvocationOutcome
{
    bool ran = false;        ///< iterate() returned normally.
    bool exception = false;  ///< iterate() (or an injected crash) threw.
    std::string error;       ///< what() of the escaped exception.
    double host_seconds = 0.0;
    Duration extra = 0;          ///< Injected stall to add to occupancy.
    double duration_scale = 1.0; ///< Injected cost multiplier.
};

/**
 * Hook consulted by every executor around every plugin invocation.
 * before() may inject a crash or add modeled latency; after()
 * observes the outcome (including escaped exceptions) outside the
 * invocation's trace scope, so anything it publishes does not inherit
 * the invocation's lineage.
 *
 * Called from executor worker threads: implementations must be
 * thread-safe, and under a seeded SimScheduler must make decisions
 * that are pure functions of (task, attempt, virtual time) — never of
 * wall-clock time — to preserve the determinism contract.
 */
class InvocationInterceptor
{
  public:
    virtual ~InvocationInterceptor() = default;

    virtual PreInvocationAction before(Plugin &plugin,
                                       std::uint64_t attempt,
                                       TimePoint now) = 0;

    virtual void after(Plugin &plugin, TimePoint now,
                       const InvocationOutcome &outcome) = 0;
};

/**
 * The executor interface.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Register a periodic plugin (not owned). Precedes run(). */
    virtual void addPlugin(Plugin *plugin) = 0;

    /**
     * Register a vsync-aligned plugin (reprojection): each invocation
     * is stamped with the vsync boundary it aims at.
     */
    virtual void addVsyncAlignedPlugin(Plugin *plugin, Duration vsync) = 0;

    /**
     * Run the plugin set for @p duration (virtual or wall time,
     * depending on the executor), blocking until done. Wraps the
     * unified plugin lifecycle (start before, stop after).
     */
    virtual void run(Duration duration) = 0;

    /** Statistics of one task. @throws std::out_of_range. */
    virtual const TaskStats &stats(const std::string &name) const = 0;

    /** Names of all registered tasks. */
    virtual std::vector<std::string> taskNames() const = 0;

    /** Attach the span/lineage sink (nullptr disables tracing). */
    virtual void setTraceSink(std::shared_ptr<TraceSink> sink) = 0;

    /** "virtual" or "wall": which timeline the timestamps are on. */
    virtual const char *timeline() const = 0;
};

/**
 * Shared lifecycle + instrumentation plumbing of both executors.
 */
class ExecutorBase : public Executor
{
  public:
    const TaskStats &stats(const std::string &name) const override;
    std::vector<std::string> taskNames() const override;

    void
    setTraceSink(std::shared_ptr<TraceSink> sink) override
    {
        sink_ = std::move(sink);
    }

    /**
     * Registry receiving the kernel.* metrics of every invocation's
     * kernel launches (nullptr: they are not recorded).
     */
    void setMetrics(MetricsRegistry *metrics) { metrics_ = metrics; }

    /** Phonebook handed to Plugin::start() (optional). */
    void setPhonebook(const Phonebook *phonebook)
    {
        phonebook_ = phonebook;
    }

    /**
     * Attach the invocation-boundary hook (nullptr detaches). Must be
     * set before run(); the interceptor must outlive the run.
     */
    void setInterceptor(InvocationInterceptor *interceptor)
    {
        interceptor_ = interceptor;
    }

    /**
     * Cooperative early stop: ask an in-flight (or not yet started)
     * run() to wind down at its next scheduling point. Safe to call
     * from any thread; one-way for this executor instance. A run that
     * ends early still performs the full plugin stop() lifecycle and
     * leaves the collected stats valid — sessions use this for
     * eviction (Session::stop()).
     */
    void requestStop();

    /** Has requestStop() been called on this executor? */
    bool
    stopRequested() const
    {
        return stop_requested_.load(std::memory_order_acquire);
    }

  protected:
    /** What every executor keeps per registered plugin. */
    struct TaskSlot
    {
        Plugin *plugin = nullptr;
        TaskStats stats;
    };

    /**
     * Fill @p slot for @p plugin (stats identity) and enrol it for
     * stats() lookup and the start/stop lifecycle. The slot must stay
     * at a stable address for the executor's life.
     */
    void registerSlot(TaskSlot &slot, Plugin *plugin, Duration period);

    /**
     * The one way executors run iterate(): consults the interceptor,
     * opens/closes the TraceContext scope on *every* path (an escaped
     * exception must not poison the thread's next invocation), and
     * contains any exception the plugin throws instead of letting it
     * unwind the executor. host_seconds is read off the work clock
     * (KernelPool::threadWorkSeconds), so time the host spends
     * elsewhere is not charged, and excludes the plugin's excluded
     * (modeled-remote) time.
     */
    InvocationOutcome invokeGuarded(Plugin &plugin, std::uint64_t attempt,
                                    TimePoint now, std::uint64_t span_id);

    /**
     * Book one invocation: TaskStats (record, invocations,
     * exceptions) and a Span. The caller builds @p rec on its own
     * timeline; @p worker is the 1-based pool worker (0 = none).
     * Callers that run workers concurrently hold their scheduling
     * lock.
     */
    void recordInvocation(TaskSlot &slot, const InvocationRecord &rec,
                          const InvocationOutcome &out,
                          std::uint64_t span_id, std::uint32_t worker);

    /** Book an arrival dropped because the task was still busy. */
    void recordOverrun(TaskSlot &slot, TimePoint t);

    /** Plugin::start() in registration order (idempotent per run). */
    void startPlugins();

    /** Plugin::stop() in reverse registration order. */
    void stopPlugins();

    /**
     * Block for @p duration, or until requestStop() — the wall-clock
     * run() body sleeps through this so an eviction never has to wait
     * out the configured duration.
     */
    void interruptibleSleep(Duration duration);

    std::shared_ptr<TraceSink> sink_;
    MetricsRegistry *metrics_ = nullptr;
    const Phonebook *phonebook_ = nullptr;
    InvocationInterceptor *interceptor_ = nullptr;
    std::atomic<bool> stop_requested_{false};

  private:
    std::vector<TaskSlot *> slots_; ///< Registration order.
    bool started_ = false;
    std::mutex stop_request_mutex_;
    std::condition_variable stop_request_cv_;
};

} // namespace illixr
