/**
 * @file
 * Lightweight task-level profiler.
 *
 * The paper's Tables VI and VII break each component's execution into
 * algorithmic tasks (e.g., VIO: feature detection, matching, MSCKF
 * update, ...) and report the share of time each consumes. Components
 * in this testbed wrap their task bodies in ScopedTask so those
 * shares are measured from the real implementation rather than
 * asserted. The accumulated host time is also the base "work" input
 * to the platform timing model (see perfmodel).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace illixr {

/**
 * Per-component accumulator of task execution times.
 */
class TaskProfile
{
  public:
    /** Add @p seconds to the named task's bucket. */
    void add(const std::string &task, double seconds);

    /** Total accumulated time across tasks. */
    double totalSeconds() const;

    /** Accumulated time of one task (0 if absent). */
    double taskSeconds(const std::string &task) const;

    /** Share of the total for one task, in [0, 1]. */
    double taskShare(const std::string &task) const;

    /** Task names in insertion order. */
    const std::vector<std::string> &taskNames() const { return order_; }

    void reset();

  private:
    std::map<std::string, double> seconds_;
    std::vector<std::string> order_;
};

/**
 * RAII timer: measures a scope and accumulates into a TaskProfile.
 */
class ScopedTask
{
  public:
    ScopedTask(TaskProfile &profile, std::string task)
        : profile_(profile), task_(std::move(task)),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTask() { finish(); }

    /** Stop timing early (idempotent; destructor becomes a no-op). */
    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;
        const auto end = std::chrono::steady_clock::now();
        profile_.add(task_,
                     std::chrono::duration<double>(end - start_).count());
    }

    ScopedTask(const ScopedTask &) = delete;
    ScopedTask &operator=(const ScopedTask &) = delete;

  private:
    TaskProfile &profile_;
    std::string task_;
    std::chrono::steady_clock::time_point start_;
    bool finished_ = false;
};

/** Monotonic host time in seconds (for per-invocation measurements). */
double hostTimeSeconds();

/**
 * CPU seconds the calling thread has run. Unlike hostTimeSeconds() it
 * does not advance while the thread is preempted or blocked.
 */
double threadCpuSeconds();

} // namespace illixr
