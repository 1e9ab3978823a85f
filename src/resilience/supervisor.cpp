#include "resilience/supervisor.hpp"

#include <algorithm>

namespace illixr {

Supervisor::Supervisor(Switchboard &switchboard, MetricsRegistry *metrics,
                       SupervisorPolicy policy)
    : policy_(policy), metrics_(metrics),
      health_(switchboard.writer<HealthEvent>(topics::kHealth))
{
    if (metrics_) {
        restartCounter_ = &metrics_->counter("resilience.restarts");
        exceptionCounter_ = &metrics_->counter("resilience.exceptions");
        suppressedCounter_ =
            &metrics_->counter("resilience.suppressed");
    }
}

Duration
Supervisor::backoffFor(std::size_t restart_streak) const
{
    double backoff = static_cast<double>(policy_.initial_backoff);
    for (std::size_t i = 1; i < restart_streak; ++i)
        backoff *= policy_.backoff_factor;
    backoff = std::min(backoff, static_cast<double>(policy_.max_backoff));
    return static_cast<Duration>(backoff);
}

PreInvocationAction
Supervisor::before(Plugin &plugin, std::uint64_t attempt, TimePoint now)
{
    (void)attempt;
    PreInvocationAction pre;
    bool restart = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TaskState &state = states_[plugin.name()];
        if (state.down) {
            if (now < state.restart_at) {
                pre.suppress = true;
                if (suppressedCounter_)
                    suppressedCounter_->add();
                return pre;
            }
            // Backoff elapsed: bring the plugin back up. stop() +
            // start() is the whole restart contract — plugins own
            // whatever internal state needs resetting.
            state.down = false;
            state.consecutive_exceptions = 0;
            state.healthy = 0;
            ++restarts_;
            if (restartCounter_)
                restartCounter_->add();
            restart = true;
        }
    }
    if (restart) {
        static const Phonebook empty;
        plugin.stop();
        plugin.start(phonebook_ ? *phonebook_ : empty);
        publish(HealthKind::Restart, plugin.name(),
                "restarted after backoff", now);
    }
    return pre;
}

void
Supervisor::after(Plugin &plugin, TimePoint now,
                  const InvocationOutcome &outcome)
{
    if (outcome.suppressed)
        return;
    const std::string &name = plugin.name();

    bool went_down = false;
    Duration backoff = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TaskState &state = states_[name];
        if (outcome.exception) {
            ++exceptions_;
            if (exceptionCounter_)
                exceptionCounter_->add();
            state.healthy = 0;
            if (++state.consecutive_exceptions >=
                    policy_.exception_threshold &&
                !state.down) {
                state.down = true;
                ++state.restart_streak;
                backoff = backoffFor(state.restart_streak);
                state.restart_at = now + backoff;
                went_down = true;
            }
        } else if (outcome.ran) {
            state.consecutive_exceptions = 0;
            if (++state.healthy >= policy_.healthy_streak)
                state.restart_streak = 0;
        }
    }
    if (outcome.exception)
        publish(HealthKind::Exception, name, outcome.error, now);
    if (went_down)
        publish(HealthKind::Restart, name,
                "down; restart in " +
                    std::to_string(toMilliseconds(backoff)) + " ms",
                now);

    // Deadline-miss watchdog: sustained overrun skips, observed via
    // the executor's interned per-task counters.
    if (policy_.miss_report_threshold > 0 && metrics_) {
        std::uint64_t missed = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            TaskState &state = states_[name];
            if (!state.skips_counter)
                state.skips_counter =
                    &metrics_->counter("task." + name + ".skips");
            const std::uint64_t skips = state.skips_counter->value();
            if (skips - state.last_skips >=
                policy_.miss_report_threshold) {
                missed = skips - state.last_skips;
                state.last_skips = skips;
            }
        }
        if (missed)
            publish(HealthKind::DeadlineMiss, name,
                    std::to_string(missed) + " deadline misses", now);
    }
}

void
Supervisor::publish(HealthKind kind, const std::string &task,
                    std::string detail, TimePoint now)
{
    auto event = makeEvent<HealthEvent>();
    event->time = now;
    event->kind = kind;
    event->task = task;
    event->detail = std::move(detail);
    health_.put(std::move(event));
}

std::uint64_t
Supervisor::restarts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return restarts_;
}

std::uint64_t
Supervisor::exceptionsSeen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return exceptions_;
}

bool
Supervisor::isDown(const std::string &task) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = states_.find(task);
    return it != states_.end() && it->second.down;
}

} // namespace illixr
