#include "foundation/profile.hpp"

#include <ctime>

namespace illixr {

void
TaskProfile::add(const std::string &task, double seconds)
{
    auto it = seconds_.find(task);
    if (it == seconds_.end()) {
        seconds_.emplace(task, seconds);
        order_.push_back(task);
    } else {
        it->second += seconds;
    }
}

double
TaskProfile::totalSeconds() const
{
    double acc = 0.0;
    for (const auto &[name, s] : seconds_)
        acc += s;
    return acc;
}

double
TaskProfile::taskSeconds(const std::string &task) const
{
    auto it = seconds_.find(task);
    return it == seconds_.end() ? 0.0 : it->second;
}

double
TaskProfile::taskShare(const std::string &task) const
{
    const double total = totalSeconds();
    if (total <= 0.0)
        return 0.0;
    return taskSeconds(task) / total;
}

void
TaskProfile::reset()
{
    seconds_.clear();
    order_.clear();
}

double
hostTimeSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace illixr
