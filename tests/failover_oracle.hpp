/**
 * @file
 * Exact failover oracles for offloaded runs, shared by the offload,
 * resilience and edge suites.
 */

#pragma once

#include "xr/illixr_system.hpp"
#include "xr/plugins.hpp"

#include <gtest/gtest.h>

#include <string>

namespace illixr {

/** Every frame that does not come back as a served pose (lost on the
 *  uplink or downlink, shed, or rejected) is answered locally, once. */
inline void
expectFailoverAccounting(const IntegratedResult &r,
                         const std::string &who = "")
{
    const auto &x = r.extra;
    EXPECT_EQ(x.at("failover_poses"), x.at("frames_lost") +
                                          x.at("edge_shed") +
                                          x.at("edge_rejected"))
        << who;
}

/**
 * Frames a total link blackout over [start, start + length) loses in
 * a run of @p run at the default camera rate: the client sends frame k
 * on camera tick k and reads its pose on tick k + 1, so the frame is
 * lost when either tick falls inside the window.
 */
inline double
framesLostToBlackout(TimePoint start, Duration length, Duration run)
{
    const Duration period = periodFromHz(SystemTuning{}.camera_hz);
    auto inside = [&](TimePoint t) {
        return t >= start && t < start + length;
    };
    double lost = 0.0;
    for (TimePoint tick = 0; tick < run; tick += period)
        if (inside(tick) || inside(tick + period))
            lost += 1.0;
    return lost;
}

} // namespace illixr
