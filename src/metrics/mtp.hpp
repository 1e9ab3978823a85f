/**
 * @file
 * Motion-to-photon (MTP) latency, computed exactly as §III-E:
 *
 *     latency = t_imu_age + t_reprojection + t_swap
 *
 * where t_imu_age is the age of the IMU-derived pose the reprojection
 * used, t_reprojection is the reprojection's own execution time, and
 * t_swap is the wait until the frame buffer is accepted for display
 * (the next vsync at or after completion). t_display is excluded,
 * as in the paper.
 */

#pragma once

#include "foundation/stats.hpp"
#include "runtime/executor.hpp"
#include "trace/trace.hpp"

#include <map>
#include <string>
#include <vector>

namespace illixr {

/** MTP series for a run. */
struct MtpSeries
{
    SampleSeries latency_ms;
    SampleSeries imu_age_ms;
    SampleSeries reprojection_ms;
    SampleSeries swap_ms;
    std::size_t missed_vsync = 0; ///< Invocations completing after target.
};

/**
 * Combine the scheduler's reprojection invocation records with the
 * per-invocation IMU-age samples published by the reprojection
 * plugin. An invocation that threw logged no age, so the ages pair
 * in order with the records that did not throw; a record that threw
 * adds no latency sample. missed_vsync counts every record that
 * completed after its target vsync, thrown or not.
 *
 * @param reproj       TaskStats of the vsync-aligned reprojection.
 * @param imu_age_ms   IMU age logged per invocation that returned.
 * @param vsync        Display refresh period.
 */
MtpSeries computeMtp(const TaskStats &reproj,
                     const std::vector<double> &imu_age_ms,
                     Duration vsync);

/**
 * MTP derived from the causal trace instead of index-aligned plugin
 * logs: every displayed frame is resolved through its parent links to
 * the pose/IMU/camera events it was actually computed from.
 */
struct LineageMtp
{
    /** Same decomposition as computeMtp, but per traced frame. */
    MtpSeries mtp;

    /**
     * Stage-to-photon latency per upstream topic: time from the
     * frame's latest ancestor on that topic to the frame's display
     * vsync (ms). Keys are the stage topic names.
     */
    std::map<std::string, SampleSeries> stage_to_photon_ms;

    std::size_t frames = 0;   ///< Displayed frames traced.
    std::size_t resolved = 0; ///< Frames with camera + IMU lineage.
};

/**
 * Walk the trace: for each event on @p frame_topic, find the warp
 * span that produced it, its display vsync, and its latest ancestor
 * on each of @p stage_topics.
 */
LineageMtp computeLineageMtp(const TraceSink &sink, Duration vsync,
                             const std::string &frame_topic,
                             const std::vector<std::string> &stage_topics);

} // namespace illixr
