#include "metrics/mtp.hpp"

#include <algorithm>

namespace illixr {

MtpSeries
computeMtp(const TaskStats &reproj, const std::vector<double> &imu_age_ms,
           Duration vsync)
{
    MtpSeries out;
    std::size_t age = 0;
    for (const InvocationRecord &rec : reproj.records) {
        // Display happens at the first vsync boundary at or after the
        // reprojection completes.
        const TimePoint display =
            ((rec.completion + vsync - 1) / vsync) * vsync;
        if (rec.target_vsync != 0 && display > rec.target_vsync)
            ++out.missed_vsync;
        if (rec.exception || age == imu_age_ms.size())
            continue;
        const double imu_age = imu_age_ms[age++];
        const double swap_ms = toMilliseconds(display - rec.completion);
        const double reproj_ms = toMilliseconds(rec.virtual_duration);
        out.latency_ms.add(imu_age + reproj_ms + swap_ms);
        out.imu_age_ms.add(imu_age);
        out.reprojection_ms.add(reproj_ms);
        out.swap_ms.add(swap_ms);
    }
    return out;
}

LineageMtp
computeLineageMtp(const TraceSink &sink, Duration vsync,
                  const std::string &frame_topic,
                  const std::vector<std::string> &stage_topics)
{
    LineageMtp out;
    for (const EventRecord *frame : sink.eventsOnTopic(frame_topic)) {
        ++out.frames;

        // The producing (reprojection) span pins the frame on the
        // timeline; fall back to the publish time when untraced.
        const Span *span = sink.producingSpan(frame->id);
        const TimePoint completion =
            span ? span->completion : frame->publish_time;
        const TimePoint display =
            vsync > 0 ? ((completion + vsync - 1) / vsync) * vsync
                      : completion;

        bool complete = true;
        const EventRecord *imu = nullptr;
        for (const std::string &topic : stage_topics) {
            const EventRecord *anc =
                sink.latestAncestorOn(frame->id, topic);
            if (!anc) {
                complete = false;
                continue;
            }
            out.stage_to_photon_ms[topic].add(toMilliseconds(
                std::max<Duration>(0, display - anc->event_time)));
            if (topic == "imu")
                imu = anc;
        }
        if (complete)
            ++out.resolved;

        // §III-E decomposition, lineage edition: the IMU age is how
        // stale the newest IMU sample in the frame's ancestry was at
        // warp time.
        const double imu_age =
            imu ? toMilliseconds(std::max<Duration>(
                      0, frame->publish_time - imu->event_time))
                : 0.0;
        const double reproj =
            span ? toMilliseconds(span->completion - span->start) : 0.0;
        const double swap = toMilliseconds(display - completion);
        out.mtp.imu_age_ms.add(imu_age);
        out.mtp.reprojection_ms.add(reproj);
        out.mtp.swap_ms.add(swap);
        out.mtp.latency_ms.add(imu_age + reproj + swap);
    }
    return out;
}

} // namespace illixr
