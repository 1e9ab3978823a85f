#include "xr/openxr_mini.hpp"

#include "xr/events.hpp"

namespace illixr {

XrSession::XrSession(std::shared_ptr<Switchboard> switchboard,
                     double ipd_m, Duration vsync)
    : fastPoseReader_(
          switchboard->asyncReader<PoseEvent>(topics::kFastPose)),
      submittedWriter_(
          switchboard->writer<StereoFrameEvent>(topics::kSubmittedFrame)),
      ipd_(ipd_m), vsync_(vsync)
{
}

void
XrSession::begin()
{
    state_ = XrSessionState::Focused;
}

void
XrSession::end()
{
    state_ = XrSessionState::Stopping;
}

TimePoint
XrSession::waitFrame(TimePoint now) const
{
    // Predicted display time: the next vsync boundary after "now"
    // plus one frame of pipeline latency.
    const TimePoint next_vsync = ((now / vsync_) + 1) * vsync_;
    return next_vsync + vsync_;
}

std::array<XrView, 2>
XrSession::locateViews(TimePoint display_time) const
{
    Pose head = Pose::identity();
    if (auto pose = fastPoseReader_.latest()) {
        head = pose->state.pose();
        // First-order prediction toward the display time using the
        // integrator's velocity (§II-A footnote 3).
        const double dt = toSeconds(display_time - pose->state.time);
        if (dt > 0.0 && dt < 0.1)
            head.position += pose->state.velocity * dt;
    }
    std::array<XrView, 2> views;
    views[0].pose = eyePose(head, ipd_, true);
    views[1].pose = eyePose(head, ipd_, false);
    return views;
}

void
XrSession::endFrame(StereoFrame frame, TimePoint now)
{
    auto event = makeEvent<StereoFrameEvent>();
    event->time = now;
    event->frame = std::move(frame);
    submittedWriter_.put(std::move(event));
    ++submitted_;
}

} // namespace illixr
