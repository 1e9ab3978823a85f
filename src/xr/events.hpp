/**
 * @file
 * Concrete switchboard event types flowing between the ILLIXR
 * plugins (the arrows of paper Fig 2).
 */

#pragma once

#include "audio/ambisonics.hpp"
#include "render/app.hpp"
#include "runtime/switchboard.hpp"
#include "sensors/dataset.hpp"
#include "sensors/imu.hpp"
#include "slam/imu_integrator.hpp"

namespace illixr {

/** Topic names used by the integrated system. */
namespace topics {
inline constexpr const char *kCamera = "camera";
inline constexpr const char *kImu = "imu";
inline constexpr const char *kSlowPose = "slow_pose";      ///< VIO out.
inline constexpr const char *kFastPose = "fast_pose";      ///< Integrator.
inline constexpr const char *kSubmittedFrame = "submitted_frame";
inline constexpr const char *kDisplayFrame = "display_frame";
inline constexpr const char *kSoundfield = "soundfield";
inline constexpr const char *kStereoAudio = "stereo_audio";
} // namespace topics

/** A camera frame on the "camera" topic. */
struct CameraFrameEvent : Event
{
    ImageF image;
    std::size_t sequence = 0;
};

/** An IMU sample on the "imu" topic. */
struct ImuEvent : Event
{
    ImuSample sample;
};

/** A full IMU state (pose + velocity + biases) on a pose topic. */
struct PoseEvent : Event
{
    ImuState state;
};

/** The application's rendered stereo frame. */
struct StereoFrameEvent : Event
{
    StereoFrame frame;
};

/** The reprojected frame headed for the display. */
struct DisplayFrameEvent : Event
{
    RgbImage left;
    RgbImage right;
};

/** An encoded HOA block on the "soundfield" topic. */
struct SoundfieldEvent : Event
{
    explicit SoundfieldEvent(std::size_t block) : field(block) {}
    Soundfield field;
    std::size_t block_index = 0;
};

/** The binauralized output block. */
struct StereoAudioEvent : Event
{
    std::vector<double> left;
    std::vector<double> right;
};

} // namespace illixr
