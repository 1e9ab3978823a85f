/**
 * @file
 * Synthetic sensor dataset: the offline camera+IMU source of
 * paper §II-B ("Offline, pre-recorded datasets can be fed to all
 * parts of ILLIXR") and the stand-in for EuRoC Vicon Room 1 Medium
 * and the ZED live walk.
 *
 * IMU samples and ground-truth poses are pre-generated; camera and
 * depth frames are rendered lazily (and deterministically) so a
 * 30-second dataset does not hold hundreds of frames in memory.
 */

#pragma once

#include "foundation/pose.hpp"
#include "image/image.hpp"
#include "sensors/camera.hpp"
#include "sensors/imu.hpp"
#include "sensors/scenario.hpp"
#include "sensors/trajectory.hpp"
#include "sensors/world.hpp"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace illixr {

/** Dataset generation parameters. */
struct DatasetConfig
{
    double duration_s = 30.0;
    double imu_rate_hz = 500.0;    ///< Paper Table III tuned value.
    double camera_rate_hz = 15.0;  ///< Paper Table III tuned value.
    int image_width = 320;         ///< Scaled-down VGA (see DESIGN.md).
    int image_height = 240;
    double camera_fov_rad = 1.5;   ///< ~86 degrees horizontal.
    unsigned seed = 1;
    ImuNoiseModel imu_noise;

    enum class Preset { LabWalk, ViconRoom, SlowScan };
    Preset preset = Preset::LabWalk;

    /**
     * When set, the scenario overrides the preset: trajectory, world
     * (feature density / lighting / occluders) and IMU noise grade
     * all come from the scenario. A scenario with seed != 0 also
     * overrides `seed`, and one with imu_rate_hz > 0 overrides
     * `imu_rate_hz` (camera rate and image geometry stay with the
     * runtime config).
     */
    std::optional<Scenario> scenario;
};

/** One camera frame with its capture timestamp. */
struct CameraFrame
{
    TimePoint time = 0;
    std::size_t sequence = 0;
    ImageF image;
};

/** One depth frame with its capture timestamp. */
struct DepthFrame
{
    TimePoint time = 0;
    std::size_t sequence = 0;
    DepthImage depth;
};

/**
 * Deterministic synthetic dataset.
 */
class SyntheticDataset
{
  public:
    explicit SyntheticDataset(const DatasetConfig &config);

    const DatasetConfig &config() const { return config_; }
    const CameraRig &rig() const { return rig_; }
    const SyntheticWorld &world() const { return world_; }
    const Trajectory &trajectory() const { return trajectory_; }

    /** All IMU samples, time-ordered. */
    const std::vector<ImuSample> &imuSamples() const { return imu_; }

    /** Number of camera frames in the dataset. */
    std::size_t cameraFrameCount() const { return cameraTimes_.size(); }

    /** Timestamp of camera frame @p index. */
    TimePoint cameraTime(std::size_t index) const
    {
        return cameraTimes_[index];
    }

    /** Render (lazily) camera frame @p index. */
    CameraFrame cameraFrame(std::size_t index) const;

    /**
     * cameraFrame(@p index) into @p frame, whose image must already be
     * rig().intrinsics sized (pixels only; no allocation).
     */
    void renderCameraFrame(std::size_t index, CameraFrame &frame) const;

    /** Render (lazily) a depth frame at camera timestamp @p index. */
    DepthFrame depthFrame(std::size_t index,
                          double dropout_fraction = 0.01) const;

    /** Ground-truth body pose at an arbitrary time. */
    Pose groundTruthPose(TimePoint t) const;

    /** Ground-truth poses sampled at every camera timestamp. */
    std::vector<StampedPose> groundTruthTrajectory() const;

  private:
    DatasetConfig config_;
    Trajectory trajectory_;
    SyntheticWorld world_;
    CameraRig rig_;
    std::vector<ImuSample> imu_;
    std::vector<TimePoint> cameraTimes_;
};

} // namespace illixr
