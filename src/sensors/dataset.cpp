#include "sensors/dataset.hpp"

namespace illixr {

namespace {

/** Scenario seed wins when set; otherwise the runtime seed. */
unsigned
effectiveSeed(const DatasetConfig &cfg)
{
    if (cfg.scenario && cfg.scenario->seed != 0)
        return cfg.scenario->seed;
    return cfg.seed;
}

Trajectory
makeTrajectory(const DatasetConfig &cfg)
{
    if (cfg.scenario)
        return cfg.scenario->makeTrajectory(effectiveSeed(cfg));
    switch (cfg.preset) {
      case DatasetConfig::Preset::LabWalk:
        return Trajectory::labWalk(cfg.seed);
      case DatasetConfig::Preset::ViconRoom:
        return Trajectory::viconRoom(cfg.seed);
      case DatasetConfig::Preset::SlowScan:
        return Trajectory::slowScan(cfg.seed);
    }
    return Trajectory::labWalk(cfg.seed);
}

SyntheticWorld
makeWorld(const DatasetConfig &cfg)
{
    if (cfg.scenario)
        return cfg.scenario->makeWorld(effectiveSeed(cfg) + 100);
    return SyntheticWorld::labRoom(cfg.seed + 100);
}

} // namespace

SyntheticDataset::SyntheticDataset(const DatasetConfig &config)
    : config_(config), trajectory_(makeTrajectory(config)),
      world_(makeWorld(config)),
      rig_(CameraRig::standard(CameraIntrinsics::fromFov(
          config.image_width, config.image_height, config.camera_fov_rad)))
{
    const ImuNoiseModel noise =
        config.scenario ? config.scenario->imuNoise() : config.imu_noise;
    const double imu_rate =
        (config.scenario && config.scenario->imu_rate_hz > 0.0)
            ? config.scenario->imu_rate_hz
            : config.imu_rate_hz;
    ImuSensor imu_sensor(trajectory_, noise, imu_rate,
                         effectiveSeed(config) + 7);
    imu_ = imu_sensor.generate(config.duration_s);

    const double cam_dt = 1.0 / config.camera_rate_hz;
    for (double t = 0.0; t <= config.duration_s; t += cam_dt)
        cameraTimes_.push_back(fromSeconds(t));
}

CameraFrame
SyntheticDataset::cameraFrame(std::size_t index) const
{
    CameraFrame frame;
    frame.image = ImageF(rig_.intrinsics.width, rig_.intrinsics.height);
    renderCameraFrame(index, frame);
    return frame;
}

void
SyntheticDataset::renderCameraFrame(std::size_t index,
                                    CameraFrame &frame) const
{
    frame.time = cameraTimes_[index];
    frame.sequence = index;
    const Pose body = trajectory_.pose(toSeconds(frame.time));
    world_.renderGrayInto(rig_.intrinsics, rig_.worldToCamera(body),
                          frame.image);
}

DepthFrame
SyntheticDataset::depthFrame(std::size_t index,
                             double dropout_fraction) const
{
    DepthFrame frame;
    frame.time = cameraTimes_[index];
    frame.sequence = index;
    const Pose body = trajectory_.pose(toSeconds(frame.time));
    frame.depth = world_.renderDepth(
        rig_.intrinsics, rig_.worldToCamera(body), dropout_fraction,
        static_cast<unsigned>(config_.seed + index));
    return frame;
}

Pose
SyntheticDataset::groundTruthPose(TimePoint t) const
{
    return trajectory_.pose(toSeconds(t));
}

std::vector<StampedPose>
SyntheticDataset::groundTruthTrajectory() const
{
    std::vector<StampedPose> out;
    out.reserve(cameraTimes_.size());
    for (TimePoint t : cameraTimes_) {
        StampedPose sp;
        sp.time = t;
        sp.pose = groundTruthPose(t);
        out.push_back(sp);
    }
    return out;
}

} // namespace illixr
