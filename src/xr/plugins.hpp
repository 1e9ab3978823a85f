/**
 * @file
 * The ILLIXR component plugins (paper Table II / Fig 2), each
 * implemented against the switchboard-only interface:
 *
 *   perception: offline_camera, offline_imu, vio, imu_integrator
 *   visual:     application (via OpenXR-mini), timewarp
 *   audio:      audio_encoding, audio_playback
 *
 * Eye tracking, scene reconstruction, and hologram run standalone
 * (paper §III-B: no OpenXR interface consumed their outputs), driven
 * by the standalone benches.
 */

#pragma once

#include "audio/audio_pipeline.hpp"
#include "render/app.hpp"
#include "resilience/fault_injector.hpp"
#include "runtime/plugin.hpp"
#include "sensors/dataset.hpp"
#include "slam/imu_integrator.hpp"
#include "slam/integrator_alternatives.hpp"
#include "slam/msckf.hpp"
#include "visual/timewarp.hpp"
#include "xr/events.hpp"
#include "xr/openxr_mini.hpp"

#include <memory>
#include <vector>

namespace illixr {

/** Table III tuned system parameters. */
struct SystemTuning
{
    double camera_hz = 15.0;   ///< Camera/VIO rate.
    double imu_hz = 500.0;     ///< IMU/integrator rate.
    double display_hz = 120.0; ///< Application + reprojection rate.
    double audio_hz = 48.0;    ///< Audio block rate.
    std::size_t audio_block = 1024;
};

/**
 * Shared dataset service: the pre-recorded sensor streams (paper
 * §II-B offline datasets) with camera frames pre-rendered so that
 * the camera plugin's modeled cost reflects camera *processing*, not
 * the synthetic world's raycasting.
 */
struct PreloadedDataset
{
    PreloadedDataset(const DatasetConfig &config, Duration duration);

    SyntheticDataset dataset;
    std::vector<CameraFrame> camera_frames;
    std::vector<ImuSample> imu_samples;
};

/** Camera component (ZED-SDK stand-in): replays recorded frames. */
class CameraPlugin : public Plugin
{
  public:
    CameraPlugin(const Phonebook &pb, const SystemTuning &tuning);
    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.camera_hz);
    }

  private:
    SystemTuning tuning_;
    std::shared_ptr<PreloadedDataset> data_;
    Switchboard::Writer<CameraFrameEvent> cameraWriter_;
    std::size_t next_ = 0;
};

/** IMU component: replays recorded samples at the IMU rate. */
class ImuPlugin : public Plugin
{
  public:
    ImuPlugin(const Phonebook &pb, const SystemTuning &tuning);
    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.imu_hz);
    }
    bool skipOnOverrun() const override { return false; }

  private:
    SystemTuning tuning_;
    std::shared_ptr<PreloadedDataset> data_;
    Switchboard::Writer<ImuEvent> imuWriter_;
    std::size_t next_ = 0;
};

/** Head tracking: the MSCKF VIO on the camera + IMU streams. */
class VioPlugin : public Plugin
{
  public:
    VioPlugin(const Phonebook &pb, const SystemTuning &tuning);
    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.camera_hz);
    }

    const std::vector<StampedPose> &trajectory() const
    {
        return trajectory_;
    }
    const std::vector<StampedPose> *
    vioTrajectory() const override
    {
        return &trajectory_;
    }
    const VioSystem &vio() const { return *vio_; }

  private:
    SystemTuning tuning_;
    std::shared_ptr<PreloadedDataset> data_;
    Switchboard::Reader<CameraFrameEvent> cameraReader_;
    Switchboard::Reader<ImuEvent> imuReader_;
    Switchboard::Writer<PoseEvent> slowPoseWriter_;
    std::unique_ptr<VioSystem> vio_;
    std::vector<StampedPose> trajectory_;
    bool initialized_ = false;
};

/**
 * High-rate pose: integration on top of the latest VIO state. The
 * integration method is selectable ("rk4" or "midpoint"), mirroring
 * paper Table II's two interchangeable IMU-integrator
 * implementations (RK4* / GTSAM).
 */
class IntegratorPlugin : public Plugin
{
  public:
    IntegratorPlugin(const Phonebook &pb, const SystemTuning &tuning,
                     const std::string &method = "rk4");
    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.imu_hz);
    }
    bool skipOnOverrun() const override { return false; }

    const char *method() const { return integrator_->method(); }

  private:
    SystemTuning tuning_;
    Switchboard::Reader<ImuEvent> imuReader_;
    Switchboard::AsyncReader<PoseEvent> slowPoseReader_;
    Switchboard::Writer<PoseEvent> fastPoseWriter_;
    std::unique_ptr<PoseIntegrator> integrator_;
    TimePoint lastCorrection_ = -1;
};

/**
 * The application: OpenXR-mini frame loop around an XrApplication.
 *
 * With @p adaptive_resolution enabled, the plugin closes a QoE
 * control loop (paper §V-D "QoE-driven resource management ...
 * approximation"): it watches its own achieved frame interval and
 * trades per-eye resolution for frame rate — shrinking when frames
 * keep missing display slots, growing back when they are
 * consistently on time.
 */
class ApplicationPlugin : public Plugin
{
  public:
    ApplicationPlugin(const Phonebook &pb, const SystemTuning &tuning,
                      AppId app, const AppConfig &app_config,
                      bool adaptive_resolution = false);
    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.display_hz);
    }
    ExecUnit execUnit() const override { return ExecUnit::GpuGraphics; }

    const XrApplication &app() const { return app_; }
    int currentEyeResolution() const { return currentRes_; }
    int minEyeResolution() const { return minResSeen_; }

  private:
    void adaptResolution(TimePoint now);

    SystemTuning tuning_;
    std::shared_ptr<Switchboard> sb_;
    XrApplication app_;
    std::unique_ptr<XrSession> session_;
    bool adaptive_ = false;
    int initialRes_ = 0;
    int currentRes_ = 0;
    int minResSeen_ = 0;
    int staleWindow_ = 0;   ///< Missed-slot frames in the window.
    int freshWindow_ = 0;   ///< On-time frames in the window.
    Duration windowSpan_ = 0; ///< Frame intervals summed over the window.
    TimePoint lastFeedback_ = -1; ///< Previous rendered-frame time.
};

/** Asynchronous reprojection (vsync-aligned by the scheduler). */
class TimewarpPlugin : public Plugin
{
  public:
    TimewarpPlugin(const Phonebook &pb, const SystemTuning &tuning,
                   const TimewarpParams &params);
    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.display_hz);
    }
    ExecUnit execUnit() const override { return ExecUnit::GpuGraphics; }

    /** IMU pose age per invocation that returned (for computeMtp). */
    const std::vector<double> &imuAgesMs() const { return imuAges_; }

  private:
    SystemTuning tuning_;
    Switchboard::AsyncReader<StereoFrameEvent> submittedReader_;
    Switchboard::AsyncReader<PoseEvent> fastPoseReader_;
    Switchboard::Writer<DisplayFrameEvent> displayWriter_;
    Timewarp warp_;
    std::vector<double> imuAges_;
};

/** Ambisonic encoding of the scene's sound sources. */
class AudioEncoderPlugin : public Plugin
{
  public:
    AudioEncoderPlugin(const Phonebook &pb, const SystemTuning &tuning);
    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.audio_hz);
    }

    std::size_t blocksEncoded() const { return block_; }

    /**
     * The lecture (SpeechLike, seed 3) and radio (Music, seed 4)
     * clips every encoder plays: 4 s of 48 kHz PCM, synthesized once
     * per process on first use (thread-safe) and shared read-only.
     */
    static std::shared_ptr<const std::vector<std::int16_t>> lectureClip();
    static std::shared_ptr<const std::vector<std::int16_t>> radioClip();

  private:
    SystemTuning tuning_;
    Switchboard::Writer<SoundfieldEvent> soundfieldWriter_;
    AudioEncoder encoder_;
    std::size_t block_ = 0;
};

/** Binauralization of the soundfield with the listener's pose. */
class AudioPlaybackPlugin : public Plugin
{
  public:
    AudioPlaybackPlugin(const Phonebook &pb, const SystemTuning &tuning);
    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.audio_hz);
    }

  private:
    SystemTuning tuning_;
    Switchboard::AsyncReader<SoundfieldEvent> soundfieldReader_;
    Switchboard::AsyncReader<PoseEvent> fastPoseReader_;
    Switchboard::Writer<StereoAudioEvent> stereoWriter_;
    AudioPlayback playback_;
};

/** Register all component factories with the global registry. */
void registerIllixrPlugins();

/**
 * The run's FaultInjector for @p plan, or nullptr when the plan is
 * inactive. Its publish hook is installed on @p switchboard here, so
 * build it before any plugin publishes; the caller installs it as the
 * executor's interceptor and keeps it alive for the run. Topic faults
 * of a plan that names no topics hit the sensor streams (camera +
 * imu), and corrupt= faults there use the sensor corrupters: a
 * torn-readout glitch band for camera frames and an accelerometer
 * spike for IMU samples.
 */
std::unique_ptr<FaultInjector> makeFaultInjector(FaultPlan plan,
                                                 Switchboard &switchboard,
                                                 MetricsRegistry *metrics);

} // namespace illixr
