#include "xr/plugins.hpp"

#include "audio/clips.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>

namespace illixr {

PreloadedDataset::PreloadedDataset(const DatasetConfig &config,
                                   Duration duration)
    : dataset(config), imu_samples(dataset.imuSamples())
{
    // Pre-render every camera frame the run can consume, one tile per
    // frame. The images are allocated here, on the launching thread;
    // the tiles only write pixels, and a frame is a pure function of
    // its pose, so the frames are bit-identical at every kernel width.
    std::size_t n = 0;
    while (n < dataset.cameraFrameCount() &&
           dataset.cameraTime(n) <= duration)
        ++n;
    const CameraIntrinsics &intr = dataset.rig().intrinsics;
    camera_frames.resize(n);
    for (CameraFrame &frame : camera_frames)
        frame.image = ImageF(intr.width, intr.height);
    parallelFor("dataset_render", 0, n, 1,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i)
                        dataset.renderCameraFrame(i, camera_frames[i]);
                });
}

// ---------------------------------------------------------------- Camera

CameraPlugin::CameraPlugin(const Phonebook &pb, const SystemTuning &tuning)
    : Plugin("camera"), tuning_(tuning), data_(pb.lookup<PreloadedDataset>()),
      cameraWriter_(
          pb.lookup<Switchboard>()->writer<CameraFrameEvent>(topics::kCamera))
{
}

void
CameraPlugin::iterate(TimePoint now)
{
    // Publish every recorded frame with capture time <= now. The
    // microsecond slack absorbs float-accumulated dataset timestamps
    // landing nanoseconds after the scheduler's integer period grid
    // (without it every frame would be published one period late).
    while (next_ < data_->camera_frames.size() &&
           data_->camera_frames[next_].time <= now + kMicrosecond) {
        const CameraFrame &src = data_->camera_frames[next_];
        auto event = makeEvent<CameraFrameEvent>();
        event->time = src.time;
        event->sequence = src.sequence;
        // Camera processing cost: the SDK's rectification pass is
        // emulated by a copy + per-pixel gain (debayer/rectify-like).
        event->image = src.image;
        for (int y = 0; y < event->image.height(); ++y)
            for (int x = 0; x < event->image.width(); ++x)
                event->image.at(x, y) =
                    std::min(1.0f, event->image.at(x, y) * 1.0f);
        cameraWriter_.put(std::move(event));
        ++next_;
    }
}

// ------------------------------------------------------------------- IMU

ImuPlugin::ImuPlugin(const Phonebook &pb, const SystemTuning &tuning)
    : Plugin("imu"), tuning_(tuning), data_(pb.lookup<PreloadedDataset>()),
      imuWriter_(pb.lookup<Switchboard>()->writer<ImuEvent>(topics::kImu))
{
}

void
ImuPlugin::iterate(TimePoint now)
{
    while (next_ < data_->imu_samples.size() &&
           data_->imu_samples[next_].time <= now + kMicrosecond) {
        auto event = makeEvent<ImuEvent>();
        event->time = data_->imu_samples[next_].time;
        event->sample = data_->imu_samples[next_];
        imuWriter_.put(std::move(event));
        ++next_;
    }
}

// ------------------------------------------------------------------- VIO

VioPlugin::VioPlugin(const Phonebook &pb, const SystemTuning &tuning)
    : Plugin("vio"), tuning_(tuning), data_(pb.lookup<PreloadedDataset>()),
      cameraReader_(
          pb.lookup<Switchboard>()->reader<CameraFrameEvent>(topics::kCamera)),
      imuReader_(pb.lookup<Switchboard>()->reader<ImuEvent>(topics::kImu)),
      slowPoseWriter_(
          pb.lookup<Switchboard>()->writer<PoseEvent>(topics::kSlowPose))
{
    MsckfParams params;
    params.imu_noise = data_->dataset.config().imu_noise;
    TrackerParams tracker;
    tracker.max_features = 80; // Table III-style tuned knob (see §V-E).
    vio_ = std::make_unique<VioSystem>(params, tracker,
                                       data_->dataset.rig());
}

void
VioPlugin::iterate(TimePoint now)
{
    (void)now;
    if (!initialized_) {
        // Standard benchmarking practice: initialize from the
        // dataset's ground truth at t = 0.
        ImuState init;
        init.time = 0;
        const Pose p0 = data_->dataset.groundTruthPose(0);
        init.orientation = p0.orientation;
        init.position = p0.position;
        init.velocity = data_->dataset.trajectory().velocity(0.0);
        vio_->initialize(init);
        initialized_ = true;
    }

    // Drain IMU stream into the filter.
    while (auto imu = imuReader_.pop())
        vio_->addImu(imu->sample);
    // Process every pending camera frame (normally one). The aliasing
    // shared_ptr lets the tracker pyramid borrow the frame's level-0
    // image instead of deep-copying it.
    while (auto cam = cameraReader_.pop()) {
        const ImuState &state = vio_->processFrame(
            cam->time, std::shared_ptr<const ImageF>(cam, &cam->image));
        auto out = makeEvent<PoseEvent>();
        out->time = cam->time;
        out->state = state;
        slowPoseWriter_.put(std::move(out));
        trajectory_.push_back({cam->time, state.pose()});
    }
}

// ------------------------------------------------------------ Integrator

IntegratorPlugin::IntegratorPlugin(const Phonebook &pb,
                                   const SystemTuning &tuning,
                                   const std::string &method)
    : Plugin("integrator"), tuning_(tuning),
      imuReader_(pb.lookup<Switchboard>()->reader<ImuEvent>(topics::kImu)),
      slowPoseReader_(
          pb.lookup<Switchboard>()->asyncReader<PoseEvent>(topics::kSlowPose)),
      fastPoseWriter_(
          pb.lookup<Switchboard>()->writer<PoseEvent>(topics::kFastPose)),
      integrator_(makePoseIntegrator(method))
{
}

void
IntegratorPlugin::iterate(TimePoint now)
{
    // Re-base onto the newest VIO estimate when one arrives.
    if (auto slow = slowPoseReader_.latest()) {
        if (slow->time > lastCorrection_) {
            integrator_->correct(slow->state);
            lastCorrection_ = slow->time;
        }
    }
    while (auto imu = imuReader_.pop())
        integrator_->addSample(imu->sample);
    if (!integrator_->initialized())
        return;
    auto out = makeEvent<PoseEvent>();
    out->time = now;
    out->state = integrator_->state();
    fastPoseWriter_.put(std::move(out));
}

// ------------------------------------------------------------ Application

ApplicationPlugin::ApplicationPlugin(const Phonebook &pb,
                                     const SystemTuning &tuning, AppId app,
                                     const AppConfig &app_config,
                                     bool adaptive_resolution)
    : Plugin("application"), tuning_(tuning),
      sb_(pb.lookup<Switchboard>()), app_(app, app_config),
      adaptive_(adaptive_resolution), initialRes_(app_config.eye_width),
      currentRes_(app_config.eye_width), minResSeen_(app_config.eye_width)
{
    session_ = std::make_unique<XrSession>(
        sb_, app_config.ipd_m, periodFromHz(tuning_.display_hz));
    session_->begin();
}

void
ApplicationPlugin::adaptResolution(TimePoint now)
{
    // The controller watches the application's *achieved* frame
    // interval: the runtime skips an arrival whenever the previous
    // render overruns, so intervals stretching past the display
    // period are the ground-truth overload signal. (The display-side
    // staleness feed on the qoe_feedback topic remains available for
    // telemetry and richer policies.)
    const Duration vsync_period = periodFromHz(tuning_.display_hz);
    if (lastFeedback_ >= 0) {
        const Duration interval = now - lastFeedback_;
        if (interval > (3 * vsync_period) / 2)
            ++staleWindow_; // Missed at least one display slot.
        else
            ++freshWindow_;
        windowSpan_ += interval;
    }
    lastFeedback_ = now;

    // Decide once per 24 rendered frames or 48 display periods,
    // whichever comes first. A window counted in frames alone
    // stretches with the overload it measures: 24 frames at 11 Hz
    // take over 2 s, so the controller would barely act in a run of
    // a few seconds.
    if (staleWindow_ + freshWindow_ < 24 && windowSpan_ < 48 * vsync_period)
        return;
    const double miss_fraction =
        static_cast<double>(staleWindow_) /
        static_cast<double>(staleWindow_ + freshWindow_);
    staleWindow_ = 0;
    freshWindow_ = 0;
    windowSpan_ = 0;

    if (miss_fraction > 0.25 && currentRes_ > 32) {
        // Overloaded: shed pixels (quadratic cost relief per step).
        currentRes_ = std::max(32, currentRes_ * 4 / 5);
    } else if (miss_fraction < 0.05 && currentRes_ < initialRes_) {
        // Headroom: climb back toward full fidelity.
        currentRes_ = std::min(initialRes_, currentRes_ * 9 / 8 + 1);
    }
    minResSeen_ = std::min(minResSeen_, currentRes_);
    app_.setEyeResolution(currentRes_);
}

void
ApplicationPlugin::iterate(TimePoint now)
{
    if (adaptive_)
        adaptResolution(now);
    // OpenXR frame loop: waitFrame -> locateViews -> render -> endFrame.
    const TimePoint display_time = session_->waitFrame(now);
    const auto views = session_->locateViews(display_time);

    // Reconstruct the head pose from the two eye poses (midpoint).
    Pose head = views[0].pose;
    head.position =
        (views[0].pose.position + views[1].pose.position) * 0.5;

    StereoFrame frame = app_.renderFrame(head, toSeconds(now));
    frame.render_time = now;
    session_->endFrame(std::move(frame), now);
}

// --------------------------------------------------------------- Timewarp

TimewarpPlugin::TimewarpPlugin(const Phonebook &pb,
                               const SystemTuning &tuning,
                               const TimewarpParams &params)
    : Plugin("timewarp"), tuning_(tuning),
      submittedReader_(pb.lookup<Switchboard>()->asyncReader<StereoFrameEvent>(
          topics::kSubmittedFrame)),
      fastPoseReader_(
          pb.lookup<Switchboard>()->asyncReader<PoseEvent>(topics::kFastPose)),
      qoeWriter_(pb.lookup<Switchboard>()->writer<QoeFeedbackEvent>(
          topics::kQoeFeedback)),
      displayWriter_(pb.lookup<Switchboard>()->writer<DisplayFrameEvent>(
          topics::kDisplayFrame)),
      warp_(params)
{
}

void
TimewarpPlugin::iterate(TimePoint now)
{
    auto submitted = submittedReader_.latest();
    auto fast = fastPoseReader_.latest();
    if (!submitted) {
        imuAges_.push_back(0.0);
        return;
    }

    // QoE feedback: age of the application's frame at warp time, in
    // display intervals. Fresh pipelining gives ~1 interval; an
    // application that cannot hold the display rate shows up as ages
    // of 2+ intervals even when warp invocations are themselves
    // being skipped in lockstep.
    const Duration vsync_period = periodFromHz(tuning_.display_hz);
    const auto age_intervals = static_cast<int>(
        (now - submitted->time) / vsync_period);
    lastSubmittedTime_ = submitted->time;
    staleStreak_ = age_intervals;
    auto feedback = makeEvent<QoeFeedbackEvent>();
    feedback->time = now;
    feedback->stale_intervals = std::max(0, age_intervals - 1);
    qoeWriter_.put(std::move(feedback));

    Pose fresh = submitted->frame.render_pose;
    double imu_age_ms = 0.0;
    if (fast) {
        fresh = fast->state.pose();
        imu_age_ms = toMilliseconds(std::max<Duration>(
            0, now - fast->state.time));
    }

    auto out = makeEvent<DisplayFrameEvent>();
    out->time = now;
    out->imu_age_ms = imu_age_ms;
    out->left = warp_.reproject(submitted->frame.left,
                                submitted->frame.render_pose, fresh);
    out->right = warp_.reproject(submitted->frame.right,
                                 submitted->frame.render_pose, fresh);
    displayWriter_.put(std::move(out));
    // Logged last: an invocation that throws leaves no age (computeMtp
    // pairs ages with the records that did not throw).
    imuAges_.push_back(imu_age_ms);
}

// ---------------------------------------------------------- Audio encode

AudioEncoderPlugin::AudioEncoderPlugin(const Phonebook &pb,
                                       const SystemTuning &tuning)
    : Plugin("audio_encoding"), tuning_(tuning),
      soundfieldWriter_(pb.lookup<Switchboard>()->writer<SoundfieldEvent>(
          topics::kSoundfield)),
      encoder_(tuning.audio_block)
{
    // Two positioned sources (the paper's lecture + radio clips).
    AudioSource lecture;
    lecture.pcm = lectureClip();
    lecture.direction = Vec3(1.0, 0.3, 0.0).normalized();
    encoder_.addSource(std::move(lecture));

    AudioSource radio;
    radio.pcm = radioClip();
    radio.direction = Vec3(-0.4, -0.8, 0.2).normalized();
    encoder_.addSource(std::move(radio));
}

namespace {

std::shared_ptr<const std::vector<std::int16_t>>
fourSecondClip(ClipKind kind, unsigned seed)
{
    return std::make_shared<const std::vector<std::int16_t>>(
        toPcm16(synthesizeClip(kind, 48000 * 4, 48000.0, seed)));
}

} // namespace

std::shared_ptr<const std::vector<std::int16_t>>
AudioEncoderPlugin::lectureClip()
{
    static const auto clip = fourSecondClip(ClipKind::SpeechLike, 3);
    return clip;
}

std::shared_ptr<const std::vector<std::int16_t>>
AudioEncoderPlugin::radioClip()
{
    static const auto clip = fourSecondClip(ClipKind::Music, 4);
    return clip;
}

void
AudioEncoderPlugin::iterate(TimePoint now)
{
    auto event = makeEvent<SoundfieldEvent>(tuning_.audio_block);
    event->time = now;
    event->block_index = block_;
    event->field = encoder_.encodeBlock(block_);
    ++block_;
    soundfieldWriter_.put(std::move(event));
}

// -------------------------------------------------------- Audio playback

AudioPlaybackPlugin::AudioPlaybackPlugin(const Phonebook &pb,
                                         const SystemTuning &tuning)
    : Plugin("audio_playback"), tuning_(tuning),
      soundfieldReader_(pb.lookup<Switchboard>()->asyncReader<SoundfieldEvent>(
          topics::kSoundfield)),
      fastPoseReader_(
          pb.lookup<Switchboard>()->asyncReader<PoseEvent>(topics::kFastPose)),
      stereoWriter_(pb.lookup<Switchboard>()->writer<StereoAudioEvent>(
          topics::kStereoAudio)),
      playback_(tuning.audio_block, 48000.0)
{
}

void
AudioPlaybackPlugin::iterate(TimePoint now)
{
    auto field = soundfieldReader_.latest();
    if (!field)
        return;
    Quat head = Quat::identity();
    if (auto fast = fastPoseReader_.latest())
        head = fast->state.orientation;
    const StereoBlock block = playback_.processBlock(field->field, head);

    auto out = makeEvent<StereoAudioEvent>();
    out->time = now;
    out->left = block.left;
    out->right = block.right;
    stereoWriter_.put(std::move(out));
}

// ------------------------------------------------------------ Registry

void
registerIllixrPlugins()
{
    auto &registry = PluginRegistry::instance();
    registry.registerFactory("offline_camera", [](const Phonebook &pb) {
        return std::make_unique<CameraPlugin>(pb, SystemTuning{});
    });
    registry.registerFactory("offline_imu", [](const Phonebook &pb) {
        return std::make_unique<ImuPlugin>(pb, SystemTuning{});
    });
    registry.registerFactory("vio", [](const Phonebook &pb) {
        return std::make_unique<VioPlugin>(pb, SystemTuning{});
    });
    registry.registerFactory("imu_integrator", [](const Phonebook &pb) {
        return std::make_unique<IntegratorPlugin>(pb, SystemTuning{});
    });
    registry.registerFactory(
        "imu_integrator_rk4", [](const Phonebook &pb) {
            return std::make_unique<IntegratorPlugin>(pb, SystemTuning{},
                                                      "rk4");
        });
    registry.registerFactory(
        "imu_integrator_midpoint", [](const Phonebook &pb) {
            return std::make_unique<IntegratorPlugin>(pb, SystemTuning{},
                                                      "midpoint");
        });
    registry.registerFactory("timewarp", [](const Phonebook &pb) {
        return std::make_unique<TimewarpPlugin>(pb, SystemTuning{},
                                                TimewarpParams{});
    });
    registry.registerFactory("audio_encoding", [](const Phonebook &pb) {
        return std::make_unique<AudioEncoderPlugin>(pb, SystemTuning{});
    });
    registry.registerFactory("audio_playback", [](const Phonebook &pb) {
        return std::make_unique<AudioPlaybackPlugin>(pb, SystemTuning{});
    });
}

// ------------------------------------------------------ Fault injection

std::unique_ptr<FaultInjector>
makeFaultInjector(FaultPlan plan, Switchboard &switchboard,
                  MetricsRegistry *metrics)
{
    if (!plan.active())
        return nullptr;
    if (plan.topics.empty() &&
        (plan.drop_rate > 0.0 || plan.corrupt_rate > 0.0))
        plan.topics = {topics::kCamera, topics::kImu};
    auto injector = std::make_unique<FaultInjector>(std::move(plan), metrics);
    switchboard.setPublishHook(injector->makePublishHook());

    // Camera: a saturated horizontal glitch band, the torn-readout
    // corruption a flaky sensor link produces.
    injector->setCorrupter(topics::kCamera, [](Event &e, Rng &rng) {
        auto *frame = dynamic_cast<CameraFrameEvent *>(&e);
        if (!frame || frame->image.height() <= 0 ||
            frame->image.width() <= 0)
            return;
        const int rows = 2 + static_cast<int>(rng.uniformInt(4));
        const int y0 = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(frame->image.height())));
        for (int dy = 0; dy < rows; ++dy) {
            const int y = std::min(frame->image.height() - 1, y0 + dy);
            for (int x = 0; x < frame->image.width(); ++x)
                frame->image.at(x, y) = static_cast<float>(rng.uniform());
        }
    });
    // IMU: a one-sample accelerometer spike (garbage decode of a
    // mangled transport packet).
    injector->setCorrupter(topics::kImu, [](Event &e, Rng &rng) {
        auto *imu = dynamic_cast<ImuEvent *>(&e);
        if (!imu)
            return;
        const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
        imu->sample.linear_acceleration.x += sign * rng.uniform(15.0, 40.0);
        imu->sample.linear_acceleration.z -= sign * rng.uniform(5.0, 20.0);
    });
    return injector;
}

} // namespace illixr
