/**
 * @file
 * Session lifecycle and SessionManager admission tests: the fleet
 * runtime's state machine (Idle -> Queued -> Running -> Finished /
 * Evicted), the cooperative early-stop path, FIFO admission beyond
 * `max_concurrent`, eviction of queued vs running sessions, and the
 * one-stop SessionConfig parser (env + CLI layering), and the
 * session's set-up: the preloaded camera frames and the shared audio
 * clips.
 */

#include "audio/clips.hpp"
#include "runtime/parallel.hpp"
#include "xr/illixr_system.hpp"
#include "xr/plugins.hpp"
#include "xr/session.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace illixr {
namespace {

/** Small deterministic (seeded SimScheduler) session config. */
SessionConfig
quickConfig(const std::string &name, unsigned seed = 11,
            Duration duration = 300 * kMillisecond)
{
    SessionConfig cfg;
    cfg.name = name;
    cfg.executor = ExecutorKind::Sim;
    cfg.deterministic = true;
    cfg.seed = seed;
    cfg.duration = duration;
    return cfg;
}

/** RAII environment override: restores the prior value on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *key, const char *value) : key_(key)
    {
        if (const char *prev = std::getenv(key)) {
            had_prev_ = true;
            prev_ = prev;
        }
        ::setenv(key, value, 1);
    }

    ~ScopedEnv()
    {
        if (had_prev_)
            ::setenv(key_.c_str(), prev_.c_str(), 1);
        else
            ::unsetenv(key_.c_str());
    }

  private:
    std::string key_;
    std::string prev_;
    bool had_prev_ = false;
};

// ---------------------------------------------------------------------
// Session lifecycle
// ---------------------------------------------------------------------

TEST(SessionTest, RunsToCompletion)
{
    Session session{quickConfig("solo")};
    EXPECT_EQ(session.state(), Session::State::Idle);
    EXPECT_EQ(session.name(), "solo");
    session.start();
    const IntegratedResult &r = session.result();
    EXPECT_EQ(session.state(), Session::State::Finished);
    EXPECT_TRUE(session.finished());
    EXPECT_GT(r.tasks.size(), 0u);
    EXPECT_GT(r.vio_trajectory.size(), 0u);
    // result() is idempotent once finished.
    EXPECT_EQ(&session.result(), &r);
}

TEST(SessionTest, SeededCpuShareRepeatsWithTheSeed)
{
    // Fig 5's shares come from the modeled costs in a seeded run, so
    // two runs with the same seed agree exactly, like their poses.
    ScopedEnv det("ILLIXR_DETERMINISTIC", "1");
    ScopedEnv seed("ILLIXR_SEED", "3");
    const char *argv[] = {"prog"};
    SessionConfig::Parse parse = SessionConfig::fromEnvAndArgs(1, argv);
    ASSERT_TRUE(parse.ok) << parse.error;
    ASSERT_TRUE(parse.config.deterministic);
    parse.config.duration = 500 * kMillisecond;
    const IntegratedResult a = runIntegrated(parse.config);
    const IntegratedResult b = runIntegrated(parse.config);
    ASSERT_FALSE(a.cpu_share.empty());
    EXPECT_EQ(a.cpu_share, b.cpu_share);
    double total = 0.0;
    for (const auto &[name, share] : a.cpu_share)
        total += share;
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_GT(a.cpu_share.at("vio"), 0.0);
}

TEST(SessionTest, DoubleStartThrows)
{
    Session session{quickConfig("dup")};
    session.start();
    EXPECT_THROW(session.start(), std::logic_error);
    session.wait();
    EXPECT_THROW(session.start(), std::logic_error);
}

TEST(SessionTest, WaitBeforeStartThrows)
{
    Session session{quickConfig("idle")};
    EXPECT_THROW(session.wait(), std::logic_error);
    EXPECT_THROW(session.result(), std::logic_error);
    EXPECT_FALSE(session.finished());
}

TEST(SessionTest, StopBeforeRunSkipsTheRun)
{
    // requestStop() is one-way and may land before start(): the
    // session still goes through the full lifecycle (plugins built,
    // stats collected) but the executor winds down at the first
    // scheduling boundary.
    Session session{quickConfig("prestop", 11, 30 * kSecond)};
    session.requestStop();
    session.start();
    const IntegratedResult &r = session.result();
    EXPECT_EQ(session.state(), Session::State::Finished);
    auto it = r.tasks.find("timewarp");
    ASSERT_NE(it, r.tasks.end());
    // A full 30 s virtual run would log thousands of frames.
    EXPECT_LT(it->second.invocations, 10u);
}

TEST(SessionTest, StopMidRunYieldsPartialResult)
{
    // A long session stopped shortly after launch still produces a
    // valid (partial) result — far fewer frames than the configured
    // duration would imply.
    Session session{quickConfig("midstop", 11, 30 * kSecond)};
    session.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    session.stop();
    EXPECT_EQ(session.state(), Session::State::Finished);
    const IntegratedResult &r = session.result();
    auto it = r.tasks.find("timewarp");
    ASSERT_NE(it, r.tasks.end());
    // 30 s at the 120 Hz display target would be ~3600 frames.
    EXPECT_LT(it->second.invocations, 3000u);
}

TEST(SessionTest, DestructorStopsARunningSession)
{
    // Dropping a running session must not hang or crash: the
    // destructor requests a stop and joins.
    auto session =
        std::make_unique<Session>(quickConfig("dtor", 11, 30 * kSecond));
    session->start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    session.reset();
}

// ---------------------------------------------------------------------
// SessionManager admission / eviction
// ---------------------------------------------------------------------

TEST(SessionManagerTest, RunsSubmissionsToCompletion)
{
    SessionManager manager(2);
    EXPECT_EQ(manager.maxConcurrent(), 2u);
    std::vector<std::shared_ptr<Session>> fleet;
    for (unsigned i = 0; i < 3; ++i)
        fleet.push_back(manager.submit(
            quickConfig("m" + std::to_string(i), 11 + i)));
    manager.drain();
    EXPECT_EQ(manager.runningCount(), 0u);
    EXPECT_EQ(manager.queuedCount(), 0u);
    EXPECT_EQ(manager.admittedTotal(), 3u);
    for (const auto &session : fleet) {
        EXPECT_EQ(session->state(), Session::State::Finished);
        EXPECT_GT(session->result().tasks.size(), 0u);
    }
}

TEST(SessionManagerTest, NeverExceedsMaxConcurrent)
{
    SessionManager manager(1);
    std::vector<std::shared_ptr<Session>> fleet;
    for (unsigned i = 0; i < 3; ++i)
        fleet.push_back(manager.submit(
            quickConfig("q" + std::to_string(i), 11 + i)));
    // The admission invariant holds at every observable instant.
    while (manager.runningCount() + manager.queuedCount() > 0) {
        EXPECT_LE(manager.runningCount(), 1u);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    manager.drain();
    EXPECT_EQ(manager.admittedTotal(), 3u);
    for (const auto &session : fleet)
        EXPECT_EQ(session->state(), Session::State::Finished);
}

TEST(SessionManagerTest, EvictQueuedSessionNeverRuns)
{
    SessionManager manager(1);
    auto runner = manager.submit(quickConfig("run", 11, 30 * kSecond));
    auto queued = manager.submit(quickConfig("q", 12));
    EXPECT_EQ(queued->state(), Session::State::Queued);
    EXPECT_EQ(manager.queuedCount(), 1u);

    EXPECT_TRUE(manager.evict(queued));
    EXPECT_EQ(queued->state(), Session::State::Evicted);
    EXPECT_TRUE(queued->finished());
    EXPECT_THROW(queued->result(), std::logic_error);
    EXPECT_EQ(manager.queuedCount(), 0u);

    // Evicting the running session stops it early; its partial result
    // is still collectable.
    EXPECT_TRUE(manager.evict(runner));
    manager.drain();
    EXPECT_EQ(runner->state(), Session::State::Finished);
    EXPECT_GT(runner->result().tasks.size(), 0u);
    EXPECT_EQ(manager.admittedTotal(), 1u);
}

TEST(SessionManagerTest, EvictRejectsForeignOrDoneSessions)
{
    SessionManager manager(1);
    EXPECT_FALSE(manager.evict(nullptr));

    auto foreign = std::make_shared<Session>(quickConfig("foreign"));
    EXPECT_FALSE(manager.evict(foreign));

    auto done = manager.submit(quickConfig("done"));
    done->wait();
    manager.drain();
    EXPECT_FALSE(manager.evict(done));
}

// ---------------------------------------------------------------------
// SessionConfig: the one config parser
// ---------------------------------------------------------------------

TEST(SessionConfigTest, FlagsBeatEnvironment)
{
    ScopedEnv seed("ILLIXR_SEED", "5");
    ScopedEnv workers("ILLIXR_POOL_WORKERS", "3");
    const char *argv[] = {"prog", "--seed=9", "--my-tool-flag"};
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(3, argv);
    ASSERT_TRUE(parse.ok) << parse.error;
    EXPECT_EQ(parse.config.seed, 9u);      // Flag beat env.
    EXPECT_EQ(parse.config.pool_workers, 3u); // Env applied.
    ASSERT_EQ(parse.unparsed.size(), 1u);
    EXPECT_EQ(parse.unparsed[0], "--my-tool-flag");
}

TEST(SessionConfigTest, MalformedOwnedFlagIsAnError)
{
    const char *argv[] = {"prog", "--seed=banana"};
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(2, argv);
    EXPECT_FALSE(parse.ok);
    EXPECT_NE(parse.error.find("--seed=banana"), std::string::npos);
}

TEST(SessionConfigTest, DeterministicPoolFlagsAreAnError)
{
    // The pool runs on the wall clock; asking it to be deterministic
    // is contradictory, in either order of the flags.
    const char *argv[] = {"prog", "--deterministic", "--executor=pool"};
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(3, argv);
    EXPECT_FALSE(parse.ok);
    EXPECT_NE(parse.error.find("executor=sim"), std::string::npos);

    const char *sim_argv[] = {"prog", "--deterministic", "--executor=sim"};
    EXPECT_TRUE(SessionConfig::fromEnvAndArgs(3, sim_argv).ok);
}

TEST(SessionConfigTest, DeterministicPoolConfigFailsTheRun)
{
    // A config built in code bypasses the parser; the session itself
    // refuses to run it live as if it were reproducible.
    SessionConfig cfg = quickConfig("det-pool");
    cfg.executor = ExecutorKind::Pool;
    EXPECT_THROW(runIntegrated(cfg), std::invalid_argument);
}

TEST(SessionConfigTest, DeterministicPoolEnvIsAnError)
{
    ScopedEnv executor("ILLIXR_EXECUTOR", "pool");
    ScopedEnv deterministic("ILLIXR_DETERMINISTIC", "1");
    const char *argv[] = {"prog"};
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(1, argv);
    EXPECT_FALSE(parse.ok);
    EXPECT_FALSE(parse.error.empty());

    // A flag may still resolve the conflict: flags beat env.
    const char *sim_argv[] = {"prog", "--executor=sim"};
    EXPECT_TRUE(SessionConfig::fromEnvAndArgs(2, sim_argv).ok);
}

TEST(SessionConfigTest, MalformedEnvIsAnError)
{
    ScopedEnv workers("ILLIXR_POOL_WORKERS", "zero");
    const char *argv[] = {"prog"};
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(1, argv);
    EXPECT_FALSE(parse.ok);
    EXPECT_NE(parse.error.find("ILLIXR_POOL_WORKERS=zero"),
              std::string::npos)
        << parse.error;
}

TEST(SessionConfigTest, DatasetFollowsTheRunScenario)
{
    // The offline ground truth (Table V, pose error) comes from the
    // same config as the run's own dataset, so it must fly the
    // scenario's path, not the default lab walk.
    SessionConfig cfg = quickConfig("scenario-dataset");
    cfg.scenario = Scenario::fromFamily(PathFamily::Circular);
    const SyntheticDataset flown(datasetConfigFor(cfg));
    const Trajectory circular = cfg.scenario->makeTrajectory(cfg.seed);
    const Trajectory lab = Trajectory::labWalk(cfg.seed);
    for (double t : {0.1, 0.2, 0.3}) {
        const Vec3 p = flown.groundTruthPose(fromSeconds(t)).position;
        const Vec3 c = circular.pose(t).position;
        EXPECT_EQ(p.x, c.x);
        EXPECT_EQ(p.y, c.y);
        EXPECT_EQ(p.z, c.z);
        EXPECT_GT((p - lab.pose(t).position).norm(), 0.1);
    }

    cfg.scenario.reset();
    const SyntheticDataset walked(datasetConfigFor(cfg));
    const Vec3 p = walked.groundTruthPose(fromSeconds(0.2)).position;
    EXPECT_EQ(p.x, lab.pose(0.2).position.x);
    EXPECT_EQ(p.z, lab.pose(0.2).position.z);
}

// ---------------------------------------------------------------------
// Session set-up: preloaded camera frames and shared audio clips
// ---------------------------------------------------------------------

/** RAII kernel-pool width override (restores the prior width). */
class KernelWidth
{
  public:
    explicit KernelWidth(std::size_t width)
        : prev_(KernelPool::instance().width())
    {
        KernelPool::instance().setWidth(width);
    }
    ~KernelWidth() { KernelPool::instance().setWidth(prev_); }

    KernelWidth(const KernelWidth &) = delete;
    KernelWidth &operator=(const KernelWidth &) = delete;

  private:
    std::size_t prev_;
};

TEST(KernelEquivalence, PreloadedFramesMatchSerialRender)
{
    DatasetConfig cfg;
    cfg.duration_s = 1.0;
    cfg.image_width = 96;
    cfg.image_height = 72;
    const SyntheticDataset serial(cfg);
    ASSERT_GT(serial.cameraFrameCount(), 6u);

    // The preload keeps exactly the frames with cameraTime(i) <=
    // duration: a duration on frame 5's timestamp keeps frame 5, one
    // nanosecond less drops it, and one past the end keeps them all.
    const Duration on_frame = serial.cameraTime(5);
    const std::pair<Duration, std::size_t> cases[] = {
        {on_frame, 6},
        {on_frame - 1, 5},
        {fromSeconds(cfg.duration_s + 1.0), serial.cameraFrameCount()},
    };
    for (std::size_t width : {1, 4}) {
        KernelWidth guard(width);
        for (const auto &[duration, count] : cases) {
            const PreloadedDataset data(cfg, duration);
            ASSERT_EQ(data.camera_frames.size(), count)
                << "width " << width << ", duration " << duration;
            for (std::size_t i = 0; i < count; ++i) {
                const CameraFrame want = serial.cameraFrame(i);
                const CameraFrame &got = data.camera_frames[i];
                EXPECT_EQ(got.time, want.time);
                EXPECT_EQ(got.sequence, want.sequence);
                ASSERT_EQ(got.image.width(), want.image.width());
                ASSERT_EQ(got.image.height(), want.image.height());
                EXPECT_EQ(std::memcmp(got.image.data(), want.image.data(),
                                      want.image.pixelCount() *
                                          sizeof(float)),
                          0)
                    << "width " << width << ", frame " << i;
            }
        }
    }
}

TEST(SessionClipsTest, SynthesizedOncePerProcessAndShared)
{
    std::shared_ptr<const std::vector<std::int16_t>> lecture_other;
    std::shared_ptr<const std::vector<std::int16_t>> radio_other;
    std::thread other([&] {
        lecture_other = AudioEncoderPlugin::lectureClip();
        radio_other = AudioEncoderPlugin::radioClip();
    });
    const auto lecture = AudioEncoderPlugin::lectureClip();
    const auto radio = AudioEncoderPlugin::radioClip();
    other.join();

    EXPECT_EQ(lecture.get(), lecture_other.get());
    EXPECT_EQ(radio.get(), radio_other.get());
    EXPECT_EQ(lecture.get(), AudioEncoderPlugin::lectureClip().get());
    EXPECT_EQ(*lecture, toPcm16(synthesizeClip(ClipKind::SpeechLike,
                                               48000 * 4, 48000.0, 3)));
    EXPECT_EQ(*radio, toPcm16(synthesizeClip(ClipKind::Music, 48000 * 4,
                                             48000.0, 4)));
}

} // namespace
} // namespace illixr
