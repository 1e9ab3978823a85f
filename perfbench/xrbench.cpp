/**
 * @file
 * xrbench: the measuring half of the end-to-end benchmark.
 *
 *   xrbench <workload> <seed> <seconds> <trace 0|1>
 *
 * Runs one workload as a closed loop for a host-time budget and prints
 * one JSON object of raw measurements on stdout: host timestamps of
 * every displayed frame, set-up boundaries, process CPU time, output
 * check values and (with trace 1) the benchmark's own spans. run.py
 * turns them into metrics; nothing here computes a statistic.
 *
 * Integrated workloads run whole sessions back to back. With trace 0
 * every batch goes through SessionManager/Session, the program's own
 * entry point. With trace 1 the batches alternate between that path
 * and an assembly of the same plugin set on a SimScheduler whose
 * interceptor records one span per plugin invocation, so one run gives
 * both the per-layer split and the cost of recording it.
 */

#include "eyetrack/eye_image.hpp"
#include "eyetrack/ritnet.hpp"
#include "foundation/simd.hpp"
#include "foundation/trajectory_error.hpp"
#include "recon/reconstructor.hpp"
#include "runtime/parallel.hpp"
#include "visual/hologram.hpp"
#include "xr/plugins.hpp"
#include "xr/session.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace illixr;

namespace {

/** Virtual length of one integrated session. */
constexpr Duration kSessionLength = 3 * kSecond;

/** Inputs cycle through this many variants, so each has a reference. */
constexpr unsigned kVariants = 8;

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** Process CPU time (user + sys, all threads) in ns. */
std::int64_t
cpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Layer operations, in output order. */
enum Op : int
{
    kOpSession, ///< One assembled session (root; its self time is unaccounted)
    kOpSequence, ///< One standalone sequence (root)
    kOpPreload,
    kOpAssemble,
    kOpRun,
    kOpReplay,
    kOpVio,
    kOpIntegrator,
    kOpRender,
    kOpTimewarp,
    kOpAudioEncode,
    kOpAudioPlayback,
    kOpCollect,
    kOpSetup,
    kOpRitnet,
    kOpRecon,
    kOpHologram,
    kOpCount
};

const char *const kOpNames[kOpCount] = {
    "bench.session",   "bench.sequence",  "sensors.preload",
    "xr.assemble",     "runtime.run",     "sensors.replay",
    "slam.vio",        "slam.integrator", "render.frame",
    "visual.timewarp", "audio.encode",    "audio.playback",
    "xr.collect",      "bench.setup",     "eyetrack.ritnet",
    "recon.frame",     "visual.hologram"};

Op
opForPlugin(const std::string &name)
{
    if (name == "camera" || name == "imu")
        return kOpReplay;
    if (name == "vio")
        return kOpVio;
    if (name == "integrator")
        return kOpIntegrator;
    if (name == "application")
        return kOpRender;
    if (name == "timewarp")
        return kOpTimewarp;
    if (name == "audio_encoding")
        return kOpAudioEncode;
    if (name == "audio_playback")
        return kOpAudioPlayback;
    throw std::runtime_error("xrbench: unmapped plugin " + name);
}

struct SpanRecord
{
    int op = 0;
    int thread = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    bool error = false;
};

/** In-memory span store, written out when the run ends. */
class SpanLog
{
  public:
    void
    add(int op, int thread, std::int64_t start, std::int64_t end,
        bool error = false)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({op, thread, start, end, error});
    }

    std::vector<SpanRecord>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::move(spans_);
    }

  private:
    std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, int op, int thread)
        : log_(log), op_(op), thread_(thread), start_(nowNs())
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->add(op_, thread_, start_, nowNs());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    int op_;
    int thread_;
    std::int64_t start_;
};

/** One span per plugin invocation, through the executor's public hook. */
class SpanInterceptor : public InvocationInterceptor
{
  public:
    SpanInterceptor(SpanLog &log, int thread) : log_(log), thread_(thread) {}

    PreInvocationAction
    before(Plugin &, std::uint64_t, TimePoint) override
    {
        start_ = nowNs();
        return {};
    }

    void
    after(Plugin &plugin, TimePoint, const InvocationOutcome &outcome) override
    {
        log_.add(opForPlugin(plugin.name()), thread_, start_, nowNs(),
                 outcome.exception);
    }

  private:
    SpanLog &log_;
    int thread_;
    std::int64_t start_ = 0;
};

// ---------------------------------------------------------------------
// Raw records
// ---------------------------------------------------------------------

/** One operation: an integrated session or a standalone sequence. */
struct SessionRecord
{
    unsigned seed = 0;
    std::int64_t submit = 0;    ///< Session::start / sequence start.
    std::int64_t submitted = 0; ///< SessionManager::submit returned.
    std::int64_t result = 0;    ///< Session::result returned.
    /** marks[0] ends set-up; every later mark completes one frame. */
    std::vector<std::int64_t> marks;
    /** The session's CPU clock at each mark (see BatchClock). */
    std::vector<std::int64_t> cpu;
    /** Virtual time of each mark's displayed frame (integrated only). */
    std::vector<std::int64_t> virtual_ns;
    std::string error;
    std::size_t plugin_exceptions = 0;
    std::size_t trace_spans = 0;
    std::size_t invocations = 0;
    std::size_t skips = 0;
    double ate_m = -1.0;
    // Standalone output checks, one entry per frame.
    std::vector<double> pupil_err_px;
    std::vector<double> icp_err_m;
    std::vector<double> holo_err;
    std::vector<int> frame_failed;
};

/** Sessions run concurrently, or one standalone sequence. */
struct BatchRecord
{
    bool traced = false;
    std::int64_t end = 0;
    std::int64_t cpu_first = 0; ///< Process CPU at the first mark.
    std::int64_t cpu_end = 0;
    std::vector<SessionRecord> sessions;
};

/**
 * The clocks of one batch. A session's CPU clock, on which its frames are
 * timed, is the process's CPU time when the batch is one session (its
 * kernel helpers work for it alone) and the session thread's CPU time
 * when sessions run concurrently (at kernel width 1, so all of a
 * session's work runs on its thread). Either clock leaves out time the
 * hypervisor takes a vCPU away (steal), which on a shared VM moves wall
 * time by far more than any code change. The batch's run phase starts at
 * its first mark.
 */
class BatchClock
{
  public:
    explicit BatchClock(bool concurrent) : concurrent_(concurrent) {}

    std::int64_t
    sessionCpuNs() const
    {
        return concurrent_ ? clockNs(CLOCK_THREAD_CPUTIME_ID) : cpuNs();
    }

    void
    startRunPhase()
    {
        std::call_once(once_, [this] { run_phase_cpu_ = cpuNs(); });
    }

    /** Process CPU time when the run phase started. */
    std::int64_t runPhaseCpu() const { return run_phase_cpu_; }

  private:
    const bool concurrent_;
    std::once_flag once_;
    std::int64_t run_phase_cpu_ = 0;
};

/** Records one mark on the calling (session) thread. */
void
mark(SessionRecord &rec, BatchClock &clock)
{
    rec.marks.push_back(nowNs());
    rec.cpu.push_back(clock.sessionCpuNs());
    if (rec.marks.size() == 1)
        clock.startRunPhase();
}

/**
 * Marks every frame published on @p sb's display topic, on the session
 * thread that publishes it, with the frame's virtual time, which tells
 * how many vsync intervals the session advanced since the previous one.
 */
PublishListenerHandle
markDisplayedFrames(Switchboard &sb, SessionRecord &rec, BatchClock &clock)
{
    const auto frames =
        sb.asyncReader<DisplayFrameEvent>(topics::kDisplayFrame);
    return sb.onPublish(topics::kDisplayFrame,
                        [frames, &rec, &clock](const std::string &) {
                            if (const auto frame = frames.latest())
                                rec.virtual_ns.push_back(frame->time);
                            mark(rec, clock);
                        });
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    const char *name;
    AppId app;
    bool standalone;
    std::size_t sessions; ///< Concurrent sessions per batch.
    bool serial_kernels;  ///< Kernel width 1 instead of nproc.
};

const Workload kWorkloads[] = {
    {"sponza_desktop", AppId::Sponza, false, 1, false},
    {"ardemo_desktop", AppId::ArDemo, false, 1, false},
    {"fleet_platformer", AppId::Platformer, false, 3, true},
    {"standalone", AppId::Sponza, true, 1, false}, // app unused
};

DatasetConfig
datasetConfig(const IntegratedConfig &config, const SystemTuning &tuning)
{
    // The same dataset Session::runBody builds for this config.
    DatasetConfig ds;
    ds.duration_s = toSeconds(config.duration) + 0.5;
    ds.image_width = config.camera_width;
    ds.image_height = config.camera_height;
    ds.camera_rate_hz = tuning.camera_hz;
    ds.imu_rate_hz = tuning.imu_hz;
    ds.preset = DatasetConfig::Preset::LabWalk;
    ds.seed = config.seed;
    return ds;
}

double
ateOf(const std::vector<StampedPose> &estimate,
      const PreloadedDataset &data)
{
    if (estimate.empty())
        return -1.0;
    return computeTrajectoryError(estimate,
                                  data.dataset.groundTruthTrajectory())
        .ate_rmse_m;
}

/**
 * Sessions inherit the process-wide kernel width main() sets once
 * (kernel_threads = 0): a session that sets it restarts the pool's
 * helper threads every time.
 */
SessionConfig
sessionConfig(const Workload &w, unsigned seed)
{
    SessionConfig cfg;
    cfg.name = std::string(w.name) + "-" + std::to_string(seed);
    cfg.platform = PlatformId::Desktop;
    cfg.app = w.app;
    cfg.duration = kSessionLength;
    cfg.seed = seed;
    cfg.executor = ExecutorKind::Sim;
    return cfg;
}

/** Dataset seed of session @p i of a batch whose first variant is
 *  @p first: seeds cycle through 1..kVariants. */
unsigned
datasetSeed(unsigned first, std::size_t i)
{
    return 1 + static_cast<unsigned>((first + i) % kVariants);
}

/**
 * Untraced path: the batch's sessions through SessionManager. The VIO
 * factory is the one public hook that sees the session's Phonebook
 * before the run; it builds the stock VioPlugin and attaches a
 * display-topic listener that timestamps every displayed frame.
 */
void
runSessionBatch(const Workload &w, unsigned first, BatchRecord &batch)
{
    const std::size_t n = w.sessions;
    batch.sessions.resize(n);
    BatchClock clock(n > 1);
    std::vector<PublishListenerHandle> listeners(n);
    std::vector<std::shared_ptr<PreloadedDataset>> data(n);
    std::vector<std::shared_ptr<Session>> sessions(n);

    SessionManager manager(n);
    for (std::size_t i = 0; i < n; ++i) {
        SessionRecord &rec = batch.sessions[i];
        rec.seed = datasetSeed(first, i);
        rec.marks.reserve(512);
        SessionConfig cfg = sessionConfig(w, rec.seed);
        cfg.vio_factory = [&, i](const Phonebook &pb,
                                 const SystemTuning &tuning) {
            data[i] = pb.lookup<PreloadedDataset>();
            listeners[i] = markDisplayedFrames(*pb.lookup<Switchboard>(),
                                               batch.sessions[i], clock);
            return std::unique_ptr<Plugin>(
                std::make_unique<VioPlugin>(pb, tuning));
        };
        rec.submit = nowNs();
        sessions[i] = manager.submit(std::move(cfg));
        rec.submitted = nowNs();
    }
    for (std::size_t i = 0; i < n; ++i) {
        SessionRecord &rec = batch.sessions[i];
        try {
            const IntegratedResult &r = sessions[i]->result();
            rec.result = nowNs();
            for (const auto &[name, stats] : r.tasks) {
                rec.plugin_exceptions += stats.exceptions;
                rec.invocations += stats.invocations;
                rec.skips += stats.skips;
            }
            rec.trace_spans = r.trace ? r.trace->spanCount() : 0;
            if (data[i])
                rec.ate_m = ateOf(r.vio_trajectory, *data[i]);
        } catch (const std::exception &e) {
            rec.result = nowNs();
            rec.error = e.what();
        }
        data[i].reset();
    }
    // Tear the sessions down inside the run phase, as the traced path
    // does: the manager's references go with drain(), ours with clear().
    manager.drain();
    sessions.clear();
    listeners.clear();
    batch.end = nowNs();
    batch.cpu_first = clock.runPhaseCpu();
    batch.cpu_end = cpuNs();
}

/**
 * Traced path: the stock plugin set assembled from the public plugin
 * classes exactly as Session::runBody assembles it (no resilience, no
 * tail monitor: both are off in these workloads), with a span per
 * plugin invocation. After the run it collects the same costly result
 * parts a session does (task statistics, both MTP series), so both
 * paths do the same work per frame.
 */
void
runAssembled(const Workload &w, unsigned seed, SpanLog &log, int thread,
             BatchClock &clock, SessionRecord &rec)
{
    rec.seed = seed;
    rec.marks.reserve(512);
    const SessionConfig config = sessionConfig(w, seed);
    const SystemTuning tuning;
    ScopedSpan root(&log, kOpSession, thread);
    rec.submit = rec.submitted = nowNs();

    Phonebook phonebook;
    auto switchboard = std::make_shared<Switchboard>();
    phonebook.registerService(switchboard);
    auto metrics = std::make_shared<MetricsRegistry>();
    phonebook.registerService(metrics);
    switchboard->setMetrics(metrics.get());
    auto sink = std::make_shared<TraceSink>();
    switchboard->setTraceSink(sink);
    KernelPool::MetricsScope kernel_scope(metrics.get(), sink.get());
    const PublishListenerHandle listener =
        markDisplayedFrames(*switchboard, rec, clock);

    std::shared_ptr<PreloadedDataset> data;
    {
        ScopedSpan span(&log, kOpPreload, thread);
        data = std::make_shared<PreloadedDataset>(
            datasetConfig(config, tuning), config.duration);
    }
    phonebook.registerService(data);

    std::unique_ptr<CameraPlugin> camera;
    std::unique_ptr<ImuPlugin> imu;
    std::unique_ptr<VioPlugin> vio;
    std::unique_ptr<IntegratorPlugin> integrator;
    std::unique_ptr<ApplicationPlugin> application;
    std::unique_ptr<TimewarpPlugin> timewarp;
    std::unique_ptr<AudioEncoderPlugin> audio_enc;
    std::unique_ptr<AudioPlaybackPlugin> audio_play;
    {
        ScopedSpan span(&log, kOpAssemble, thread);
        AppConfig app_cfg;
        app_cfg.eye_width = config.eye_size;
        app_cfg.eye_height = config.eye_size;
        TimewarpParams tw_params;
        tw_params.fov_y_rad = app_cfg.fov_y_rad;
        camera = std::make_unique<CameraPlugin>(phonebook, tuning);
        imu = std::make_unique<ImuPlugin>(phonebook, tuning);
        vio = std::make_unique<VioPlugin>(phonebook, tuning);
        integrator = std::make_unique<IntegratorPlugin>(phonebook, tuning);
        application = std::make_unique<ApplicationPlugin>(
            phonebook, tuning, config.app, app_cfg);
        timewarp =
            std::make_unique<TimewarpPlugin>(phonebook, tuning, tw_params);
        audio_enc = std::make_unique<AudioEncoderPlugin>(phonebook, tuning);
        audio_play = std::make_unique<AudioPlaybackPlugin>(phonebook, tuning);
    }

    SimScheduler sim(PlatformModel::get(config.platform));
    SpanInterceptor interceptor(log, thread);
    sim.setMetrics(metrics.get());
    sim.setPhonebook(&phonebook);
    sim.setTraceSink(sink);
    sim.setInterceptor(&interceptor);
    sim.addPlugin(camera.get());
    sim.addPlugin(imu.get());
    sim.addPlugin(vio.get());
    sim.addPlugin(integrator.get());
    sim.addPlugin(application.get());
    const Duration vsync = periodFromHz(tuning.display_hz);
    sim.addVsyncAlignedPlugin(timewarp.get(), vsync);
    sim.addPlugin(audio_enc.get());
    sim.addPlugin(audio_play.get());
    {
        ScopedSpan span(&log, kOpRun, thread);
        sim.run(config.duration);
    }
    {
        ScopedSpan span(&log, kOpCollect, thread);
        IntegratedResult result;
        for (const std::string &name : sim.taskNames())
            result.tasks.emplace(name, sim.stats(name));
        result.mtp =
            computeMtp(sim.stats("timewarp"), timewarp->imuAgesMs(), vsync);
        result.lineage_mtp = computeLineageMtp(
            *sink, vsync, topics::kDisplayFrame,
            {topics::kCamera, topics::kImu, topics::kSlowPose,
             topics::kFastPose, topics::kSubmittedFrame});
        switchboard->flushMetrics();
    }
    rec.result = nowNs();

    for (const std::string &name : sim.taskNames()) {
        const TaskStats &stats = sim.stats(name);
        rec.plugin_exceptions += stats.exceptions;
        rec.invocations += stats.invocations;
        rec.skips += stats.skips;
    }
    rec.plugin_exceptions += switchboard->listenerExceptions();
    rec.trace_spans = sink->spanCount();
    rec.ate_m = ateOf(vio->trajectory(), *data);
    KernelPool::instance().forgetMetrics(metrics.get());
}

void
runAssembledBatch(const Workload &w, unsigned first, SpanLog &log,
                  BatchRecord &batch)
{
    const std::size_t n = w.sessions;
    batch.traced = true;
    batch.sessions.resize(n);
    BatchClock clock(n > 1);
    auto body = [&](std::size_t i) {
        SessionRecord &rec = batch.sessions[i];
        try {
            runAssembled(w, datasetSeed(first, i), log, static_cast<int>(i),
                         clock, rec);
        } catch (const std::exception &e) {
            rec.result = nowNs();
            rec.error = e.what();
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < n; ++i)
        threads.emplace_back(body, i);
    body(0);
    for (std::thread &t : threads)
        t.join();
    batch.end = nowNs();
    batch.cpu_first = clock.runPhaseCpu();
    batch.cpu_end = cpuNs();
}

// ---------------------------------------------------------------------
// Standalone components (paper §III-B)
// ---------------------------------------------------------------------

/** SLM side in pixels. The frame sizes keep a 25 s run near the 1000
 *  frames a supported p99 needs. */
constexpr int kHologramSize = 64;

/**
 * One standalone sequence: build the three components and a slow-scan
 * input sequence, then push every frame through eye tracking, scene
 * reconstruction and hologram generation, one call each.
 */
void
runStandaloneSequence(unsigned variant, SpanLog *log, BatchRecord &batch)
{
    batch.traced = log != nullptr;
    batch.sessions.resize(1);
    SessionRecord &rec = batch.sessions[0];
    rec.seed = variant;
    rec.submit = rec.submitted = nowNs();
    {
        ScopedSpan root(log, kOpSequence, 0);
        std::unique_ptr<EyeImageGenerator> eye_gen;
        std::unique_ptr<RitNet> net;
        std::unique_ptr<SyntheticDataset> ds;
        std::unique_ptr<SceneReconstructor> recon;
        std::unique_ptr<HologramGenerator> holo;
        std::vector<ImageF> eyes;
        std::vector<EyeGroundTruth> eye_truth;
        std::vector<DepthFrame> depth;
        std::vector<CameraFrame> gray;
        std::vector<Pose> truth;
        std::vector<RgbImage> targets;
        {
            ScopedSpan span(log, kOpSetup, 0);
            eye_gen = std::make_unique<EyeImageGenerator>(EyeImageParams{},
                                                          33 + variant);
            net = std::make_unique<RitNet>(eye_gen->params().width,
                                           eye_gen->params().height);
            DatasetConfig cfg;
            cfg.duration_s = 3.0;
            cfg.camera_rate_hz = 5.0;
            cfg.image_width = 64;
            cfg.image_height = 48;
            cfg.preset = DatasetConfig::Preset::SlowScan;
            cfg.seed = 1 + variant;
            ds = std::make_unique<SyntheticDataset>(cfg);
            ReconParams params;
            params.tsdf.resolution = 48;
            params.tsdf.side_meters = 12.0;
            params.tsdf.origin = Vec3(-6.0, -2.0, -6.0);
            recon = std::make_unique<SceneReconstructor>(
                params, ds->rig().intrinsics);
            HologramParams hp;
            hp.resolution = kHologramSize;
            hp.iterations = 6;
            hp.depth_planes = 3;
            holo = std::make_unique<HologramGenerator>(hp);

            const std::size_t frames = ds->cameraFrameCount();
            for (std::size_t i = 0; i < frames; ++i) {
                EyeGroundTruth t;
                eyes.push_back(eye_gen->generate(i, &t));
                eye_truth.push_back(t);
                depth.push_back(ds->depthFrame(i, 0.01));
                gray.push_back(ds->cameraFrame(i));
                truth.push_back(ds->rig()
                                    .worldToCamera(ds->groundTruthPose(
                                        depth.back().time))
                                    .inverse());
                // A bright disc whose radius and centre drift per frame.
                constexpr double c = kHologramSize / 2.0;
                RgbImage target(kHologramSize, kHologramSize);
                const double cx = c + 1.5 * std::sin(0.7 * i + variant);
                const double radius = c / 2.0 + (i + variant) % 6;
                for (int y = 0; y < kHologramSize; ++y)
                    for (int x = 0; x < kHologramSize; ++x) {
                        const double v =
                            std::hypot(x - cx, y - c) < radius ? 0.9 : 0.05;
                        target.setPixel(x, y, Vec3(v, v, v));
                    }
                targets.push_back(std::move(target));
            }
        }
        BatchClock clock(false);
        mark(rec, clock);
        for (std::size_t i = 0; i < eyes.size(); ++i) {
            double pupil = -1.0, icp = -1.0, holo_err = -1.0;
            bool failed = false;
            try {
                {
                    ScopedSpan span(log, kOpRitnet, 0);
                    const GazeEstimate est = net->estimate(eyes[i]);
                    pupil = (est.pupil_center - eye_truth[i].pupil_center)
                                .norm();
                }
                {
                    ScopedSpan span(log, kOpRecon, 0);
                    const ReconFrameResult res = recon->processFrame(
                        depth[i].depth, i == 0 ? &truth[0] : nullptr,
                        &gray[i].image);
                    icp = res.camera_to_world.translationErrorTo(truth[i]);
                }
                {
                    ScopedSpan span(log, kOpHologram, 0);
                    const HologramResult res = holo->compute(targets[i]);
                    holo_err = res.error_history.empty()
                                   ? -1.0
                                   : res.error_history.back();
                }
            } catch (const std::exception &e) {
                failed = true;
                rec.error = e.what();
            }
            mark(rec, clock);
            rec.pupil_err_px.push_back(pupil);
            rec.icp_err_m.push_back(icp);
            rec.holo_err.push_back(holo_err);
            rec.frame_failed.push_back(failed ? 1 : 0);
        }
        batch.cpu_first = clock.runPhaseCpu();
    }
    batch.end = rec.result = nowNs();
    batch.cpu_end = cpuNs();
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
printNumbers(const std::vector<std::int64_t> &v, std::int64_t base)
{
    std::putchar('[');
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf(i ? ",%lld" : "%lld",
                    static_cast<long long>(v[i] - base));
    std::putchar(']');
}

void
printDoubles(const std::vector<double> &v)
{
    std::putchar('[');
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf(i ? ",%.17g" : "%.17g", v[i]);
    std::putchar(']');
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

void
printBatches(const std::vector<BatchRecord> &batches, std::int64_t t0)
{
    std::printf("\"batches\":[");
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const BatchRecord &batch = batches[b];
        std::printf("%s{\"traced\":%s,\"end_ns\":%lld,"
                    "\"cpu_first_ns\":%lld,\"cpu_end_ns\":%lld,"
                    "\"sessions\":[",
                    b ? "," : "", batch.traced ? "true" : "false",
                    static_cast<long long>(batch.end - t0),
                    static_cast<long long>(batch.cpu_first),
                    static_cast<long long>(batch.cpu_end));
        for (std::size_t s = 0; s < batch.sessions.size(); ++s) {
            const SessionRecord &r = batch.sessions[s];
            std::printf(
                "%s{\"seed\":%u,\"submit_ns\":%lld,\"submitted_ns\":%lld,"
                "\"result_ns\":%lld,\"error\":%s,\"plugin_exceptions\":%zu,"
                "\"trace_spans\":%zu,\"invocations\":%zu,\"skips\":%zu,"
                "\"ate_m\":%.17g,\"marks_ns\":",
                s ? "," : "", r.seed,
                static_cast<long long>(r.submit - t0),
                static_cast<long long>(r.submitted - t0),
                static_cast<long long>(r.result - t0),
                jsonString(r.error).c_str(), r.plugin_exceptions,
                r.trace_spans, r.invocations, r.skips, r.ate_m);
            printNumbers(r.marks, t0);
            std::printf(",\"cpu_ns\":");
            printNumbers(r.cpu, 0);
            std::printf(",\"virtual_ns\":");
            printNumbers(r.virtual_ns, 0);
            std::printf(",\"pupil_err_px\":");
            printDoubles(r.pupil_err_px);
            std::printf(",\"icp_err_m\":");
            printDoubles(r.icp_err_m);
            std::printf(",\"holo_err\":");
            printDoubles(r.holo_err);
            std::printf(",\"frame_failed\":[");
            for (std::size_t i = 0; i < r.frame_failed.size(); ++i)
                std::printf(i ? ",%d" : "%d", r.frame_failed[i]);
            std::printf("]}");
        }
        std::printf("]}");
    }
    std::printf("]");
}

void
printSpans(const std::vector<SpanRecord> &spans, std::int64_t t0)
{
    std::printf("\"ops\":[");
    for (int i = 0; i < kOpCount; ++i)
        std::printf(i ? ",\"%s\"" : "\"%s\"", kOpNames[i]);
    std::printf("],\"spans\":[");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::printf("%s[%d,%d,%lld,%lld,%d]", i ? "," : "", s.op, s.thread,
                    static_cast<long long>(s.start - t0),
                    static_cast<long long>(s.end - t0), s.error ? 1 : 0);
    }
    std::printf("]");
}

int
usage()
{
    std::fprintf(stderr, "usage: xrbench <workload> <seed> <seconds> "
                         "<trace 0|1>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 5)
        return usage();
    const std::string name = argv[1];
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            workload = &w;
    char *end = nullptr;
    const unsigned long seed = std::strtoul(argv[2], &end, 10);
    const bool seed_ok = end && *end == '\0';
    const double seconds = std::strtod(argv[3], &end);
    const bool seconds_ok = end && *end == '\0' && seconds > 0.0;
    const std::string trace_arg = argv[4];
    if (!workload || !seed_ok || !seconds_ok ||
        (trace_arg != "0" && trace_arg != "1"))
        return usage();
    const bool traced = trace_arg == "1";
    const Workload &w = *workload;

    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const std::size_t width = w.serial_kernels ? 1 : nproc;
    KernelPool::instance().setWidth(width);
    const unsigned variant = static_cast<unsigned>(seed % kVariants);

    SpanLog log;
    std::vector<BatchRecord> batches;
    const std::int64_t t0 = nowNs();
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    // Closed loop: the next batch starts when the previous one ends.
    // Every operation takes the next input variant, starting at the
    // seed's, so each run averages over several inputs. A traced run
    // alternates untraced and traced batches on the same inputs.
    auto runBatch = [&](bool trace_batch) {
        const std::size_t k = traced ? batches.size() / 2 : batches.size();
        const unsigned first =
            static_cast<unsigned>((variant + k * w.sessions) % kVariants);
        batches.emplace_back();
        BatchRecord &batch = batches.back();
        if (w.standalone)
            runStandaloneSequence(first, trace_batch ? &log : nullptr,
                                  batch);
        else if (trace_batch)
            runAssembledBatch(w, first, log, batch);
        else
            runSessionBatch(w, first, batch);
    };
    while (batches.empty() || nowNs() - t0 < budget)
        runBatch(traced && batches.size() % 2 == 1);
    if (traced && batches.size() % 2 == 1)
        runBatch(true);

    timespec res{};
    clock_getres(CLOCK_MONOTONIC, &res);
    std::printf("{\"workload\":%s,\"peak_rss_mb\":%.6f,",
                jsonString(w.name).c_str(), peakRssMb());
    std::printf("\"fingerprint\":{\"nproc\":%zu,\"simd\":%s,"
                "\"kernel_width\":%zu,\"build_type\":%s,\"compiler\":%s,"
                "\"clock\":\"wall: steady_clock (CLOCK_MONOTONIC, "
                "resolution %ld ns); cpu: CLOCK_PROCESS_CPUTIME_ID, "
                "CLOCK_THREAD_CPUTIME_ID\"},",
                nproc, jsonString(simd::backendName()).c_str(), width,
                jsonString(XRBENCH_BUILD_TYPE).c_str(),
                jsonString(kCompiler).c_str(),
                static_cast<long>(res.tv_nsec));
    printBatches(batches, t0);
    std::printf(",");
    printSpans(log.take(), t0);
    std::printf("}\n");
    return 0;
}
