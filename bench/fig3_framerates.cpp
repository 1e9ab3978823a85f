/**
 * @file
 * Figure 3 reproduction: average frame rate of every component of the
 * integrated system, per application and hardware platform, against
 * the target rates of Table III.
 *
 * Expected shape (paper §IV-A1): on the desktop virtually all
 * components meet their targets (the application for Sponza /
 * Materials being the exceptions); Jetson-HP degrades the visual
 * pipeline for the heavier applications; on Jetson-LP only the audio
 * pipeline holds its target while the visual pipeline is severely
 * degraded.
 *
 * Flags: `--executor=sim|pool`, `--workers=N` (pool),
 * `--deterministic` (sim: seeded modeled cost), `--seed=N` select the
 * executor of the integrated runs; `--live`
 * instead measures the live PoolExecutor's wall-clock aggregate
 * throughput on a synthetic three-pipeline workload, and the
 * camera-pipeline latency from inside pool tasks.
 */

#include "bench_common.hpp"

#include "foundation/profile.hpp"
#include "runtime/parallel.hpp"
#include "runtime/pool_executor.hpp"
#include "sensors/world.hpp"
#include "slam/feature_tracker.hpp"

using namespace illixr;
using namespace illixr::bench;

namespace {

/** Busy-spin plugin for the live executor throughput run. */
class SpinPlugin : public Plugin
{
  public:
    SpinPlugin(std::string name, Duration period, double busy_us)
        : Plugin(std::move(name)), period_(period), busy_us_(busy_us)
    {
    }

    void
    iterate(TimePoint) override
    {
        const double deadline = hostTimeSeconds() + busy_us_ * 1e-6;
        volatile double acc = 0.0;
        while (hostTimeSeconds() < deadline)
            acc += 1.0;
        (void)acc;
    }

    Duration period() const override { return period_; }

  private:
    Duration period_;
    double busy_us_;
};

/** The three pipelines at their Table III rate shapes. */
std::vector<std::unique_ptr<SpinPlugin>>
liveWorkload()
{
    std::vector<std::unique_ptr<SpinPlugin>> v;
    v.push_back(
        std::make_unique<SpinPlugin>("camera", periodFromHz(150), 120.0));
    v.push_back(
        std::make_unique<SpinPlugin>("vio", periodFromHz(150), 400.0));
    v.push_back(std::make_unique<SpinPlugin>("integrator",
                                             periodFromHz(400), 40.0));
    v.push_back(std::make_unique<SpinPlugin>("application",
                                             periodFromHz(120), 250.0));
    v.push_back(std::make_unique<SpinPlugin>("timewarp",
                                             periodFromHz(120), 120.0));
    v.push_back(std::make_unique<SpinPlugin>("audio_encoding",
                                             periodFromHz(96), 100.0));
    v.push_back(std::make_unique<SpinPlugin>("audio_playback",
                                             periodFromHz(96), 60.0));
    return v;
}

double cameraPipelineLatencyMs(std::size_t workers);

int
runLiveThroughput(std::size_t workers)
{
    banner("Live executor throughput: PoolExecutor",
           "wall-clock aggregate throughput of the live pool");
    const Duration wall = 2 * kSecond;

    auto plugins = liveWorkload();
    PoolExecutorConfig pool_cfg;
    pool_cfg.workers = workers;
    PoolExecutor pool(pool_cfg);
    for (auto &p : plugins)
        pool.addPlugin(p.get());
    pool.run(wall);
    std::size_t total = 0;
    for (auto &p : plugins)
        total += pool.stats(p->name()).invocations;

    TextTable table;
    table.setHeader({"executor", "threads", "aggregate(Hz)"});
    table.addRow({"pool", std::to_string(workers),
                  TextTable::num(static_cast<double>(total) /
                                     toSeconds(wall),
                                 1)});
    std::printf("%s\n", table.render().c_str());
    std::printf("host cores: %u\n", std::thread::hardware_concurrency());

    // Camera-pipeline latency: the real pyramid + FAST + KLT chain
    // from inside pool tasks, at the configured kernel width.
    const double cam_ms = cameraPipelineLatencyMs(workers);
    std::printf("camera pipeline mean latency: %.3f ms/frame "
                "(kernel threads: %zu)\n",
                cam_ms, KernelPool::instance().width());
    return 0;
}

/**
 * Camera-pipeline plugin for the live run: runs the real
 * camera -> pyramid -> FAST/KLT tracker chain on synthetic frames
 * from inside a PoolExecutor task, so the kernel pool's
 * borrowed-worker path is what gets measured.
 */
class CameraPipelinePlugin : public Plugin
{
  public:
    CameraPipelinePlugin()
        : Plugin("camera_pipeline"), tracker_(TrackerParams{})
    {
        const SyntheticWorld world = SyntheticWorld::labRoom();
        const CameraRig rig = CameraRig::standard(
            CameraIntrinsics::fromFov(192, 144, 1.5));
        for (int i = 0; i < 8; ++i) {
            const Pose body(
                Quat::fromAxisAngle(Vec3(0, 1, 0), 0.01 * i),
                Vec3(0.02 * i, 1.6, 0));
            frames_.push_back(std::make_shared<const ImageF>(
                world.renderGray(rig.intrinsics,
                                 rig.worldToCamera(body))));
        }
    }

    void
    iterate(TimePoint) override
    {
        const double t0 = hostTimeSeconds();
        tracker_.processFrame(frames_[next_++ % frames_.size()]);
        latencies_.push_back(hostTimeSeconds() - t0);
    }

    Duration period() const override { return periodFromHz(150); }

    double
    meanLatencyMs() const
    {
        if (latencies_.empty())
            return 0.0;
        double acc = 0.0;
        for (double s : latencies_)
            acc += s;
        return acc / static_cast<double>(latencies_.size()) * 1e3;
    }

  private:
    FeatureTracker tracker_;
    std::vector<std::shared_ptr<const ImageF>> frames_;
    std::size_t next_ = 0;
    std::vector<double> latencies_;
};

/** Mean per-frame tracker latency under a PoolExecutor run. */
double
cameraPipelineLatencyMs(std::size_t workers)
{
    CameraPipelinePlugin pipeline;
    PoolExecutorConfig pool_cfg;
    pool_cfg.workers = workers;
    PoolExecutor pool(pool_cfg);
    pool.addPlugin(&pipeline);
    pool.run(2 * kSecond);
    return pipeline.meanLatencyMs();
}

} // namespace

int
main(int argc, char **argv)
{
    // The one-stop config parse: env first, flags beat it.
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(argc, argv);
    if (!parse.ok) {
        std::fprintf(stderr, "%s\n", parse.error.c_str());
        return 2;
    }
    bool live = false;
    for (const std::string &arg : parse.unparsed) {
        if (arg == "--live") {
            live = true;
            continue;
        }
        std::fprintf(stderr,
                     "unknown flag: %s\nusage: fig3_framerates "
                     "[--executor=sim|pool] [--workers=N] "
                     "[--kernel-threads=N] [--deterministic] "
                     "[--seed=N] [--live]\n",
                     arg.c_str());
        return 2;
    }
    const SessionConfig &opt = parse.config;
    if (opt.kernel_threads > 0)
        KernelPool::instance().setWidth(opt.kernel_threads);
    if (live)
        return runLiveThroughput(opt.pool_workers);

    banner("Figure 3: per-component frame rates",
           "Fig 3 (a)-(c), §IV-A1");

    const std::vector<std::string> components = {
        "camera", "vio",      "imu",           "integrator",
        "application", "timewarp", "audio_playback", "audio_encoding"};

    for (PlatformId platform : kPlatforms) {
        std::printf("--- %s ---\n", platformName(platform));
        TextTable table;
        std::vector<std::string> header = {"component", "target(Hz)"};
        for (AppId app : kApps)
            header.push_back(appShortName(app));
        table.setHeader(header);

        // One run per application on this platform. `opt` already
        // layers defaults <- env <- flags, so just point it at the
        // experiment cell.
        std::vector<IntegratedResult> results;
        for (AppId app : kApps) {
            SessionConfig cfg = opt;
            cfg.platform = platform;
            cfg.app = app;
            cfg.duration = 6 * kSecond;
            results.push_back(runIntegrated(cfg));
        }

        for (const std::string &component : components) {
            std::vector<std::string> row = {
                component,
                TextTable::num(results[0].target_hz.at(component), 0)};
            for (const IntegratedResult &r : results)
                row.push_back(TextTable::num(r.achievedHz(component), 1));
            table.addRow(row);
        }
        std::printf("%s\n", table.render().c_str());
    }

    std::printf("Shape check vs paper: desktop meets targets; Jetson-LP\n"
                "audio holds 48 Hz while application/timewarp collapse.\n");
    return 0;
}
