/**
 * @file
 * Every figure and table of the paper's evaluation (§IV, §V-A) from
 * one run of the 4 apps × 3 platforms grid, 6 s virtual per cell:
 * Fig 3, 5, 6 and Table IV read the whole grid, Table V the Sponza
 * column, Fig 7 and Tables I/III the Platformer column, Fig 4 the
 * Platformer-desktop cell. Fig 8 and Tables VI/VII then profile
 * standalone components on their own datasets (§III-D).
 *
 * Method: rates and MTP come from the grid's virtual timeline
 * (measured work time, or a seeded modeled cost under
 * `--deterministic`; the line after the grid says which). Fig 5's CPU
 * shares are host time, or under `--deterministic` the modeled costs. Power and
 * IPC are modeled by src/perfmodel; Table VI/VII shares are host-timed.
 *
 * Flags: the SessionConfig flags (`--executor=`, `--deterministic`,
 * `--seed=`, ...) configure every cell; `--live` instead measures the
 * live PoolExecutor's wall-clock throughput and camera-pipeline latency.
 */

#include "bench_common.hpp"

#include "audio/audio_pipeline.hpp"
#include "audio/clips.hpp"
#include "eyetrack/ritnet.hpp"
#include "foundation/profile.hpp"
#include "metrics/qoe.hpp"
#include "perfmodel/cache_sim.hpp"
#include "perfmodel/power.hpp"
#include "perfmodel/uarch.hpp"
#include "recon/reconstructor.hpp"
#include "render/app.hpp"
#include "runtime/parallel.hpp"
#include "runtime/pool_executor.hpp"
#include "sensors/world.hpp"
#include "slam/feature_tracker.hpp"
#include "slam/msckf.hpp"
#include "visual/hologram.hpp"
#include "visual/timewarp.hpp"
#include "xr/events.hpp"

#include <algorithm>
#include <map>
#include <sys/stat.h>
#include <utility>

using namespace illixr;
using namespace illixr::bench;

namespace {

/** Busy-spin plugin for the live executor throughput run. */
class SpinPlugin : public Plugin
{
  public:
    SpinPlugin(std::string name, double hz, double busy_us)
        : Plugin(std::move(name)), period_(periodFromHz(hz)),
          busy_us_(busy_us)
    {
    }

    void
    iterate(TimePoint) override
    {
        const double deadline = hostTimeSeconds() + busy_us_ * 1e-6;
        volatile double acc = 0.0;
        while (hostTimeSeconds() < deadline)
            acc = acc + 1.0;
        (void)acc;
    }

    Duration period() const override { return period_; }

  private:
    Duration period_;
    double busy_us_;
};

/** The real camera -> pyramid -> FAST/KLT tracker chain on synthetic
 *  frames, run from inside a PoolExecutor task for the live run. */
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
        tracker_.processFrame(frames_[runs_++ % frames_.size()]);
        busy_s_ += hostTimeSeconds() - t0;
    }

    Duration period() const override { return periodFromHz(150); }

    double
    meanLatencyMs() const
    {
        return runs_ ? busy_s_ / runs_ * 1e3 : 0.0;
    }

  private:
    FeatureTracker tracker_;
    std::vector<std::shared_ptr<const ImageF>> frames_;
    std::size_t runs_ = 0;
    double busy_s_ = 0.0;
};

int
runLiveThroughput(std::size_t workers)
{
    banner("Live executor throughput: PoolExecutor",
           "wall-clock aggregate throughput of the live pool");
    const Duration wall = 2 * kSecond;
    PoolExecutorConfig pool_cfg;
    pool_cfg.workers = workers;

    // The three pipelines at their Table III rate shapes.
    const struct
    {
        const char *name;
        double hz, busy_us;
    } spins[] = {{"camera", 150, 120.0},      {"vio", 150, 400.0},
                 {"integrator", 400, 40.0},   {"application", 120, 250.0},
                 {"timewarp", 120, 120.0},    {"audio_encoding", 96, 100.0},
                 {"audio_playback", 96, 60.0}};
    std::vector<std::unique_ptr<SpinPlugin>> plugins;
    PoolExecutor pool(pool_cfg);
    for (const auto &s : spins) {
        plugins.push_back(
            std::make_unique<SpinPlugin>(s.name, s.hz, s.busy_us));
        pool.addPlugin(plugins.back().get());
    }
    pool.run(wall);
    std::size_t total = 0;
    for (const auto &p : plugins)
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
    CameraPipelinePlugin pipeline;
    PoolExecutor camera_pool(pool_cfg);
    camera_pool.addPlugin(&pipeline);
    camera_pool.run(wall);
    std::printf("camera pipeline mean latency: %.3f ms/frame "
                "(kernel threads: %zu)\n",
                pipeline.meanLatencyMs(), KernelPool::instance().width());
    return 0;
}

/** The integrated runs, one per (platform, app) cell. */
using Grid = std::map<std::pair<PlatformId, AppId>, IntegratedResult>;

/** Run every cell once from @p opt (defaults <- env <- flags). */
Grid
runGrid(const SessionConfig &opt)
{
    Grid grid;
    for (PlatformId platform : kPlatforms) {
        for (AppId app : kApps) {
            SessionConfig cfg = opt;
            cfg.platform = platform;
            cfg.app = app;
            cfg.duration = 6 * kSecond;
            IntegratedResult r = runIntegrated(cfg);
            // No table reads the raw trace or registry: drop them.
            r.trace.reset();
            r.metrics.reset();
            grid.emplace(std::make_pair(platform, app), std::move(r));
        }
    }
    return grid;
}

/** @p row, then @p cell(app) for every app in paper order. */
template <typename F>
std::vector<std::string>
perApp(std::vector<std::string> row, F cell)
{
    for (AppId app : kApps)
        row.push_back(cell(app));
    return row;
}

void
printFig3(const Grid &grid)
{
    banner("Figure 3: per-component frame rates",
           "Fig 3 (a)-(c), §IV-A1");
    for (PlatformId platform : kPlatforms) {
        std::printf("--- %s ---\n", platformName(platform));
        TextTable table;
        table.setHeader(perApp({"component", "target(Hz)"}, appShortName));
        for (const char *component :
             {"camera", "vio", "imu", "integrator", "application",
              "timewarp", "audio_playback", "audio_encoding"}) {
            const double target =
                grid.at({platform, kApps[0]}).target_hz.at(component);
            table.addRow(perApp(
                {component, TextTable::num(target, 0)}, [&](AppId app) {
                    return TextTable::num(
                        grid.at({platform, app}).achievedHz(component),
                        1);
                }));
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("Shape check vs paper: desktop meets targets; Jetson-LP\n"
                "audio holds 48 Hz while application/timewarp collapse.\n");
}

void
printFig4(const IntegratedResult &r)
{
    banner("Figure 4: per-frame execution times (Platformer, desktop)",
           "Fig 4, §IV-A1");
    for (const auto &[name, stats] : r.tasks) {
        const std::string csv =
            "results/timeseries-platformer-desktop-" + name + ".csv";
        requireWritten(writeSeriesCsv(stats.execMs(), csv, "exec_ms"), csv);
    }
    std::printf("[wrote results/timeseries-platformer-desktop-*.csv]\n");

    // Top plot: VIO and the application at the larger scale; then the
    // lighter components.
    std::printf("Per-frame execution time series (ms), first 40 frames:\n\n");
    auto series = [&r](const char *name, int width, std::size_t frames,
                       const char *format) {
        std::printf("%-*s:", width, name);
        const SampleSeries exec = r.tasks.at(name).execMs();
        const auto &samples = exec.samples();
        for (std::size_t i = 0; i < std::min(frames, samples.size()); ++i)
            std::printf(format, samples[i]);
        std::printf("\n");
    };
    for (const char *name : {"vio", "application"})
        series(name, 12, 40, " %5.2f");
    std::printf("\n");
    for (const char *name : {"camera", "integrator", "timewarp",
                             "audio_playback", "audio_encoding"})
        series(name, 14, 20, " %5.3f");

    std::printf("\nVariability summary (coefficient of variation):\n");
    TextTable table;
    table.setHeader({"component", "mean(ms)", "std(ms)", "CV"});
    for (const auto &[name, stats] : r.tasks) {
        const SampleSeries exec = stats.execMs();
        if (exec.count() == 0)
            continue;
        const double mean = exec.mean();
        const double sd = exec.stddev();
        table.addRow({name, TextTable::num(mean, 3),
                      TextTable::num(sd, 3),
                      TextTable::num(mean > 0 ? sd / mean : 0.0, 2)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper observation reproduced: all components exhibit\n"
                "per-frame variability, not only the input-dependent\n"
                "VIO and application.\n");
}

void
printFig5(const Grid &grid, bool deterministic)
{
    banner("Figure 5: CPU time breakdown by component",
           deterministic ? "Fig 5, §IV-A1; modeled: seeded virtual costs"
                         : "Fig 5, §IV-A1; measured host time");
    for (PlatformId platform : kPlatforms) {
        std::printf("--- %s ---\n", platformName(platform));
        TextTable table;
        table.setHeader(perApp({"component"}, [](AppId app) {
            return std::string(appShortName(app)) + " (%)";
        }));
        for (const char *component :
             {"vio", "application", "timewarp", "audio_playback",
              "audio_encoding", "camera", "imu", "integrator"}) {
            table.addRow(perApp({component}, [&](AppId app) {
                const auto &share = grid.at({platform, app}).cpu_share;
                const auto it = share.find(component);
                return TextTable::num(
                    it == share.end() ? 0.0 : 100.0 * it->second, 1);
            }));
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("Shape check vs paper: VIO and application dominate;\n"
                "reprojection stays under ~20%% yet drives MTP.\n");
}

void
printFig6(const Grid &grid)
{
    banner("Figure 6: total power and per-rail breakdown",
           "Fig 6 (a)-(b), §IV-A2; modeled from measured utilization");
    TextTable totals;
    std::vector<std::string> header = perApp(
        {"platform"},
        [](AppId app) { return std::string(appShortName(app)) + " (W)"; });
    header.push_back("ideal VR (W)");
    totals.setHeader(header);
    for (PlatformId platform : kPlatforms) {
        std::vector<std::string> row =
            perApp({platformName(platform)}, [&](AppId app) {
                return TextTable::num(
                    grid.at({platform, app}).power.total(), 1);
            });
        row.push_back(TextTable::num(idealPowerTarget(false), 1));
        totals.addRow(row);
    }
    std::printf("(a) Total power:\n%s\n", totals.render().c_str());

    std::printf("(b) Power breakdown (%% of total):\n");
    for (PlatformId platform : kPlatforms) {
        std::printf("--- %s ---\n", platformName(platform));
        TextTable table;
        table.setHeader(perApp({"rail"}, appShortName));
        for (int i = 0; i < kPowerRailCount; ++i) {
            const auto rail = static_cast<PowerRail>(i);
            table.addRow(perApp({railName(rail)}, [&](AppId app) {
                return TextTable::num(
                    100.0 * grid.at({platform, app}).power.share(rail),
                    1);
            }));
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("Shape check vs paper: GPU dominates the desktop;\n"
                "SoC+Sys exceed 50%% on Jetson-LP, motivating on-sensor\n"
                "computing (§V-C).\n");
}

void
printFig7(const Grid &grid)
{
    banner("Figure 7: per-frame motion-to-photon latency (Platformer)",
           "Fig 7, §IV-A3");
    for (PlatformId platform : kPlatforms) {
        const IntegratedResult &r = grid.at({platform, AppId::Platformer});
        const std::string csv = std::string("results/mtp-platformer-") +
                                platformName(platform) + ".csv";
        requireWritten(writeSeriesCsv(r.mtp.latency_ms, csv, "mtp_ms"),
                       csv);
        std::printf("[wrote %s]\n", csv.c_str());
        const auto &samples = r.mtp.latency_ms.samples();
        std::printf("--- %s: MTP per frame (ms), every 8th frame ---\n",
                    platformName(platform));
        for (std::size_t i = 0; i < samples.size(); i += 8) {
            std::printf(" %5.1f", samples[i]);
            if ((i / 8 + 1) % 16 == 0)
                std::printf("\n");
        }
        std::printf("\n  mean=%.1f ms  std=%.1f ms  p99=%.1f ms  "
                    "frames=%zu  missed-vsync=%zu\n\n",
                    r.mtp.latency_ms.mean(), r.mtp.latency_ms.stddev(),
                    r.mtp.latency_ms.percentile(99.0),
                    r.mtp.latency_ms.count(), r.mtp.missed_vsync);
    }
    std::printf("Shape check vs paper (Fig 7): desktop flat near ~3 ms;\n"
                "Jetson-HP higher with spikes; Jetson-LP large and\n"
                "variable, approaching the 20 ms VR budget.\n");
}

void
printTab1(const Grid &grid)
{
    banner("Table I: ideal-device requirements and the measured gap",
           "Table I, §V-A; Platformer MTP, power modeled");
    std::printf("Ideal VR: 200 MPixels, 165x175 FoV, 90-144 Hz, "
                "< 20 ms MTP, 1-2 W\n"
                "Ideal AR: 200 MPixels, 165x175 FoV, 90-144 Hz, "
                "< 5 ms MTP, 0.1-0.2 W\n\n");

    auto gap = [](double value, double target) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1fx", value / target);
        return std::string(value <= target ? "meets" : buf);
    };
    TextTable table;
    table.setHeader({"platform", "MTP (ms)", "vs VR 20ms", "vs AR 5ms",
                     "power (W)", "vs VR 1.5W", "vs AR 0.15W"});
    for (PlatformId platform : kPlatforms) {
        const IntegratedResult &r = grid.at({platform, AppId::Platformer});
        const double mtp = r.mtp.latency_ms.mean();
        const double watts = r.power.total();
        table.addRow({platformName(platform), TextTable::num(mtp, 1),
                      gap(mtp, 20.0), gap(mtp, 5.0),
                      TextTable::num(watts, 1), gap(watts, 1.5),
                      gap(watts, 0.15)});
    }
    std::printf("%s\n", table.render().c_str());

    // Display-bandwidth side of the gap: our scaled display vs the
    // 200 MPixel aspiration.
    const double modeled_mpix = 2.0 * 80.0 * 80.0 / 1e6;
    const double scaled_2k_mpix = 2.0 * 2048.0 * 1080.0 / 1e6;
    std::printf("Display pixels: modeled %.3f MP/frame (stands in for a "
                "2K display, %.1f MP);\n"
                "ideal 200 MP -> a further %.0fx beyond today's 2K "
                "panels, stressing every\n"
                "visual-pipeline component (paper: the gap \"will be "
                "further exacerbated\").\n",
                modeled_mpix, scaled_2k_mpix, 200.0 / scaled_2k_mpix);
    std::printf("\nShape check vs paper (§V-A): the power gap spans ~1\n"
                "(Jetson-LP vs VR ideal) to ~2-3 (desktop) orders of\n"
                "magnitude; AR power is ~50x away even for Jetson-LP.\n");
}

/** @p r is the Jetson-HP Platformer cell. */
void
printTab3(const IntegratedResult &r)
{
    banner("Table III: tuned system parameters", "Table III, §III-B");
    TextTable table;
    table.setHeader({"component", "parameter", "range", "tuned",
                     "deadline"});
    table.addRow({"Camera (VIO)", "frame rate", "15-100 Hz", "15 Hz",
                  "66.7 ms"});
    table.addRow({"Camera (VIO)", "resolution", "VGA-2K",
                  "VGA (scaled 192x144)", "-"});
    table.addRow({"IMU (Integrator)", "frame rate", "<=800 Hz", "500 Hz",
                  "2 ms"});
    table.addRow({"Display (Visual, App)", "frame rate", "30-144 Hz",
                  "120 Hz", "8.33 ms"});
    table.addRow({"Display (Visual, App)", "resolution", "<=2K",
                  "2K (scaled 80x80/eye)", "-"});
    table.addRow({"Audio", "frame rate", "48-96 Hz", "48 Hz", "20.8 ms"});
    table.addRow({"Audio", "block size", "256-2048", "1024", "-"});
    std::printf("%s\n", table.render().c_str());

    // One measured row; the tuning struct is fixed, so no sweep.
    std::printf("Jetson-HP (Platformer), measured at the tuned %.0f Hz:\n",
                r.target_hz.at("application"));
    TextTable measured;
    measured.setHeader({"target (Hz)", "achieved app (Hz)",
                        "achieved warp (Hz)", "MTP (ms)"});
    measured.addRow({TextTable::num(r.target_hz.at("application"), 0),
                     TextTable::num(r.achievedHz("application"), 1),
                     TextTable::num(r.achievedHz("timewarp"), 1),
                     TextTable::meanStd(r.mtp.latency_ms.mean(),
                                        r.mtp.latency_ms.stddev())});
    std::printf("%s\n", measured.render().c_str());
    std::printf("Observation: the tuned 120 Hz suits the desktop; a\n"
                "lower-power platform saturates below it and degrades.\n");
}

void
printTab4(const Grid &grid)
{
    banner("Table IV: motion-to-photon latency (ms, mean±std)",
           "Table IV, §IV-A3");
    TextTable table;
    table.setHeader(perApp({"platform"}, appName));
    for (PlatformId platform : kPlatforms) {
        table.addRow(perApp({platformName(platform)}, [&](AppId app) {
            const MtpSeries &mtp = grid.at({platform, app}).mtp;
            return TextTable::meanStd(mtp.latency_ms.mean(),
                                      mtp.latency_ms.stddev());
        }));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Targets (Table I): VR < 20 ms, AR < 5 ms.\n");
    std::printf("Shape check vs paper (Table IV): desktop ~3 ms across\n"
                "apps; degradation Desktop -> Jetson-HP -> Jetson-LP,\n"
                "growing with application complexity; AR target missed\n"
                "on the Jetsons.\n");

    // The same §III-E decomposition resolved through each displayed
    // frame's causal ancestry, plus stage-to-photon latency per stage.
    banner("Table IV (lineage): per-stage latency to photon, Sponza",
           "frame-lineage trace");
    TextTable lineage;
    lineage.setHeader({"platform", "MTP (lineage)", "frames",
                       "resolved", "camera->photon", "imu->photon",
                       "render->photon"});
    for (PlatformId platform : kPlatforms) {
        const LineageMtp &lm =
            grid.at({platform, AppId::Sponza}).lineage_mtp;
        auto stage = [&lm](const char *topic) {
            const auto it = lm.stage_to_photon_ms.find(topic);
            return it == lm.stage_to_photon_ms.end()
                       ? std::string("-")
                       : TextTable::num(it->second.mean(), 1);
        };
        lineage.addRow({platformName(platform),
                        TextTable::meanStd(lm.mtp.latency_ms.mean(),
                                           lm.mtp.latency_ms.stddev()),
                        std::to_string(lm.frames),
                        std::to_string(lm.resolved),
                        stage(topics::kCamera), stage(topics::kImu),
                        stage(topics::kSubmittedFrame)});
    }
    std::printf("%s\n", lineage.render().c_str());
}

/** Table V (§III-E): each Sponza run's frames reprojected offline with
 *  its VIO poses and with ground truth, the image pairs compared. */
void
printTab5(const Grid &grid)
{
    banner("Table V: image quality (SSIM, 1-FLIP) for Sponza",
           "Table V, §IV-A3");
    TextTable table;
    table.setHeader({"metric", "Desktop", "Jetson-HP", "Jetson-LP"});
    std::vector<std::string> ssim_row = {"SSIM"};
    std::vector<std::string> flip_row = {"1-FLIP"};
    for (PlatformId platform : kPlatforms) {
        const IntegratedResult &r = grid.at({platform, AppId::Sponza});
        // Ground truth is the dataset the run itself replayed.
        const SyntheticDataset dataset(datasetConfigFor(r.config));

        QoeInputs inputs;
        inputs.estimated_poses = r.vio_trajectory;
        const double app_hz = std::max(1.0, r.achievedHz("application"));
        inputs.app_frame_interval = periodFromHz(app_hz);
        inputs.display_pose_age =
            fromSeconds(r.mtp.latency_ms.mean() / 1000.0);

        const QoeResult q =
            evaluateImageQoe(AppId::Sponza, dataset, inputs, 6, 96);
        ssim_row.push_back(
            TextTable::meanStd(q.ssim_mean, q.ssim_std, 2));
        flip_row.push_back(TextTable::meanStd(q.one_minus_flip_mean,
                                              q.one_minus_flip_std, 2));
        std::printf("[%s] app=%.1f Hz, pose-age=%.1f ms, "
                    "VIO frames=%zu\n",
                    platformName(platform), app_hz,
                    r.mtp.latency_ms.mean(), r.vio_trajectory.size());
    }
    table.addRow(ssim_row);
    table.addRow(flip_row);
    std::printf("\n%s\n", table.render().c_str());
    std::printf(
        "Shape check vs paper (Table V): degradation appears when the\n"
        "Jetson-LP VIO drifts (the paper's LP lost tracking outright).\n"
        "In runs where the synthetic LP VIO stays healthy the metrics\n"
        "remain near the desktop's — which itself reproduces the\n"
        "paper's §IV-A3 caveat: SSIM/FLIP values \"seem deceptively\n"
        "high\" and are weakly sensitive to the errors that dominate\n"
        "the experience, motivating better XR quality metrics.\n");
}

/**
 * Fig 8: the analytical µarch model over each component's instruction
 * mix (DESIGN.md), corroborated by measured convolution share and
 * cache-simulator working sets.
 */
void
printFig8()
{
    banner("Figure 8: IPC and cycle breakdown per component",
           "Fig 8, §IV-B; modeled IPC, measured convolution share");
    TextTable table;
    table.setHeader({"component", "IPC", "retiring%", "bad-spec%",
                     "frontend%", "backend%"});
    for (const OpMix &mix : illixrComponentMixes()) {
        const UarchResult r = evaluateUarch(mix);
        table.addRow({r.component, TextTable::num(r.ipc, 2),
                      TextTable::num(100.0 * r.retiring, 1),
                      TextTable::num(100.0 * r.bad_speculation, 1),
                      TextTable::num(100.0 * r.frontend_bound, 1),
                      TextTable::num(100.0 * r.backend_bound, 1)});
    }
    std::printf("%s\n", table.render().c_str());

    // Measured corroboration 1: eye tracking spends most of its time
    // in convolutions (paper: 74%).
    EyeImageGenerator gen;
    RitNet net(gen.params().width, gen.params().height);
    for (int i = 0; i < 4; ++i)
        net.estimate(gen.generate(i));
    std::printf("Eye tracking measured convolution share: %.0f%% "
                "(paper: 74%%)\n",
                100.0 * net.profile().taskShare("convolution"));
    std::printf("Eye tracking parameters: %.2f MB (paper: 0.98 MB); "
                "MACs/inference: %.1f M\n",
                net.parameterCount() * 4.0 / 1e6,
                net.macCount() / 1e6);

    // Measured corroboration 2: working-set behaviour via the cache
    // simulator (paper: VIO working sets miss L2 but fit the LLC;
    // the 64 KB audio soundfield fits L2).
    CacheHierarchy vio_cache;
    const std::uint64_t vio_ws = 1536 * 1024; // Several hundred KB+.
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t a = 0; a < vio_ws; a += 64)
            vio_cache.access(a);
    CacheHierarchy audio_cache;
    const std::uint64_t audio_ws = 64 * 1024; // HOA soundfield.
    for (int pass = 0; pass < 30; ++pass)
        for (std::uint64_t a = 0; a < audio_ws; a += 8)
            audio_cache.access(a);
    std::printf("\nCache simulation:\n");
    std::printf("  VIO-like working set (1.5 MB): L2 miss rate %.0f%%, "
                "LLC miss rate %.0f%% (misses L2, fits LLC)\n",
                100.0 * vio_cache.l2().missRate(),
                100.0 * vio_cache.llc().missRate());
    std::printf("  Audio soundfield (64 KB): L2 miss rate %.1f%% "
                "(fits L2 -> ~7 cycle loads, IPC 3.5)\n",
                100.0 * audio_cache.l2().missRate());

    std::printf("\nShape check vs paper (Fig 8): IPC spans ~0.3\n"
                "(reprojection, frontend-bound by driver code) to ~3.5\n"
                "(audio playback, ~86%% retiring); bottlenecks are\n"
                "diverse across the frontend and backend.\n");
}

/** One component's measured task shares next to the paper's. */
void
printProfile(const char *component, const TaskProfile &profile,
             const std::vector<std::pair<std::string, int>> &paper_rows)
{
    std::printf("--- %s ---\n", component);
    TextTable table;
    table.setHeader({"task", "measured (%)", "paper (%)"});
    for (const auto &[task, paper_pct] : paper_rows) {
        table.addRow({task,
                      TextTable::num(100.0 * profile.taskShare(task), 1),
                      std::to_string(paper_pct)});
    }
    std::printf("%s\n", table.render().c_str());
}

/** Table VI: VIO on a Vicon-Room-like dataset, reconstruction on a
 *  slow-scan dyson_lab-like one (§III-D). */
void
printTab6()
{
    banner("Table VI: task breakdown of VIO and scene reconstruction",
           "Table VI, §IV-B; host-timed task shares");

    // --- VIO on a Vicon-Room-like dataset. ---
    DatasetConfig vio_cfg;
    vio_cfg.duration_s = 8.0;
    vio_cfg.image_width = 192;
    vio_cfg.image_height = 144;
    vio_cfg.preset = DatasetConfig::Preset::ViconRoom;
    vio_cfg.seed = 21;
    const SyntheticDataset vio_ds(vio_cfg);

    MsckfParams params;
    params.imu_noise = vio_cfg.imu_noise;
    params.max_clones = 11;       // OpenVINS-scale sliding window.
    params.max_slam_features = 16;
    params.min_obs_for_slam = 7;
    VioSystem vio(params, TrackerParams{}, vio_ds.rig());
    ImuState init;
    init.orientation = vio_ds.trajectory().pose(0.0).orientation;
    init.position = vio_ds.trajectory().pose(0.0).position;
    init.velocity = vio_ds.trajectory().velocity(0.0);
    vio.initialize(init);

    std::size_t imu_idx = 0;
    for (std::size_t f = 0; f < vio_ds.cameraFrameCount(); ++f) {
        const CameraFrame frame = vio_ds.cameraFrame(f);
        while (imu_idx < vio_ds.imuSamples().size() &&
               vio_ds.imuSamples()[imu_idx].time <= frame.time)
            vio.addImu(vio_ds.imuSamples()[imu_idx++]);
        vio.processFrame(frame.time, frame.image);
    }
    printProfile("VIO (OpenVINS-style MSCKF)", vio.combinedProfile(),
                 {{"feature_detection", 15}, {"feature_matching", 13},
                  {"feature_initialization", 14}, {"msckf_update", 23},
                  {"slam_update", 20}, {"marginalization", 5},
                  {"other", 10}});

    // --- Scene reconstruction on a slow-scan depth sequence. ---
    DatasetConfig recon_cfg;
    recon_cfg.duration_s = 4.0;
    recon_cfg.camera_rate_hz = 5.0;
    recon_cfg.image_width = 128;
    recon_cfg.image_height = 96;
    recon_cfg.preset = DatasetConfig::Preset::SlowScan;
    recon_cfg.seed = 22;
    const SyntheticDataset recon_ds(recon_cfg);

    ReconParams recon_params;
    recon_params.icp.subsample = 1;  // Dense ICP, as KinectFusion.
    recon_params.icp.max_iterations = 12;
    recon_params.bilateral_spatial_sigma = 1.2;
    recon_params.tsdf.resolution = 80;
    recon_params.tsdf.side_meters = 12.0;
    recon_params.tsdf.origin = Vec3(-6.0, -2.0, -6.0);
    SceneReconstructor recon(recon_params, recon_ds.rig().intrinsics);
    std::size_t grown = 0;
    std::size_t prev_voxels = 0;
    for (std::size_t f = 0; f < recon_ds.cameraFrameCount(); ++f) {
        const DepthFrame frame = recon_ds.depthFrame(f, 0.01);
        const CameraFrame gray = recon_ds.cameraFrame(f);
        const Pose truth = recon_ds.rig()
                               .worldToCamera(recon_ds.groundTruthPose(
                                   frame.time))
                               .inverse();
        const ReconFrameResult res = recon.processFrame(
            frame.depth, f == 0 ? &truth : nullptr, &gray.image);
        if (res.observed_voxels > prev_voxels)
            ++grown;
        prev_voxels = res.observed_voxels;
    }
    printProfile("Scene reconstruction (KinectFusion-style)",
                 recon.profile(),
                 {{"camera_processing", 5}, {"image_processing", 18},
                  {"pose_estimation", 28}, {"surfel_prediction", 34},
                  {"map_fusion", 15}});

    std::printf("Map growth: %zu of %zu frames grew the map "
                "(paper: execution time keeps increasing with map "
                "size).\n",
                grown, recon_ds.cameraFrameCount());
    std::printf("\nShape check vs paper (Table VI): no single task\n"
                "dominates either component; the update/prediction\n"
                "tasks carry the largest shares.\n");
}

/** Table VII: visual and audio components on §III-D-style inputs
 *  (museum-scene frames, 48 kHz clips). */
void
printTab7()
{
    banner("Table VII: task breakdown of visual and audio components",
           "Table VII, §IV-B; host-timed task shares");

    // Museum-like frames: the Materials scene at a high-detail pose
    // stands in for VR Museum of Fine Art captures.
    AppConfig app_cfg;
    app_cfg.eye_width = 160;
    app_cfg.eye_height = 160;
    XrApplication museum(AppId::Materials, app_cfg);
    const Pose pose(Quat::identity(), Vec3(0, 1.4, 4.5));
    const StereoFrame frame = museum.renderFrame(pose, 0.3);

    // --- Reprojection. ---
    Timewarp warp;
    const Pose fresh(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.02),
                     pose.position);
    for (int i = 0; i < 12; ++i)
        warp.reproject(frame.left, pose, fresh);
    printProfile("Reprojection (TimeWarp + distortion + chromatic)",
                 warp.profile(),
                 {{"fbo", 24}, {"state_update", 54}, {"reprojection", 22}});

    // --- Hologram. ---
    HologramParams holo_params;
    holo_params.resolution = 128;
    holo_params.iterations = 4;
    holo_params.depth_planes = 3;
    HologramGenerator hologram(holo_params);
    hologram.compute(frame.left);
    printProfile("Hologram (weighted Gerchberg-Saxton)",
                 hologram.profile(),
                 {{"hologram_to_depth", 57}, {"sum", 0},
                  {"depth_to_hologram", 43}});

    // --- Audio encoding. ---
    const std::size_t block = 1024;
    AudioEncoder encoder(block);
    AudioSource src1, src2;
    src1.pcm = std::make_shared<const std::vector<std::int16_t>>(toPcm16(
        synthesizeClip(ClipKind::SpeechLike, 48000 * 2, 48000.0, 7)));
    src1.direction = Vec3(1, 0, 0);
    src2.pcm = std::make_shared<const std::vector<std::int16_t>>(
        toPcm16(synthesizeClip(ClipKind::Music, 48000 * 2, 48000.0, 8)));
    src2.direction = Vec3(0, 1, 0);
    encoder.addSource(std::move(src1));
    encoder.addSource(std::move(src2));
    Soundfield field(block);
    for (std::size_t b = 0; b < 48; ++b)
        field = encoder.encodeBlock(b);
    printProfile("Audio encoding", encoder.profile(),
                 {{"normalization", 7}, {"encoding", 81},
                  {"summation", 12}});

    // --- Audio playback. ---
    AudioPlayback playback(block);
    const Quat head = Quat::fromAxisAngle(Vec3(0, 0, 1), 0.4);
    for (int b = 0; b < 48; ++b)
        playback.processBlock(field, head, 0.2);
    printProfile("Audio playback", playback.profile(),
                 {{"psychoacoustic_filter", 29}, {"rotation", 6},
                  {"zoom", 5}, {"binauralization", 60}});

    std::printf("Shape check vs paper (Table VII): encoding dominates\n"
                "audio encoding; binauralization dominates playback;\n"
                "hologram splits between the two propagation tasks.\n"
                "(Reprojection deviates by construction: our software\n"
                "warp has no GPU driver, so the \"state update\" share\n"
                "that dominated the paper's CPU profile is small here —\n"
                "see EXPERIMENTS.md.)\n");
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
    for (const std::string &arg : parse.unparsed) {
        if (arg == "--live")
            continue;
        std::fprintf(stderr,
                     "unknown flag: %s\nusage: figures "
                     "[--executor=sim|pool] [--workers=N] "
                     "[--kernel-threads=N] [--deterministic] "
                     "[--seed=N] [--live]\n",
                     arg.c_str());
        return 2;
    }
    const SessionConfig &opt = parse.config;
    if (opt.kernel_threads > 0)
        KernelPool::instance().setWidth(opt.kernel_threads);
    if (!parse.unparsed.empty()) // Only --live gets this far.
        return runLiveThroughput(opt.pool_workers);

    const Grid grid = runGrid(opt);
    const char *cost = opt.executor == ExecutorKind::Pool ? "wall-clock"
                       : opt.deterministic ? "seeded modeled"
                                           : "measured work-time";
    std::printf("Grid: 4 apps x 3 platforms, 6 s virtual each, %s "
                "executor, %s cost, seed %u.\n\n",
                executorKindName(opt.executor), cost, opt.seed);

    ::mkdir("results", 0755); // CSV artifacts of Fig 4 and Fig 7.
    printFig3(grid);
    printFig4(grid.at({PlatformId::Desktop, AppId::Platformer}));
    printFig5(grid, opt.deterministic);
    printFig6(grid);
    printFig7(grid);
    printTab1(grid);
    printTab3(grid.at({PlatformId::JetsonHP, AppId::Platformer}));
    printTab4(grid);
    printTab5(grid);

    printFig8();
    printTab6();
    printTab7();
    return 0;
}
