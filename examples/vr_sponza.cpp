/**
 * @file
 * VR scenario example: the graphics-heavy Sponza application on a
 * platform chosen from the command line, with detailed per-component
 * reporting and the final display frame written to disk — the
 * workflow a systems researcher would use to study one configuration
 * in depth.
 *
 * Usage: vr_sponza [desktop|jetson-hp|jetson-lp] [seconds]
 */

#include "image/io.hpp"
#include "metrics/telemetry.hpp"
#include "runtime/phonebook.hpp"
#include "xr/illixr_system.hpp"
#include "xr/plugins.hpp"

#include <cstdio>
#include <cstring>

using namespace illixr;

int
main(int argc, char **argv)
{
    PlatformId platform = PlatformId::Desktop;
    if (argc > 1) {
        if (std::strcmp(argv[1], "jetson-hp") == 0)
            platform = PlatformId::JetsonHP;
        else if (std::strcmp(argv[1], "jetson-lp") == 0)
            platform = PlatformId::JetsonLP;
    }
    const double seconds = argc > 2 ? std::atof(argv[2]) : 5.0;

    std::printf("Sponza VR on %s for %.1f s (virtual time)\n\n",
                platformName(platform), seconds);

    IntegratedConfig config;
    config.platform = platform;
    config.app = AppId::Sponza;
    config.duration = fromSeconds(seconds);

    const IntegratedResult result = runIntegrated(config);

    TextTable table;
    table.setHeader({"component", "achieved Hz", "target Hz",
                     "exec ms (mean±std)", "skips"});
    for (const auto &[name, stats] : result.tasks) {
        const SampleSeries exec = stats.execMs();
        table.addRow(
            {name, TextTable::num(result.achievedHz(name), 1),
             TextTable::num(result.target_hz.count(name)
                                ? result.target_hz.at(name)
                                : 0.0,
                            0),
             TextTable::meanStd(exec.mean(), exec.stddev(), 2),
             std::to_string(stats.skips)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("MTP: %.1f ± %.1f ms  (imu-age %.2f + reprojection %.2f "
                "+ swap %.2f)\n",
                result.mtp.latency_ms.mean(),
                result.mtp.latency_ms.stddev(),
                result.mtp.imu_age_ms.mean(),
                result.mtp.reprojection_ms.mean(),
                result.mtp.swap_ms.mean());
    std::printf("MTP (lineage): %.1f ± %.1f ms over %zu frames "
                "(%zu fully resolved to camera+IMU)\n",
                result.lineage_mtp.mtp.latency_ms.mean(),
                result.lineage_mtp.mtp.latency_ms.stddev(),
                result.lineage_mtp.frames, result.lineage_mtp.resolved);
    for (const std::string &stage : result.lineage_stages) {
        const auto it = result.lineage_mtp.stage_to_photon_ms.find(stage);
        if (it != result.lineage_mtp.stage_to_photon_ms.end())
            std::printf("  %-16s -> photon  %7.2f ms (p99 %7.2f)\n",
                        stage.c_str(), it->second.mean(),
                        it->second.percentile(99.0));
    }
    std::printf("Power: %.1f W  (CPU %.1f, GPU %.1f, DDR %.1f, SoC %.1f, "
                "Sys %.1f)\n",
                result.power.total(), result.power.rail_watts[0],
                result.power.rail_watts[1], result.power.rail_watts[2],
                result.power.rail_watts[3], result.power.rail_watts[4]);

    // Re-render the final displayed frame for inspection: application
    // frame at the last VIO pose, reprojected.
    if (!result.vio_trajectory.empty()) {
        AppConfig app_cfg;
        app_cfg.eye_width = 256;
        app_cfg.eye_height = 256;
        XrApplication app(AppId::Sponza, app_cfg);
        const Pose pose = result.vio_trajectory.back().pose;
        const StereoFrame frame = app.renderFrame(pose, seconds);
        Timewarp warp;
        const RgbImage display =
            warp.reproject(frame.left, pose, pose);
        const char *path = "/tmp/illixr_sponza_display.ppm";
        if (writePpm(display, path))
            std::printf("\nWrote the final (distortion-corrected) left-"
                        "eye frame to %s\n",
                        path);
    }

    // Export the causal trace: spans + lineage flows for
    // chrome://tracing, the per-frame latency breakdown as CSV, and
    // every task counter/histogram from the metric registry.
    if (result.trace) {
        const char *trace_path = "/tmp/illixr_sponza.trace.json";
        const char *lineage_path = "/tmp/illixr_sponza_lineage.csv";
        if (result.trace->writeChromeTrace(trace_path))
            std::printf("Wrote %zu spans / %zu events to %s\n",
                        result.trace->spanCount(),
                        result.trace->eventCount(), trace_path);
        if (result.trace->writeLineageCsv(lineage_path,
                                          topics::kDisplayFrame,
                                          result.lineage_stages))
            std::printf("Wrote per-frame lineage breakdown to %s\n",
                        lineage_path);
    }
    if (result.metrics) {
        const char *metrics_path = "/tmp/illixr_sponza_metrics.csv";
        if (result.metrics->writeCsv(metrics_path))
            std::printf("Wrote metric registry snapshot to %s\n",
                        metrics_path);
    }
    return 0;
}
