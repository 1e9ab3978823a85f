/**
 * @file
 * QoE-driven approximation ablation (paper §V-D / §V-E): the
 * application's per-eye resolution as a dynamic knob.
 *
 * The paper motivates "research on QoE-driven resource management,
 * scheduling, and approximation" with exactly this kind of loop: the
 * runtime observes missed display slots and trades image fidelity
 * for frame rate. This bench runs the overloaded configuration
 * (Jetson-LP, Sponza) with the knob fixed and with the adaptive
 * controller enabled.
 */

#include "bench_common.hpp"

using namespace illixr;
using namespace illixr::bench;

int
main()
{
    const SessionConfig::Parse env =
        SessionConfig::fromEnvAndArgs(0, nullptr);
    if (!env.ok) {
        std::fprintf(stderr, "%s\n", env.error.c_str());
        return 2;
    }
    banner("Adaptive-resolution ablation (Jetson-LP, Sponza)",
           "§V-D, §V-E");

    TextTable table;
    table.setHeader({"mode", "app Hz", "timewarp Hz", "MTP (ms)",
                     "eye res (final/min)"});
    for (bool adaptive : {false, true}) {
        SessionConfig cfg = env.config;
        cfg.platform = PlatformId::JetsonLP;
        cfg.app = AppId::Sponza;
        cfg.duration = 6 * kSecond;
        cfg.adaptive_resolution = adaptive;
        const IntegratedResult r = runIntegrated(cfg);
        char res[32];
        std::snprintf(res, sizeof(res), "%d / %d",
                      static_cast<int>(
                          r.extra.at("final_eye_resolution")),
                      static_cast<int>(r.extra.at("min_eye_resolution")));
        table.addRow({adaptive ? "adaptive" : "fixed",
                      TextTable::num(r.achievedHz("application"), 1),
                      TextTable::num(r.achievedHz("timewarp"), 1),
                      TextTable::meanStd(r.mtp.latency_ms.mean(),
                                         r.mtp.latency_ms.stddev()),
                      res});
    }
    std::printf("%s\n", table.render().c_str());

    // Sanity: on the desktop the controller must NOT shed resolution.
    SessionConfig desk = env.config;
    desk.platform = PlatformId::Desktop;
    desk.app = AppId::Sponza;
    desk.duration = 4 * kSecond;
    desk.adaptive_resolution = true;
    const IntegratedResult rd = runIntegrated(desk);
    const int desk_min = static_cast<int>(rd.extra.at("min_eye_resolution"));
    if (desk_min == desk.eye_size)
        std::printf("Desktop guard: adaptive run kept eye resolution at "
                    "%d px (no false downscale).\n\n", desk_min);
    else
        std::printf("Desktop guard FAILED: adaptive run shed to %d px "
                    "(the desktop missed display slots).\n\n", desk_min);

    std::printf(
        "Reading: shedding pixels raises the display-pipeline rate and\n"
        "cuts MTP on the overloaded platform, but the application\n"
        "saturates once it becomes vertex-bound — resolution alone\n"
        "cannot recover 120 Hz, pointing at multi-knob controllers\n"
        "(LOD + resolution + rate), exactly the paper's open research\n"
        "question about end-to-end QoE-driven tuning.\n");
    return 0;
}
