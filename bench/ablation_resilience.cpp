/**
 * @file
 * Resilience ablation: the integrated system swept across fault
 * plans of increasing severity with the full resilience stack on
 * (supervision + degradation), plus an offloaded run through a link
 * brownout with circuit-breaker failover. Reports how injected fault
 * rate trades against MTP, pose error, and image QoE — the
 * operational-robustness axis the paper's end-to-end methodology
 * makes measurable but its evaluation does not sweep.
 */

#include "bench_common.hpp"

#include "foundation/trajectory_error.hpp"
#include "metrics/qoe.hpp"
#include "offload/offload_vio.hpp"

#include <fstream>

using namespace illixr;
using namespace illixr::bench;

namespace {

struct FaultScenario
{
    const char *name;
    const char *plan;    ///< parseFaultPlan spec ("" = no faults).
    bool offloaded;      ///< Run VIO through the modeled link.
};

struct Row
{
    std::string name;
    double injected = 0.0;
    double restarts = 0.0;
    double vio_hz = 0.0;
    double mtp_ms = 0.0;
    double ate_cm = 0.0;
    double ssim = 0.0;
    double max_level = 0.0;
    double circuit_opens = 0.0;
};

Row
runScenario(const FaultScenario &scenario, SessionConfig cfg)
{
    if (scenario.plan[0] != '\0') {
        if (!parseFaultPlan(scenario.plan, cfg.resilience.fault_plan))
            std::abort();
        cfg.resilience.supervise = true;
        cfg.resilience.degrade = true;
    }

    IntegratedResult r;
    if (scenario.offloaded) {
        OffloadConfig offload;
        offload.link = NetworkLink::edgeEthernet();
        offload.breaker.failure_threshold = 2;
        offload.breaker.open_hold = 200 * kMillisecond;
        r = runIntegratedOffloaded(cfg, offload);
    } else {
        r = runIntegrated(cfg);
    }

    // Ground truth for pose error and QoE: the dataset the run used.
    const SyntheticDataset dataset(datasetConfigFor(cfg));

    QoeInputs inputs;
    inputs.estimated_poses = r.vio_trajectory;
    const double app_hz = std::max(1.0, r.achievedHz("application"));
    inputs.app_frame_interval = periodFromHz(app_hz);
    inputs.display_pose_age =
        fromSeconds(r.mtp.latency_ms.mean() / 1000.0);
    const QoeResult q =
        evaluateImageQoe(AppId::Sponza, dataset, inputs, 6, 96);

    auto extra = [&r](const char *key) {
        auto it = r.extra.find(key);
        return it == r.extra.end() ? 0.0 : it->second;
    };

    Row row;
    row.name = scenario.name;
    row.injected = extra("injected_faults");
    row.restarts = extra("plugin_restarts");
    row.vio_hz = r.achievedHz("vio");
    row.mtp_ms = r.mtp.latency_ms.mean();
    row.ate_cm =
        100.0 * computeTrajectoryError(r.vio_trajectory,
                                       dataset.groundTruthTrajectory())
                    .ate_rmse_m;
    row.ssim = q.ssim_mean;
    row.max_level = extra("degradation_max_level");
    row.circuit_opens = extra("circuit_opens");
    return row;
}

} // namespace

int
main()
{
    const SessionConfig::Parse env =
        SessionConfig::fromEnvAndArgs(0, nullptr);
    if (!env.ok) {
        std::fprintf(stderr, "%s\n", env.error.c_str());
        return 2;
    }
    banner("Resilience ablation: fault rate vs MTP / pose error / QoE",
           "new subsystem; methodology of §III-E, §IV");

    SessionConfig base = env.config;
    base.platform = PlatformId::Desktop;
    base.app = AppId::Sponza;
    base.duration = 5 * kSecond;
    const std::vector<FaultScenario> scenarios = {
        {"baseline", "", false},
        {"chaos-low", "seed=7,crash=0.01,stall=0.02,drop=0.02", false},
        {"chaos-mid",
         "seed=7,crash=0.03,stall=0.04,drop=0.05,corrupt=0.01", false},
        {"chaos-high",
         "seed=7,crash=0.08,stall=0.06,spike=0.05,drop=0.10,corrupt=0.03",
         false},
        {"brownout-offload",
         "seed=7,crash=0.02,brownout=2000:1000:1.0:80", true},
    };

    TextTable table;
    table.setHeader({"scenario", "faults", "restarts", "VIO Hz",
                     "MTP (ms)", "ATE (cm)", "SSIM", "max shed",
                     "breaker opens"});

    std::ofstream csv("results/ablation_resilience.csv");
    csv << "scenario,injected_faults,plugin_restarts,vio_hz,mtp_ms,"
           "ate_cm,ssim,max_degradation_level,circuit_opens\n";

    for (const FaultScenario &scenario : scenarios) {
        const Row row = runScenario(scenario, base);
        table.addRow({row.name, TextTable::num(row.injected, 0),
                      TextTable::num(row.restarts, 0),
                      TextTable::num(row.vio_hz, 1),
                      TextTable::num(row.mtp_ms, 1),
                      TextTable::num(row.ate_cm, 1),
                      TextTable::num(row.ssim, 2),
                      TextTable::num(row.max_level, 0),
                      TextTable::num(row.circuit_opens, 0)});
        csv << row.name << ',' << row.injected << ',' << row.restarts
            << ',' << row.vio_hz << ',' << row.mtp_ms << ','
            << row.ate_cm << ',' << row.ssim << ',' << row.max_level
            << ',' << row.circuit_opens << '\n';
        std::printf("[%s] done\n", row.name.c_str());
    }
    std::printf("\n%s\n", table.render().c_str());
    std::printf("[wrote results/ablation_resilience.csv]\n\n");

    std::printf(
        "Reading: the supervised system absorbs rising fault rates\n"
        "with bounded pose error and QoE — restarts contain crashes,\n"
        "degradation sheds load instead of missing deadlines, and the\n"
        "brownout run keeps tracking alive on the local integrator\n"
        "while the breaker holds the dead link off the critical path.\n");
    return 0;
}
