/**
 * @file
 * Fault-rate sweep: the integrated system (desktop Sponza, 5 s) under
 * fault plans of increasing severity, each run with seeds 1-5, plus
 * an offloaded run through a link brownout. Faults are contained by
 * the executor (a crashed invocation is booked and the plugin runs
 * again at its next period); in the offloaded row every frame the
 * link loses is answered by the local IMU integrator. Every cell prints
 * median [min-max] over the seeds, so a row-to-row difference can be
 * read against the seed spread.
 */

#include "bench_common.hpp"

#include "foundation/trajectory_error.hpp"
#include "metrics/qoe.hpp"
#include "edge/offload_vio.hpp"

#include <fstream>

#include <sys/stat.h>

using namespace illixr;
using namespace illixr::bench;

namespace {

struct FaultScenario
{
    const char *name;
    const char *plan; ///< parseFaultPlan spec ("" = no faults).
    bool offloaded;   ///< Run VIO through the modeled link.
};

/** One column: a metric's value in each seeded run. */
struct Column
{
    const char *name;
    int precision;
    SampleSeries runs;

    std::string
    cell() const
    {
        return TextTable::num(runs.percentile(50.0), precision) + " [" +
               TextTable::num(runs.min(), precision) + "-" +
               TextTable::num(runs.max(), precision) + "]";
    }
};

constexpr unsigned kSeeds = 5;

std::vector<Column>
emptyColumns()
{
    return {{"faults", 0, {}},       {"app Hz", 1, {}},
            {"MTP (ms)", 1, {}},     {"lineage MTP (ms)", 1, {}},
            {"missed vsyncs", 0, {}}, {"ATE (cm)", 1, {}},
            {"SSIM", 3, {}}};
}

/** One run; appends its value to each of @p columns. */
void
runScenario(const FaultScenario &scenario, SessionConfig cfg,
            std::vector<Column> &columns)
{
    if (!parseFaultPlan(scenario.plan, cfg.fault_plan))
        std::abort();

    if (scenario.offloaded) {
        OffloadConfig offload;
        offload.link = NetworkLink::edgeEthernet();
        attachEdgeClient(cfg, offload);
    }
    const IntegratedResult r = runSession(cfg);

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
    const double values[] = {
        extra("injected_faults"),
        r.achievedHz("application"),
        r.mtp.latency_ms.mean(),
        r.lineage_mtp.mtp.latency_ms.mean(),
        static_cast<double>(r.mtp.missed_vsync),
        100.0 * computeTrajectoryError(r.vio_trajectory,
                                       dataset.groundTruthTrajectory())
                    .ate_rmse_m,
        q.ssim_mean};
    for (std::size_t i = 0; i < columns.size(); ++i)
        columns[i].runs.add(values[i]);
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
    banner("Fault-rate sweep: MTP / pose error / QoE under injected "
           "faults",
           "methodology of §III-E, §IV");

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
    std::printf("%s runs, seeds 1-%u per row; cells are median "
                "[min-max]\n\n",
                base.deterministic ? "Seeded (modeled-cost)" : "Measured",
                kSeeds);

    TextTable table;
    std::vector<std::string> header = {"scenario"};
    for (const Column &c : emptyColumns())
        header.push_back(c.name);
    table.setHeader(header);

    const std::string csv_path = "results/ablation_resilience.csv";
    ::mkdir("results", 0755);
    std::ofstream csv(csv_path);
    requireWritten(static_cast<bool>(csv), csv_path);
    csv << "scenario,seed,injected_faults,app_hz,mtp_ms,lineage_mtp_ms,"
           "missed_vsync,ate_cm,ssim\n";

    std::vector<std::vector<Column>> rows;
    for (const FaultScenario &scenario : scenarios) {
        std::vector<Column> &columns = rows.emplace_back(emptyColumns());
        for (unsigned seed = 1; seed <= kSeeds; ++seed) {
            SessionConfig cfg = base;
            cfg.seed = seed;
            runScenario(scenario, cfg, columns);
            csv << scenario.name << ',' << seed;
            for (const Column &c : columns)
                csv << ',' << c.runs.samples().back();
            csv << '\n';
        }
        std::vector<std::string> row = {scenario.name};
        for (const Column &c : columns)
            row.push_back(c.cell());
        table.addRow(row);
        std::printf("[%s] done\n", scenario.name);
    }
    std::printf("\n%s\n", table.render().c_str());
    csv.close();
    requireWritten(static_cast<bool>(csv), csv_path);
    std::printf("[wrote %s]\n\n", csv_path.c_str());

    // The reading states only where each faulted row's median falls
    // against the baseline's seed spread.
    std::printf("Reading, each row's median against the baseline's "
                "[min-max]:\n");
    const std::vector<Column> &base_row = rows.front();
    for (std::size_t r = 1; r < rows.size(); ++r) {
        std::printf("  %-17s", scenarios[r].name);
        for (std::size_t c = 1; c < rows[r].size(); ++c) {
            const double median = rows[r][c].runs.percentile(50.0);
            const char *where =
                median > base_row[c].runs.max()   ? "above"
                : median < base_row[c].runs.min() ? "below"
                                                  : "within";
            std::printf(" %s %s;", rows[r][c].name, where);
        }
        std::printf("\n");
    }
    return 0;
}
