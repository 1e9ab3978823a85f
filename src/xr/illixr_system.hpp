/**
 * @file
 * The integrated ILLIXR system: assembles the full plugin set on the
 * discrete-event runtime for a chosen application and platform, and
 * collects every metric the paper's evaluation reports (frame rates,
 * execution times, CPU-share, power, MTP, QoE inputs).
 */

#pragma once

#include "metrics/mtp.hpp"
#include "perfmodel/power.hpp"
#include "render/scenes.hpp"
#include "resilience/fault_plan.hpp"
#include "runtime/sim_scheduler.hpp"
#include "sensors/dataset.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/tail_monitor.hpp"
#include "trace/trace.hpp"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace illixr {

/** Which executor drives an integrated run. */
enum class ExecutorKind
{
    Sim,  ///< Discrete-event SimScheduler (virtual time; default).
    Pool, ///< PoolExecutor worker pool (wall time).
};

/** Parse an executor name ("sim" | "pool"). @return success. */
bool parseExecutorKind(const std::string &name, ExecutorKind &out);

const char *executorKindName(ExecutorKind kind);

/**
 * Edge-offload options: plain data parsed by SessionConfig (`--edge`,
 * `ILLIXR_EDGE_*`) and consumed by src/edge's attachEdgeClient(),
 * which turns them into an OffloadedVioPlugin factory speaking to an
 * EdgeServer — xr itself never links the server.
 */
struct EdgeOptions
{
    bool enabled = false;
    /** Link preset name (NetworkLink::byName). */
    std::string link = "wifi6";
    /** Pose-latency SLO: deadline = frame capture + this budget. */
    double slo_ms = 80.0;
};

/**
 * Tail-latency attribution options (`--tail-*`, `ILLIXR_TAIL_*`):
 * attach a TailMonitor to the run's TraceSink so every display frame
 * is decomposed into scheduler-wait / kernel / transport / retry time,
 * outliers past the threshold keep their full lineage, and tail.*
 * metrics land in the session registry (see DESIGN.md §Tail-latency
 * model).
 */
struct TailOptions
{
    bool enabled = false;
    /** Frames slower end-to-end than this are captured as outliers. */
    double threshold_ms = 50.0;
    /** TraceSink ring size (spans/events/skips each); 0 = unbounded.
     *  Outlier lineage is materialized before eviction, so a small
     *  ring loses no attribution. */
    std::size_t ring = 0;
    /** Cap on retained outlier breakdowns (FIFO beyond it). */
    std::size_t max_outliers = 65536;
};

/** Configuration of one integrated run. */
struct IntegratedConfig
{
    PlatformId platform = PlatformId::Desktop;
    AppId app = AppId::Sponza;
    Duration duration = 10 * kSecond; ///< Virtual run length.
    int eye_size = 80;                ///< Per-eye render resolution.
    int camera_width = 192;
    int camera_height = 144;
    unsigned seed = 1;
    /** QoE-driven dynamic eye-buffer scaling (paper §V-D demo). */
    bool adaptive_resolution = false;
    /** Record spans + frame lineage into IntegratedResult::trace. */
    bool trace = true;
    /** Executor driving the plugin set. */
    ExecutorKind executor = ExecutorKind::Sim;
    /** Worker count when executor == Pool. */
    std::size_t pool_workers = 4;
    /** Kernel-pool width for the rasterizer, TSDF and timewarp
     *  kernels (the only parallelFor users). 0 = inherit the process
     *  default (`ILLIXR_KERNEL_THREADS`, else serial); 1 = force
     *  serial. Results are bit-identical at any width. */
    std::size_t kernel_threads = 0;
    /** Sim only: seeded modeled cost instead of measured host time;
     *  byte-reproducible per seed. */
    bool deterministic = false;
    /** Seeded fault injection (inactive by default). */
    FaultPlan fault_plan;
    /**
     * Workload scenario (sensors/scenario.hpp). When set, the dataset
     * synthesizes the scenario's trajectory / world / IMU grade
     * instead of the lab-walk preset; SessionConfig::applyScenario()
     * additionally folds the scenario's duration, seed and fault plan
     * into the run config.
     */
    std::optional<Scenario> scenario;
    /** Edge-offloaded VIO serving (see EdgeOptions). */
    EdgeOptions edge;
    /** Tail-latency attribution (see TailOptions). */
    TailOptions tail;
};

/** Everything the benches need from one run. */
struct IntegratedResult
{
    IntegratedConfig config;
    Duration vsync = 0;

    /** Per-component scheduler statistics, by plugin name. */
    std::map<std::string, TaskStats> tasks;

    /** Target rates per component (paper Table III). */
    std::map<std::string, double> target_hz;

    /** Motion-to-photon latency series (§III-E). */
    MtpSeries mtp;

    /** Lineage-derived MTP breakdown (empty when !config.trace). */
    LineageMtp lineage_mtp;

    /** Full causal trace of the run (null when !config.trace). */
    std::shared_ptr<TraceSink> trace;

    /** Tail-latency monitor (null unless config.tail.enabled). */
    std::shared_ptr<TailMonitor> tail;

    /** Per-run metric registry (task counters/histograms). */
    std::shared_ptr<MetricsRegistry> metrics;

    /** Stage topics used for the lineage queries, pipeline order. */
    std::vector<std::string> lineage_stages;

    /** Power model outputs (Fig 6). */
    PowerBreakdown power;
    UtilizationSummary utilization;

    /** Share of total work per component (Fig 5): measured host
     *  seconds, or the modeled virtual durations in a seeded run. */
    std::map<std::string, double> cpu_share;

    /** VIO trajectory estimate (for offline QoE / accuracy). */
    std::vector<StampedPose> vio_trajectory;

    /** Extra scenario-specific metrics (e.g., offload round-trip). */
    std::map<std::string, double> extra;

    /** Achieved rate of a component over the run. */
    double achievedHz(const std::string &name) const;
};

/**
 * The dataset an integrated run replays: the lab walk, or
 * @p config.scenario's path, world and IMU grade when one is set,
 * at the Table III sensor rates and @p config's camera geometry and
 * seed. Offline passes (Table V, pose error) build their ground truth
 * from the same function, so it always follows the path the run flew.
 */
DatasetConfig datasetConfigFor(const IntegratedConfig &config);

/**
 * Run the integrated system once: a thin blocking wrapper over one
 * Session (start + result; see xr/session.hpp for the session
 * lifecycle and the multi-session SessionManager).
 */
IntegratedResult runIntegrated(const IntegratedConfig &config);

} // namespace illixr
