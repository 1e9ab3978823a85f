/**
 * @file
 * Tail-latency hunt harness: long-horizon session runs whose research
 * signal is the p99/p99.9 *attribution*, not the median. Every
 * displayed frame's capture-to-display latency is decomposed by the
 * TailMonitor (trace/tail_monitor.hpp) into scheduler-wait / kernel /
 * transport / retry time along the lineage critical path, and every
 * frame past the capture threshold keeps its full breakdown in the
 * outlier table. The bench then reports, per load mix, the tail
 * quantiles of each stage and the dominant-stage census of the
 * p99.9-outlier frames — the numbers that point at WHICH layer owns
 * the tail (the two scheduler fixes in this tree were found exactly
 * this way; BENCH_tail_prefix.json holds the pre-fix numbers).
 *
 *   tail_bench [--frames=N] [--mix=fleet,chaos,edge] [--json PATH]
 *              [--attrib PATH] [--wall] [--seed=N] [--workers=N]
 *              [--tail-threshold-ms=X] [--tail-ring=N]
 *
 * Load mixes (pooled --frames display frames each):
 *   fleet — 4 clean concurrent sessions (baseline contention)
 *   chaos — 2 sessions under the canonical chaos fault plan
 *           (drop-retry pressure)
 *   edge  — 2 edge-offloaded sessions (own server each, wifi6) under
 *           a mid-run link brownout (transport pressure; each lost
 *           frame is answered by the local IMU integrator)
 *
 * Runs on the seeded SimScheduler (virtual clock, modeled cost) by
 * default, so every emitted number — including the attribution
 * tables — is a pure function of (seed, config) and byte-identical
 * across machines and kernel widths (pinned by DeterminismTest.
 * TailAttributionMatchesAcrossKernelWidths). --wall switches to the
 * live PoolExecutor for measuring real scheduler behaviour; those
 * numbers are 1-core honest and NOT comparable to the committed
 * baselines.
 *
 * --json emits flat lower-is-better keys for compare_bench.py
 * --require-max gates:
 *   tail.<mix>.e2e_p999_ms            end-to-end p99.9
 *   tail.<mix>.{sched,kernel,transport,retry}_p999_ms
 *   tail.<mix>.unattributed_pct       % of threshold outliers with no
 *                                     resolvable lineage
 *   tail.<mix>.p999_unattributed_pct  same, over p99.9 outliers only
 *                                     (acceptance: <= 5)
 */

#include "bench_common.hpp"
#include "edge/offload_vio.hpp"
#include "xr/session.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace illixr {
namespace {

/** Canonical chaos plan (same knobs as scenario_matrix's chaos row). */
constexpr const char *kChaosPlan =
    "seed=7,crash=0.02,stall=0.03,spike=0.03,drop=0.05,corrupt=0.02";

/** Mid-run full-severity brownout on the edge link. */
constexpr const char *kBrownoutPlan = "brownout=1000:500:1.0:80,seed=7";

struct MixSpec
{
    std::string name;
    std::size_t sessions = 0;
    const char *fault_plan = nullptr; ///< null = clean
    bool edge = false;
};

struct MixReport
{
    std::string name;
    std::size_t frames = 0;
    std::size_t outliers = 0;
    std::size_t dropped = 0;
    double e2e_p50 = 0.0, e2e_p99 = 0.0, e2e_p999 = 0.0;
    double sched_p999 = 0.0, kernel_p999 = 0.0;
    double transport_p999 = 0.0, retry_p999 = 0.0;
    std::array<std::uint64_t, 5> stage_counts{};
    double unattributed_pct = 0.0;
    /** Census of outlier frames at or above the e2e p99.9. */
    std::size_t p999_frames = 0;
    std::array<std::uint64_t, 5> p999_counts{};
    double p999_unattributed_pct = 0.0;
    /** Attribution rows, e2e-descending (frame seq tie-break). */
    std::vector<TailBreakdown> table;
};

MixReport
runMix(const SessionConfig &base, const MixSpec &spec,
       std::size_t frames_target)
{
    const double display_hz = 120.0; // SystemTuning default
    const std::size_t per_session =
        std::max<std::size_t>(1, frames_target / spec.sessions);
    const Duration duration = fromSeconds(
        static_cast<double>(per_session) / display_hz);

    SessionManager manager(spec.sessions);
    std::vector<std::shared_ptr<Session>> fleet;
    for (std::size_t i = 0; i < spec.sessions; ++i) {
        SessionConfig cfg = base;
        cfg.name = spec.name + std::to_string(i);
        cfg.seed = base.seed + static_cast<unsigned>(i);
        cfg.duration = duration;
        if (spec.fault_plan) {
            if (!parseFaultPlan(spec.fault_plan, cfg.fault_plan)) {
                std::fprintf(stderr, "bad fault plan: %s\n",
                             spec.fault_plan);
                std::exit(2);
            }
        }
        if (spec.edge) {
            cfg.edge.enabled = true;
            // Per-session server: keeps the virtual-clock runs free of
            // cross-session wall-clock races (determinism contract).
            std::string error;
            if (!attachEdgeClient(cfg, i + 1, nullptr, &error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                std::exit(2);
            }
        }
        fleet.push_back(manager.submit(std::move(cfg)));
    }
    manager.drain();

    // Aggregate in session-index order (stable across runs).
    TailConfig agg_cfg;
    agg_cfg.threshold_ms = base.tail.threshold_ms;
    agg_cfg.max_outliers = base.tail.max_outliers;
    TailMonitor agg(agg_cfg);
    for (const auto &session : fleet) {
        const IntegratedResult &r = session->result();
        if (!r.tail) {
            std::fprintf(stderr,
                         "session %s produced no tail monitor\n",
                         session->name().c_str());
            std::exit(2);
        }
        agg.absorb(*r.tail);
    }

    MixReport rep;
    rep.name = spec.name;
    rep.frames = agg.frames();
    rep.outliers = agg.outliers();
    rep.dropped = agg.outliersDropped();
    rep.e2e_p50 = agg.e2eQuantile(0.50);
    rep.e2e_p99 = agg.e2eQuantile(0.99);
    rep.e2e_p999 = agg.e2eQuantile(0.999);
    rep.sched_p999 = agg.stageQuantile(TailStage::Scheduler, 0.999);
    rep.kernel_p999 = agg.stageQuantile(TailStage::Kernel, 0.999);
    rep.transport_p999 = agg.stageQuantile(TailStage::Transport, 0.999);
    rep.retry_p999 = agg.stageQuantile(TailStage::Retry, 0.999);
    rep.stage_counts = agg.outlierStageCounts();
    rep.unattributed_pct = (1.0 - agg.attributedFraction()) * 100.0;

    rep.table = agg.outlierTable();
    std::sort(rep.table.begin(), rep.table.end(),
              [](const TailBreakdown &a, const TailBreakdown &b) {
                  if (a.e2e_ms != b.e2e_ms)
                      return a.e2e_ms > b.e2e_ms;
                  return a.frame.sequence < b.frame.sequence;
              });

    // Census of the frames at/above the e2e p99.9. The quantile
    // itself carries <= 1% bucketing error; membership at the exact
    // boundary can wobble by a frame or two, the census cannot.
    for (const TailBreakdown &b : rep.table) {
        if (b.e2e_ms < rep.e2e_p999)
            break; // table is e2e-descending
        ++rep.p999_frames;
        ++rep.p999_counts[static_cast<std::size_t>(dominantStage(b))];
    }
    if (rep.p999_frames > 0) {
        const auto un = rep.p999_counts[static_cast<std::size_t>(
            TailStage::Unattributed)];
        rep.p999_unattributed_pct =
            100.0 * static_cast<double>(un) /
            static_cast<double>(rep.p999_frames);
    }
    return rep;
}

void
printMix(const MixReport &r)
{
    std::printf("--- mix %-5s: %zu frames, %zu outliers (> %s)\n",
                r.name.c_str(), r.frames, r.outliers,
                r.dropped ? "capture cap hit" : "threshold");
    if (!quantileSupported(r.frames, 0.999))
        std::printf("  WARNING: %zu frames < %zu needed for a "
                    "supported p99.9 — tail numbers are "
                    "extrapolation\n",
                    r.frames, quantileSupportFloor(0.999));
    std::printf("  e2e      p50 %8.3f ms   p99 %8.3f ms   p99.9 "
                "%8.3f ms\n",
                r.e2e_p50, r.e2e_p99, r.e2e_p999);
    std::printf("  p99.9 by stage: sched %.3f  kernel %.3f  "
                "transport %.3f  retry %.3f (ms)\n",
                r.sched_p999, r.kernel_p999, r.transport_p999,
                r.retry_p999);
    std::printf("  outlier dominant-stage census:");
    for (std::size_t i = 0; i < r.stage_counts.size(); ++i)
        std::printf(" %s=%llu",
                    tailStageName(static_cast<TailStage>(i)),
                    static_cast<unsigned long long>(r.stage_counts[i]));
    std::printf("\n");
    std::printf("  p99.9-outlier frames: %zu, census:", r.p999_frames);
    for (std::size_t i = 0; i < r.p999_counts.size(); ++i)
        std::printf(" %s=%llu",
                    tailStageName(static_cast<TailStage>(i)),
                    static_cast<unsigned long long>(r.p999_counts[i]));
    std::printf("  (unattributed %.2f%%)\n\n", r.p999_unattributed_pct);
}

bool
writeJson(const std::string &path, const std::vector<MixReport> &mixes)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        const MixReport &r = mixes[i];
        const std::string key = "tail." + r.name + ".";
        std::fprintf(f, "  \"%se2e_p99_ms\": %.6f,\n", key.c_str(),
                     r.e2e_p99);
        std::fprintf(f, "  \"%se2e_p999_ms\": %.6f,\n", key.c_str(),
                     r.e2e_p999);
        std::fprintf(f, "  \"%ssched_p999_ms\": %.6f,\n", key.c_str(),
                     r.sched_p999);
        std::fprintf(f, "  \"%skernel_p999_ms\": %.6f,\n", key.c_str(),
                     r.kernel_p999);
        std::fprintf(f, "  \"%stransport_p999_ms\": %.6f,\n",
                     key.c_str(), r.transport_p999);
        std::fprintf(f, "  \"%sretry_p999_ms\": %.6f,\n", key.c_str(),
                     r.retry_p999);
        std::fprintf(f, "  \"%sunattributed_pct\": %.6f,\n",
                     key.c_str(), r.unattributed_pct);
        std::fprintf(f, "  \"%sp999_unattributed_pct\": %.6f%s\n",
                     key.c_str(), r.p999_unattributed_pct,
                     i + 1 < mixes.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
}

/** Attribution-table artifact: full per-mix census + the top rows of
 *  each outlier table (e2e-descending), bounded for artifact size. */
bool
writeAttrib(const std::string &path,
            const std::vector<MixReport> &mixes)
{
    constexpr std::size_t kMaxRows = 512;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        const MixReport &r = mixes[i];
        std::fprintf(f, "  \"%s\": {\n", r.name.c_str());
        std::fprintf(f, "    \"frames\": %zu,\n", r.frames);
        std::fprintf(f, "    \"outliers\": %zu,\n", r.outliers);
        std::fprintf(f, "    \"p999_frames\": %zu,\n", r.p999_frames);
        std::fprintf(f, "    \"stage_counts\": {");
        for (std::size_t s = 0; s < r.stage_counts.size(); ++s)
            std::fprintf(
                f, "\"%s\": %llu%s",
                tailStageName(static_cast<TailStage>(s)),
                static_cast<unsigned long long>(r.stage_counts[s]),
                s + 1 < r.stage_counts.size() ? ", " : "");
        std::fprintf(f, "},\n");
        const std::size_t rows = std::min(kMaxRows, r.table.size());
        std::fprintf(f, "    \"table_truncated\": %s,\n",
                     rows < r.table.size() ? "true" : "false");
        std::fprintf(f, "    \"table\": [\n");
        for (std::size_t j = 0; j < rows; ++j) {
            const TailBreakdown &b = r.table[j];
            std::fprintf(
                f,
                "      {\"frame\": %llu, \"e2e_ms\": %.6f, "
                "\"sched_ms\": %.6f, \"kernel_ms\": %.6f, "
                "\"transport_ms\": %.6f, \"retry_ms\": %.6f, "
                "\"path_spans\": %u, \"dominant\": \"%s\"}%s\n",
                static_cast<unsigned long long>(b.frame.sequence),
                b.e2e_ms, b.sched_ms, b.kernel_ms, b.transport_ms,
                b.retry_ms, b.path_spans,
                tailStageName(dominantStage(b)),
                j + 1 < rows ? "," : "");
        }
        std::fprintf(f, "    ]\n");
        std::fprintf(f, "  }%s\n", i + 1 < mixes.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
}

} // namespace
} // namespace illixr

int
main(int argc, char **argv)
{
    using namespace illixr;
    using illixr::bench::banner;

    SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(argc, argv);
    if (!parse.ok) {
        std::fprintf(stderr, "%s\n", parse.error.c_str());
        return 2;
    }

    std::size_t frames = 10000;
    bool wall = false;
    std::string json_path, attrib_path;
    std::string mix_list = "fleet,chaos,edge";
    for (std::size_t i = 0; i < parse.unparsed.size(); ++i) {
        const std::string &arg = parse.unparsed[i];
        if (arg.rfind("--frames=", 0) == 0) {
            frames = static_cast<std::size_t>(
                std::max(1L, std::atol(arg.c_str() + 9)));
        } else if (arg.rfind("--mix=", 0) == 0) {
            mix_list = arg.substr(6);
        } else if (arg == "--wall") {
            wall = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--json" && i + 1 < parse.unparsed.size()) {
            json_path = parse.unparsed[++i];
        } else if (arg.rfind("--attrib=", 0) == 0) {
            attrib_path = arg.substr(9);
        } else if (arg == "--attrib" &&
                   i + 1 < parse.unparsed.size()) {
            attrib_path = parse.unparsed[++i];
        } else {
            std::fprintf(
                stderr,
                "unknown flag: %s\nusage: tail_bench [--frames=N] "
                "[--mix=fleet,chaos,edge] [--json PATH] "
                "[--attrib PATH] [--wall] [--seed=N] [--workers=N] "
                "[--tail-threshold-ms=X] [--tail-ring=N]\n",
                arg.c_str());
            return 2;
        }
    }

    SessionConfig base = parse.config;
    base.executor = wall ? ExecutorKind::Pool : ExecutorKind::Sim;
    base.deterministic = !wall;
    base.trace = true;
    base.tail.enabled = true;
    if (base.tail.threshold_ms == 50.0 &&
        !std::getenv("ILLIXR_TAIL_THRESHOLD_MS"))
        base.tail.threshold_ms = 5.0; // bench default: capture the tail
    if (base.tail.ring == 0)
        base.tail.ring = 4096; // exercise the ring sink by default

    static const MixSpec kMixes[] = {
        {"fleet", 4, nullptr, false},
        {"chaos", 2, kChaosPlan, false},
        {"edge", 2, kBrownoutPlan, true},
    };

    banner("Tail-latency attribution (p99/p99.9 by stage)",
           "lineage critical path over §III's pipelines; "
           "DESIGN.md §Tail-latency model");
    std::printf("frames/mix=%zu timing=%s threshold=%.2f ms "
                "ring=%zu seed=%u\n\n",
                frames, wall ? "wall (1-core honest)" : "virtual",
                base.tail.threshold_ms, base.tail.ring, base.seed);

    std::vector<MixReport> reports;
    for (const MixSpec &spec : kMixes) {
        if (mix_list.find(spec.name) == std::string::npos)
            continue;
        reports.push_back(runMix(base, spec, frames));
        printMix(reports.back());
    }
    if (reports.empty()) {
        std::fprintf(stderr, "no mix selected by --mix=%s\n",
                     mix_list.c_str());
        return 2;
    }

    bool ok = true;
    for (const MixReport &r : reports)
        ok = ok && r.p999_unattributed_pct <= 5.0;
    std::printf("acceptance (>= 95%% of p99.9-outlier frames "
                "attributed to a stage, every mix): %s\n",
                ok ? "PASS" : "FAIL");

    if (!json_path.empty() && !writeJson(json_path, reports)) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    if (!attrib_path.empty() && !writeAttrib(attrib_path, reports)) {
        std::fprintf(stderr, "cannot write %s\n", attrib_path.c_str());
        return 1;
    }
    return ok ? 0 : 1;
}
