/**
 * @file
 * Fleet load generator: ramps the concurrent-session count through a
 * SessionManager and reports, per rung of the ramp, the aggregate
 * frame throughput, the sessions-per-core carrying capacity, and the
 * per-session QoE distribution (MTP and timewarp frame-rate
 * percentiles across the fleet) — the ILLIXR paper's research signal
 * is per-session latency, so the fleet must report QoE per tenant,
 * not just totals.
 *
 *   fleet_bench --sessions=8 [--duration-ms=2000] [--json PATH]
 *               [--executor=sim|pool] [--workers=N] [--seed=N]
 *               [--deterministic]
 *
 * The ramp doubles from 1 up to --sessions (always ending exactly
 * there), one SessionManager round per rung with max_concurrent equal
 * to the rung, so every session in a rung genuinely runs at that
 * concurrency. Each session gets its own seed (base + index). Under
 * the default sim executor the virtual schedule derives from measured
 * host cost, so per-session rates sag as rungs grow — that contention
 * curve IS the measurement. With `--deterministic` the sim executor
 * takes a seeded modeled cost instead, which makes each session's
 * results byte-identical to a solo run of the same seed
 * (DeterminismTest.ConcurrentSessionsMatchSolo pins this). The pool
 * executor runs on the wall clock; `--workers=N` sizes it.
 */

#include "bench_common.hpp"
#include "edge/offload_vio.hpp"
#include "foundation/stats.hpp"
#include "xr/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace illixr {
namespace {

struct FleetRow
{
    std::size_t sessions = 0;
    double wall_s = 0.0;
    double aggregate_fps = 0.0;
    double sessions_per_core = 0.0;
    double rate_p50 = 0.0, rate_min = 0.0;
    double mtp_p50 = 0.0, mtp_p90 = 0.0, mtp_p99 = 0.0;
    double mtp_p999 = 0.0;
    std::size_t mtp_samples = 0;
};

FleetRow
runRound(const SessionConfig &base, std::size_t count)
{
    // With --edge the whole rung shares one in-process edge server —
    // the fleet IS the client swarm, in virtual-time lockstep, so the
    // rung must run all at once (DESIGN.md §9b). Client ids are the
    // 1-based session indices, so per-client link RNG streams stay
    // pure functions of (seed, id).
    std::shared_ptr<EdgeServer> edge_server;
    if (base.edge.enabled)
        edge_server = std::make_shared<EdgeServer>();

    SessionManager manager(count);
    std::vector<std::shared_ptr<Session>> fleet;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < count; ++i) {
        SessionConfig cfg = base;
        cfg.name = "s" + std::to_string(i);
        cfg.seed = base.seed + static_cast<unsigned>(i);
        if (edge_server) {
            std::string error;
            if (!attachEdgeClient(cfg, i + 1, edge_server, &error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                std::exit(2);
            }
        }
        fleet.push_back(manager.submit(std::move(cfg)));
    }
    manager.drain();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    FleetRow row;
    row.sessions = count;
    row.wall_s = wall_s;
    double frames = 0.0;
    double host_cpu_s = 0.0;
    SampleSeries rates;
    SampleSeries mtp_all; // Pooled per-frame MTP across the fleet.
    std::printf("  %-6s %12s %12s %10s %10s %10s\n", "sess",
                "frames/s", "mtp p50(ms)", "p90", "p99", "frames");
    for (const auto &session : fleet) {
        const IntegratedResult &r = session->result();
        auto it = r.tasks.find("timewarp");
        const double session_frames =
            it == r.tasks.end()
                ? 0.0
                : static_cast<double>(it->second.invocations);
        frames += session_frames;
        rates.add(r.achievedHz("timewarp"));
        for (double v : r.mtp.latency_ms.samples())
            mtp_all.add(v);
        for (const auto &[name, stats] : r.tasks) {
            (void)name;
            for (const InvocationRecord &rec : stats.records)
                host_cpu_s += rec.host_seconds;
        }
        std::printf("  %-6s %12.1f %12.2f %10.2f %10.2f %10.0f\n",
                    session->name().c_str(), r.achievedHz("timewarp"),
                    r.mtp.latency_ms.percentile(50),
                    r.mtp.latency_ms.percentile(90),
                    r.mtp.latency_ms.percentile(99), session_frames);
    }
    if (edge_server) {
        double served = 0.0, shed = 0.0, rejected = 0.0, failover = 0.0;
        for (const auto &session : fleet) {
            const auto &extra = session->result().extra;
            const auto get = [&](const char *k) {
                const auto it = extra.find(k);
                return it == extra.end() ? 0.0 : it->second;
            };
            served += get("edge_served");
            shed += get("edge_shed");
            rejected += get("edge_rejected");
            failover += get("failover_poses");
        }
        std::printf("  edge: %.0f served, %.0f shed, %.0f rejected, "
                    "%.0f local-fallback poses\n",
                    served, shed, rejected, failover);
    }
    row.aggregate_fps = wall_s > 0.0 ? frames / wall_s : 0.0;
    const double cores_used =
        wall_s > 0.0 ? std::max(host_cpu_s / wall_s, 1e-9) : 1e-9;
    row.sessions_per_core = static_cast<double>(count) / cores_used;
    row.rate_p50 = rates.percentile(50);
    row.rate_min = rates.min();
    row.mtp_p50 = mtp_all.percentile(50);
    row.mtp_p90 = mtp_all.percentile(90);
    row.mtp_p99 = mtp_all.percentile(99);
    row.mtp_p999 = mtp_all.percentile(99.9);
    row.mtp_samples = mtp_all.count();
    return row;
}

bool
writeJson(const std::string &path, const std::vector<FleetRow> &rows)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const FleetRow &r = rows[i];
        const std::string key =
            "fleet/" + std::to_string(r.sessions) + "sessions/";
        std::fprintf(f, "  \"%saggregate_fps\": %.2f,\n", key.c_str(),
                     r.aggregate_fps);
        std::fprintf(f, "  \"%ssessions_per_core\": %.3f,\n",
                     key.c_str(), r.sessions_per_core);
        std::fprintf(f, "  \"%srate_p50_hz\": %.2f,\n", key.c_str(),
                     r.rate_p50);
        std::fprintf(f, "  \"%smtp_p50_ms\": %.3f,\n", key.c_str(),
                     r.mtp_p50);
        std::fprintf(f, "  \"%smtp_p99_ms\": %.3f,\n", key.c_str(),
                     r.mtp_p99);
        std::fprintf(f, "  \"%smtp_p999_ms\": %.3f%s\n", key.c_str(),
                     r.mtp_p999, i + 1 < rows.size() ? "," : "");
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

    SessionConfig::Parse parse = SessionConfig::fromEnvAndArgs(argc, argv);
    if (!parse.ok) {
        std::fprintf(stderr, "%s\n", parse.error.c_str());
        return 2;
    }

    std::size_t max_sessions = 8;
    long duration_ms = 2000;
    std::string json_path;
    for (std::size_t i = 0; i < parse.unparsed.size(); ++i) {
        const std::string &arg = parse.unparsed[i];
        if (arg.rfind("--sessions=", 0) == 0) {
            max_sessions = std::max(1L, std::atol(arg.c_str() + 11));
        } else if (arg.rfind("--duration-ms=", 0) == 0) {
            duration_ms = std::max(1L, std::atol(arg.c_str() + 14));
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--json" && i + 1 < parse.unparsed.size()) {
            json_path = parse.unparsed[++i];
        } else {
            std::fprintf(
                stderr,
                "unknown flag: %s\nusage: fleet_bench [--sessions=N] "
                "[--duration-ms=M] [--json PATH] [--executor=sim|pool] "
                "[--workers=N (pool)] [--deterministic (sim)] "
                "[--seed=N] [--edge] "
                "[--edge-link=NAME] [--edge-slo-ms=MS]\n",
                arg.c_str());
            return 2;
        }
    }

    SessionConfig base = parse.config;
    base.duration = duration_ms * kMillisecond;

    banner("Fleet: multi-session scaling",
           "Session runtime (DESIGN.md §8); ExpAR-style many-session "
           "serving");
    std::printf("executor=%s%s duration=%ld ms hw_threads=%u\n\n",
                executorKindName(base.executor),
                base.deterministic ? " (deterministic)" : "",
                duration_ms, std::thread::hardware_concurrency());

    // Ramp: 1, 2, 4, ... and always the requested maximum itself.
    std::vector<std::size_t> ramp;
    for (std::size_t c = 1; c < max_sessions; c *= 2)
        ramp.push_back(c);
    ramp.push_back(max_sessions);

    std::vector<FleetRow> rows;
    for (std::size_t count : ramp) {
        std::printf("--- %zu concurrent session%s ---\n", count,
                    count == 1 ? "" : "s");
        rows.push_back(runRound(base, count));
        const FleetRow &r = rows.back();
        std::printf("  fleet: %.1f frames/s aggregate, %.2f "
                    "sessions/core, wall %.2f s\n",
                    r.aggregate_fps, r.sessions_per_core, r.wall_s);
        std::printf("  fleet MTP: p50 %.2f ms, p90 %.2f ms, p99 %.2f "
                    "ms, p99.9 %.2f ms; session rate p50 %.1f Hz "
                    "(min %.1f)\n",
                    r.mtp_p50, r.mtp_p90, r.mtp_p99, r.mtp_p999,
                    r.rate_p50, r.rate_min);
        if (!quantileSupported(r.mtp_samples, 0.999))
            std::printf("  WARNING: %zu MTP samples < %zu needed for "
                        "a supported p99.9 — tail is extrapolation\n",
                        r.mtp_samples, quantileSupportFloor(0.999));
        std::printf("\n");
    }

    if (!json_path.empty() && !writeJson(json_path, rows)) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    return 0;
}
