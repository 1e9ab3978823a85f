/**
 * @file
 * Edge-serving capacity bench: how many VIO clients one edge server
 * sustains at a fixed p99 pose-latency SLO, per link tier — the
 * headline measurement of the edge-offload subsystem (DESIGN.md §9b
 * "Edge offload model").
 *
 *   edge_bench [--links=wifi6,5g,lte] [--slo-ms=80]
 *              [--duration-ms=4000] [--seed=N] [--limit=128]
 *              [--json PATH]
 *
 * For each link the bench ramps the client count (1, 2, 4, ... then
 * bisects) through runEdgeFleet() and reports the largest fleet whose
 * aggregate p99 capture-to-pose latency stays within the SLO with
 * >= 95% of frames actually served (shedding clients into local
 * fallback does not count as serving them). The server charges the
 * calibrated kEdgeVioServiceMs per request; network delays and
 * queueing are modeled on the virtual timeline, so the numbers are
 * machine-independent and byte-reproducible per seed, which is what
 * lets CI gate them tightly.
 *
 * The --json output is lower-is-better throughout so that
 * compare_bench.py --pair can gate it directly:
 *
 *   edge.<link>.inv_capacity   1000 / max clients
 *   edge.<link>.p99_ms         p99 latency at the max
 *   edge.<link>.p999_ms        p99.9 latency at the max
 *
 * A link where not even one client meets the SLO has no capacity to
 * report: its keys are omitted and the summary prints n/a.
 */

#include "bench_common.hpp"
#include "edge/fleet_sim.hpp"
#include "foundation/stats.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace illixr {
namespace {

struct BenchKnobs
{
    double slo_ms = 80.0;
    Duration duration = 4 * kSecond;
    unsigned seed = 1;
    std::size_t limit = 128;
};

/** Ramp + bisect to the largest client count meeting the SLO. */
std::size_t
maxClients(const NetworkLink &link, const BenchKnobs &knobs,
           EdgeFleetReport &at_max)
{
    auto probe = [&](std::size_t n) {
        EdgeFleetConfig cfg;
        cfg.clients = n;
        cfg.link = link;
        cfg.seed = knobs.seed;
        cfg.duration = knobs.duration;
        cfg.slo_ms = knobs.slo_ms;
        const EdgeFleetReport r = runEdgeFleet(cfg);
        std::printf("  %-10s clients=%-4zu p50=%6.2f ms p99=%6.2f ms "
                    "served=%5.1f%% shed=%llu  %s\n",
                    link.name.c_str(), n, r.p50_ms, r.p99_ms,
                    100.0 * r.servedRatio(),
                    static_cast<unsigned long long>(r.shed),
                    r.meetsSlo(knobs.slo_ms) ? "ok" : "MISS");
        return r;
    };

    EdgeFleetReport best = probe(1);
    if (!best.meetsSlo(knobs.slo_ms))
        return 0;
    std::size_t lo = 1, hi = 2;
    while (hi <= knobs.limit) {
        const EdgeFleetReport r = probe(hi);
        if (!r.meetsSlo(knobs.slo_ms))
            break;
        best = r;
        lo = hi;
        hi *= 2;
    }
    if (hi <= knobs.limit) {
        while (hi - lo > 1) {
            const std::size_t mid = (lo + hi) / 2;
            const EdgeFleetReport r = probe(mid);
            if (r.meetsSlo(knobs.slo_ms)) {
                best = r;
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    at_max = best;
    return lo;
}

bool
writeJson(const std::string &path,
          const std::map<std::string, double> &values)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n");
    std::size_t i = 0;
    for (const auto &[name, value] : values) {
        std::fprintf(f, "  \"%s\": %.4f%s\n", name.c_str(), value,
                     ++i < values.size() ? "," : "");
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

    BenchKnobs knobs;
    std::vector<std::string> link_names = {"wifi6", "5g", "lte"};
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--links=", 0) == 0) {
            link_names.clear();
            std::string rest = arg.substr(8);
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                const std::size_t comma = rest.find(',', pos);
                link_names.push_back(rest.substr(
                    pos, comma == std::string::npos ? comma
                                                    : comma - pos));
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else if (arg.rfind("--slo-ms=", 0) == 0) {
            knobs.slo_ms = std::atof(arg.c_str() + 9);
        } else if (arg.rfind("--duration-ms=", 0) == 0) {
            knobs.duration =
                std::max(1L, std::atol(arg.c_str() + 14)) *
                kMillisecond;
        } else if (arg.rfind("--seed=", 0) == 0) {
            knobs.seed =
                static_cast<unsigned>(std::atol(arg.c_str() + 7));
        } else if (arg.rfind("--limit=", 0) == 0) {
            knobs.limit = std::max(2L, std::atol(arg.c_str() + 8));
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(
                stderr,
                "unknown flag: %s\nusage: edge_bench "
                "[--links=wifi6,5g,lte] [--slo-ms=MS] "
                "[--duration-ms=M] [--seed=N] [--limit=N] "
                "[--json PATH]\n",
                arg.c_str());
            return 2;
        }
    }

    bench::banner("Edge-offload serving capacity",
                  "§II fn.2 / §V-F offloading direction (DESIGN.md "
                  "\"Edge offload model\")");
    std::printf("slo=%.0f ms, service=%.1f ms/request (calibrated), "
                "duration=%.1f s, seed=%u, ramp limit=%zu clients\n\n",
                knobs.slo_ms, kEdgeVioServiceMs,
                toSeconds(knobs.duration), knobs.seed, knobs.limit);

    std::map<std::string, double> json;
    for (const std::string &name : link_names) {
        NetworkLink link;
        if (!NetworkLink::byName(name, link)) {
            std::fprintf(stderr, "unknown link preset: %s\n",
                         name.c_str());
            return 2;
        }
        std::printf("=== %s (%.0f/%.0f Mbps, %.1f ms base, loss "
                    "%.3f) ===\n",
                    link.name.c_str(), link.uplink_mbps,
                    link.downlink_mbps, link.base_latency_ms,
                    link.loss_rate);

        EdgeFleetReport at_max;
        const std::size_t capacity = maxClients(link, knobs, at_max);
        if (capacity == 0) {
            // No fleet meets the SLO: there is no capacity and no
            // latency at it to report, so the link gets no keys.
            std::printf("  -> max clients @ p99 <= %.0f ms: n/a "
                        "(not even one client meets the SLO)\n\n",
                        knobs.slo_ms);
            continue;
        }
        std::printf("  -> max clients @ p99 <= %.0f ms: %zu\n",
                    knobs.slo_ms, capacity);
        std::printf("  -> at max: p99 %.2f ms, p99.9 %.2f ms "
                    "(%zu served frames)\n",
                    at_max.p99_ms, at_max.p999_ms,
                    at_max.latency_samples);
        if (!quantileSupported(at_max.latency_samples, 0.999))
            std::printf("  WARNING: %zu samples < %zu needed for a "
                        "supported p99.9 — tail is extrapolation\n",
                        at_max.latency_samples,
                        quantileSupportFloor(0.999));
        std::printf("\n");

        const std::string key = "edge." + link.name;
        json[key + ".inv_capacity"] =
            1000.0 / static_cast<double>(capacity);
        json[key + ".p99_ms"] = at_max.p99_ms;
        json[key + ".p999_ms"] = at_max.p999_ms;
    }

    if (!json_path.empty() && !writeJson(json_path, json)) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    return 0;
}
