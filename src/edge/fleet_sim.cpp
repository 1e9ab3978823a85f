#include "edge/fleet_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

namespace illixr {

namespace {

/** One simulated client: link, breaker, outcome counters. */
struct SimClient
{
    EdgeClientStats stats;
    std::unique_ptr<NetworkModel> net;
    CircuitBreaker breaker;
    std::uint64_t next_seq = 0;
    TimePoint phase = 0;

    explicit SimClient(const CircuitBreakerPolicy &policy)
        : breaker(policy)
    {
    }
};

} // namespace

EdgeFleetReport
runEdgeFleet(const EdgeFleetConfig &config)
{
    const std::size_t n = std::max<std::size_t>(1, config.clients);
    const Duration period = periodFromHz(config.frame_hz);
    const Duration slo = fromSeconds(config.slo_ms / 1000.0);

    EdgeServer server(config.server);

    // Clients are keyed 1..n. Everything per-client is a pure
    // function of (config.seed, id): link stream and frame phase —
    // never of the order connect() was called in.
    std::map<std::uint64_t, SimClient> clients;
    for (std::uint64_t id = 1; id <= n; ++id) {
        CircuitBreakerPolicy policy = config.breaker;
        // Distinct jitter streams keep a brownout from re-probing the
        // whole fleet in lockstep once the breakers trip.
        policy.jitter_seed = config.seed * 0x9e3779b97f4a7c15ULL + id;
        auto [it, inserted] = clients.emplace(id, SimClient(policy));
        SimClient &c = it->second;
        c.stats.id = id;
        c.net = std::make_unique<NetworkModel>(
            config.link, NetworkModel::linkSeed(config.seed, id));
        c.phase = static_cast<Duration>(
            period * static_cast<Duration>(id - 1) /
            static_cast<Duration>(n));
        (void)inserted;
    }

    std::vector<std::uint64_t> order = config.admission_order;
    if (order.empty())
        for (std::uint64_t id = 1; id <= n; ++id)
            order.push_back(id);
    for (std::uint64_t id : order)
        server.connect(id);

    // Frame schedule: every (time, client) capture event, in time
    // order with client id as the tie-break.
    struct FrameEvent
    {
        TimePoint time;
        std::uint64_t client;
    };
    std::vector<FrameEvent> schedule;
    for (auto &[id, c] : clients)
        for (TimePoint t = c.phase; t < config.duration; t += period)
            schedule.push_back({t, id});
    std::sort(schedule.begin(), schedule.end(),
              [](const FrameEvent &a, const FrameEvent &b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  return a.client < b.client;
              });

    // Deliver matured completions to their clients: downlink draw,
    // latency bookkeeping, breaker feedback. Client order is id order
    // (clients is a sorted map) — deterministic.
    auto deliver = [&](TimePoint now) {
        for (auto &[id, c] : clients) {
            for (const EdgeCompletion &done : server.poll(id)) {
                // Frames are strictly periodic, so the capture time
                // is a pure function of (client, seq).
                const TimePoint frame_time =
                    c.phase +
                    static_cast<Duration>(done.seq) * period;
                if (done.verdict == EdgeVerdict::Shed) {
                    ++c.stats.shed;
                    ++c.stats.fallback;
                    c.breaker.recordFailure(now);
                    continue;
                }
                const std::optional<Duration> down =
                    c.net->transferDelay(256, false);
                if (!down) {
                    ++c.stats.lost;
                    ++c.stats.fallback;
                    c.breaker.recordFailure(now);
                    continue;
                }
                const Duration latency =
                    (done.done + *down) - frame_time;
                ++c.stats.served;
                c.stats.latency_ms.add(toMilliseconds(latency));
                if (latency > slo) {
                    ++c.stats.stale;
                    c.breaker.recordFailure(now);
                } else {
                    c.breaker.recordSuccess(now);
                }
            }
        }
    };

    for (const FrameEvent &ev : schedule) {
        server.pump(ev.time);
        deliver(ev.time);

        SimClient &c = clients.at(ev.client);
        const std::uint64_t seq = c.next_seq++;
        ++c.stats.sent;

        if (!c.breaker.allow(ev.time)) {
            // Failed over: the local IMU integrator serves this
            // frame; nothing goes on the wire.
            ++c.stats.fallback;
            continue;
        }
        const std::optional<Duration> up =
            c.net->transferDelay(config.frame_bytes, true);
        if (!up) {
            ++c.stats.lost;
            ++c.stats.fallback;
            c.breaker.recordFailure(ev.time);
            continue;
        }
        EdgeRequest req;
        req.client = ev.client;
        req.seq = seq;
        req.arrival = ev.time + *up;
        req.deadline = ev.time + slo;
        if (!server.submit(req)) {
            ++c.stats.rejected;
            ++c.stats.fallback;
            c.breaker.recordFailure(ev.time);
        }
    }

    // Drain: every request has arrived within a second of the end, and
    // each queued one needs at most one service time.
    const TimePoint drain =
        config.duration + kSecond +
        static_cast<Duration>(server.queueDepth()) *
            fromSeconds(kEdgeVioServiceMs / 1000.0);
    server.pump(drain);
    deliver(drain);

    EdgeFleetReport report;
    SampleSeries all_latency;
    for (auto &[id, c] : clients) {
        report.sent += c.stats.sent;
        report.served += c.stats.served;
        report.stale += c.stats.stale;
        report.shed += c.stats.shed;
        report.rejected += c.stats.rejected;
        report.lost += c.stats.lost;
        report.fallback += c.stats.fallback;
        for (double ms : c.stats.latency_ms.samples())
            all_latency.add(ms);
        report.clients.push_back(std::move(c.stats));
    }
    report.p50_ms = all_latency.percentile(50.0);
    report.p99_ms = all_latency.percentile(99.0);
    report.p999_ms = all_latency.percentile(99.9);
    report.latency_samples = all_latency.count();
    return report;
}

std::string
EdgeFleetReport::csv() const
{
    std::string out = "client,sent,served,stale,shed,rejected,lost,"
                      "fallback,p50_ms,p99_ms\n";
    char line[256];
    for (const EdgeClientStats &c : clients) {
        std::snprintf(
            line, sizeof line,
            "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.6f,%.6f\n",
            static_cast<unsigned long long>(c.id),
            static_cast<unsigned long long>(c.sent),
            static_cast<unsigned long long>(c.served),
            static_cast<unsigned long long>(c.stale),
            static_cast<unsigned long long>(c.shed),
            static_cast<unsigned long long>(c.rejected),
            static_cast<unsigned long long>(c.lost),
            static_cast<unsigned long long>(c.fallback),
            c.latency_ms.percentile(50.0),
            c.latency_ms.percentile(99.0));
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "total,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.6f,%.6f\n",
                  static_cast<unsigned long long>(sent),
                  static_cast<unsigned long long>(served),
                  static_cast<unsigned long long>(stale),
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(rejected),
                  static_cast<unsigned long long>(lost),
                  static_cast<unsigned long long>(fallback), p50_ms,
                  p99_ms);
    out += line;
    return out;
}

} // namespace illixr
