/**
 * @file
 * Tests for the edge-offload server: deadline-aware admission and
 * shedding, FIFO service at the calibrated per-request cost,
 * pump-cadence independence, the fleet simulation's capacity/SLO math
 * (with an exact oracle on a jitter-free link), and the session glue.
 */

#include "edge/fleet_sim.hpp"
#include "edge/offload_vio.hpp"
#include "trace/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace illixr {
namespace {

Duration
ms(double v)
{
    return fromSeconds(v / 1000.0);
}

EdgeRequest
makeRequest(std::uint64_t client, std::uint64_t seq, TimePoint arrival,
            TimePoint deadline)
{
    EdgeRequest r;
    r.client = client;
    r.seq = seq;
    r.arrival = arrival;
    r.deadline = deadline;
    return r;
}

/** The server's per-request service time on the virtual clock. */
const Duration kS = ms(kEdgeVioServiceMs);

TEST(EdgeServerTest, RejectsUnknownClientAndFullQueue)
{
    EdgeServerConfig cfg;
    cfg.max_queue = 2;
    EdgeServer server(cfg);

    // Unknown client: rejected outright, no completion.
    EXPECT_FALSE(server.submit(makeRequest(7, 0, ms(1), ms(1000))));
    EXPECT_EQ(server.rejectedTotal(), 1u);

    ASSERT_TRUE(server.connect(7));
    EXPECT_TRUE(server.submit(makeRequest(7, 1, ms(1), ms(1000))));
    EXPECT_TRUE(server.submit(makeRequest(7, 2, ms(1), ms(1000))));
    // Third queued request exceeds max_queue.
    EXPECT_FALSE(server.submit(makeRequest(7, 3, ms(1), ms(1000))));
    EXPECT_EQ(server.rejectedTotal(), 2u);
    EXPECT_EQ(server.queueDepth(), 2u);
}

TEST(EdgeServerTest, ConnectIsBoundedAndKeyed)
{
    EdgeServerConfig cfg;
    cfg.max_clients = 2;
    EdgeServer server(cfg);
    EXPECT_TRUE(server.connect(1));
    EXPECT_FALSE(server.connect(1)); // Duplicate key.
    EXPECT_TRUE(server.connect(2));
    EXPECT_FALSE(server.connect(3)); // Full.
    EXPECT_EQ(server.connectedClients(), 2u);
    server.disconnect(1);
    EXPECT_TRUE(server.connect(3));
}

TEST(EdgeServerTest, ShedsUnmeetableDeadlineAtSubmit)
{
    EdgeServer server;
    ASSERT_TRUE(server.connect(1));

    // Even served immediately, the pose would complete at
    // arrival + S — a deadline before that is shed at submit.
    EdgeRequest r = makeRequest(1, 0, ms(10), ms(10) + kS - ms(0.1));
    EXPECT_TRUE(server.submit(r)); // Admitted (completion follows)...
    EXPECT_EQ(server.shedTotal(), 1u);
    EXPECT_EQ(server.queueDepth(), 0u); // ...but never queued.

    const std::vector<EdgeCompletion> done = server.poll(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].verdict, EdgeVerdict::Shed);
    EXPECT_EQ(done[0].seq, 0u);
    EXPECT_EQ(done[0].done, r.arrival); // Client learns immediately.
}

TEST(EdgeServerTest, ServesBackToBackArrivalsInFifoOrder)
{
    // Arrivals at t0 and t1 complete at t0 + S and max(t1, t0 + S) + S:
    // the second waits for the first only while it is in service.
    for (const TimePoint t1 : {ms(11), ms(20)}) {
        EdgeServer server;
        ASSERT_TRUE(server.connect(1));
        ASSERT_TRUE(server.connect(2));
        const TimePoint t0 = ms(10);
        EXPECT_TRUE(server.submit(makeRequest(1, 0, t0, ms(1000))));
        EXPECT_TRUE(server.submit(makeRequest(2, 0, t1, ms(1000))));
        server.pump(ms(1000));

        const std::vector<EdgeCompletion> a = server.poll(1);
        const std::vector<EdgeCompletion> b = server.poll(2);
        ASSERT_EQ(a.size(), 1u);
        ASSERT_EQ(b.size(), 1u);
        EXPECT_EQ(a[0].verdict, EdgeVerdict::Served);
        EXPECT_EQ(b[0].verdict, EdgeVerdict::Served);
        EXPECT_EQ(a[0].done, t0 + kS);
        EXPECT_EQ(b[0].done, std::max(t1, t0 + kS) + kS);
        EXPECT_EQ(server.servedTotal(), 2u);
    }
}

TEST(EdgeServerTest, ShedsAtQueueHeadWhenCompletionMissesDeadline)
{
    EdgeServer server;
    ASSERT_TRUE(server.connect(1));
    ASSERT_TRUE(server.connect(2));

    // Request 1 clears admission (arrival + S meets its deadline), but
    // at the head it starts behind request 0, at t0 + S, and would
    // finish at t0 + 2S: shed there, stamped with that start.
    const TimePoint t0 = ms(10);
    EXPECT_TRUE(server.submit(makeRequest(1, 0, t0, ms(1000))));
    EXPECT_TRUE(
        server.submit(makeRequest(1, 1, t0, t0 + 2 * kS - ms(0.1))));
    // Client 2 arrives later; the shed request never held the server.
    EXPECT_TRUE(server.submit(makeRequest(2, 0, ms(11), ms(1000))));
    server.pump(ms(1000));

    const std::vector<EdgeCompletion> a = server.poll(1);
    const std::vector<EdgeCompletion> b = server.poll(2);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].verdict, EdgeVerdict::Served);
    EXPECT_EQ(a[0].done, t0 + kS);
    EXPECT_EQ(a[1].verdict, EdgeVerdict::Shed);
    EXPECT_EQ(a[1].done, t0 + kS);
    EXPECT_EQ(b[0].verdict, EdgeVerdict::Served);
    EXPECT_EQ(b[0].done, t0 + 2 * kS);
    EXPECT_EQ(server.shedTotal(), 1u);
    EXPECT_EQ(server.servedTotal(), 2u);
}

TEST(EdgeServerTest, PumpCadenceDoesNotChangeOutcomes)
{
    // Service order and completion times are pure functions of the
    // request arrivals: pumping every millisecond and pumping once at
    // the end must produce identical completion streams.
    auto run = [](Duration step) {
        EdgeServerConfig cfg;
        // Deep queues: admission (a bounded buffer, inherently
        // timing-coupled) must not mask the service-order invariant.
        cfg.max_queue = 64;
        EdgeServer server(cfg);
        server.connect(1);
        server.connect(2);
        std::vector<EdgeCompletion> all;
        TimePoint pumped = 0;
        for (int i = 0; i < 40; ++i) {
            const TimePoint t = ms(7 * i + 1);
            if (step > 0) {
                for (; pumped < t; pumped += step) {
                    server.pump(pumped);
                    for (std::uint64_t c = 1; c <= 2; ++c)
                        for (const EdgeCompletion &d : server.poll(c))
                            all.push_back(d);
                }
            }
            server.submit(
                makeRequest(1 + (i % 2), i, t, t + ms(80)));
        }
        server.pump(ms(10000));
        for (std::uint64_t c = 1; c <= 2; ++c)
            for (const EdgeCompletion &d : server.poll(c))
                all.push_back(d);
        std::sort(all.begin(), all.end(),
                  [](const EdgeCompletion &x, const EdgeCompletion &y) {
                      if (x.client != y.client)
                          return x.client < y.client;
                      return x.seq < y.seq;
                  });
        return all;
    };

    const std::vector<EdgeCompletion> fine = run(ms(1));
    const std::vector<EdgeCompletion> coarse = run(0);
    ASSERT_EQ(fine.size(), coarse.size());
    for (std::size_t i = 0; i < fine.size(); ++i) {
        EXPECT_EQ(fine[i].client, coarse[i].client);
        EXPECT_EQ(fine[i].seq, coarse[i].seq);
        EXPECT_EQ(fine[i].verdict, coarse[i].verdict);
        EXPECT_EQ(fine[i].done, coarse[i].done);
    }
}

TEST(EdgeServerTest, MetricsCountVerdicts)
{
    MetricsRegistry metrics;
    EdgeServer server;
    server.setMetrics(&metrics);
    ASSERT_TRUE(server.connect(1));
    EXPECT_TRUE(server.submit(makeRequest(1, 0, ms(10), ms(1000))));
    EXPECT_TRUE(server.submit(
        makeRequest(1, 1, ms(10), ms(10)))); // Unmeetable: shed.
    EXPECT_FALSE(server.submit(makeRequest(2, 0, ms(10), ms(1000))));
    server.pump(ms(1000));
    EXPECT_EQ(metrics.counter("edge.served").value(), 1u);
    EXPECT_EQ(metrics.counter("edge.shed").value(), 1u);
    EXPECT_EQ(metrics.counter("edge.rejected").value(), 1u);
    EXPECT_EQ(metrics.histogram("edge.wait_ms").count(), 1u);
}

TEST(EdgeFleetTest, ServesEveryFrameExactlyUpToPeriodOverServiceClients)
{
    // On a link with no jitter and no loss, N = floor(period / S)
    // phase-staggered clients never queue: every frame is served at
    // exactly uplink + S + downlink. Twice that many overload the
    // server and the fleet misses its SLO.
    EdgeFleetConfig cfg;
    cfg.duration = 2 * kSecond;
    cfg.link.jitter_ms = 0.0;
    cfg.link.loss_rate = 0.0;
    const std::size_t n = static_cast<std::size_t>(
        toMilliseconds(periodFromHz(cfg.frame_hz)) / kEdgeVioServiceMs);
    ASSERT_GE(n, 2u);

    NetworkModel net(cfg.link);
    const Duration up = net.transferDelay(cfg.frame_bytes, true).value();
    const Duration down = net.transferDelay(256, false).value();
    const double expected_ms = toMilliseconds(up + kS + down);

    cfg.clients = n;
    const EdgeFleetReport fits = runEdgeFleet(cfg);
    EXPECT_EQ(fits.served, fits.sent);
    EXPECT_EQ(fits.shed + fits.stale + fits.fallback, 0u);
    for (const EdgeClientStats &c : fits.clients) {
        ASSERT_GT(c.latency_ms.count(), 0u);
        EXPECT_EQ(c.latency_ms.min(), expected_ms) << c.id;
        EXPECT_EQ(c.latency_ms.max(), expected_ms) << c.id;
    }
    EXPECT_TRUE(fits.meetsSlo(cfg.slo_ms));

    cfg.clients = 2 * n;
    EXPECT_FALSE(runEdgeFleet(cfg).meetsSlo(cfg.slo_ms));
}

TEST(EdgeFleetTest, ReportAccountsForEveryFrame)
{
    EdgeFleetConfig cfg;
    cfg.clients = 6;
    cfg.duration = 4 * kSecond;
    const EdgeFleetReport report = runEdgeFleet(cfg);
    EXPECT_GT(report.sent, 0u);
    // Every captured frame ends served or in local fallback
    // (breaker-skipped, lost, rejected, or shed).
    EXPECT_EQ(report.sent, report.served + report.fallback);
    EXPECT_GT(report.servedRatio(), 0.9);
    EXPECT_GT(report.p99_ms, report.p50_ms * 0.999);
    EXPECT_FALSE(report.csv().empty());
    ASSERT_EQ(report.clients.size(), 6u);
}

TEST(EdgeFleetTest, LossyLinkDrivesLocalFallback)
{
    EdgeFleetConfig cfg;
    cfg.clients = 4;
    cfg.duration = 4 * kSecond;
    cfg.link.loss_rate = 0.35;
    cfg.breaker.failure_threshold = 2;
    const EdgeFleetReport report = runEdgeFleet(cfg);
    EXPECT_GT(report.lost, 0u);
    EXPECT_GT(report.fallback, report.lost); // Breaker skips add more.
    EXPECT_EQ(report.sent, report.served + report.fallback);
}

TEST(EdgeFleetTest, OverloadShedsInsteadOfQueueingToDeath)
{
    // Far past capacity: the server must shed / reject (bounded
    // queues, deadline admission) rather than serve everything
    // arbitrarily late.
    EdgeFleetConfig cfg;
    cfg.clients = 48;
    cfg.duration = 2 * kSecond;
    const EdgeFleetReport report = runEdgeFleet(cfg);
    EXPECT_GT(report.shed + report.rejected, 0u);
    // Served poses stay near the SLO: lateness is bounded by
    // admission control, not by queue length.
    EXPECT_LT(report.p99_ms, 4.0 * cfg.slo_ms);
}

TEST(EdgeSessionTest, AttachEdgeClientRejectsUnknownLink)
{
    SessionConfig sc;
    sc.edge.link = "carrier-pigeon";
    std::string error;
    EXPECT_FALSE(attachEdgeClient(sc, 1, nullptr, &error));
    EXPECT_NE(error.find("carrier-pigeon"), std::string::npos);
    EXPECT_FALSE(sc.vio_factory);
}

TEST(EdgeSessionTest, EdgeServedSessionTracksAndExportsEdgeExtras)
{
    SessionConfig sc;
    sc.duration = 2 * kSecond;
    sc.edge.link = "ethernet";
    std::string error;
    ASSERT_TRUE(attachEdgeClient(sc, 1, nullptr, &error)) << error;

    Session session{std::move(sc)};
    session.start();
    const IntegratedResult &result = session.result();

    // The edge-served tracker kept the pose stream alive...
    EXPECT_GT(result.vio_trajectory.size(), 20u);
    EXPECT_GE(result.achievedHz("vio"), 0.9 * 15.0);
    // ...its verdict tallies made it into the result...
    ASSERT_TRUE(result.extra.count("edge_served"));
    EXPECT_GT(result.extra.at("edge_served"), 20.0);
    EXPECT_TRUE(result.extra.count("pose_round_trip_ms"));
    // ...and the per-session registry saw the server + link traffic.
    ASSERT_NE(result.metrics, nullptr);
    EXPECT_GT(result.metrics->counter("edge.served").value(), 0u);
    EXPECT_GT(
        result.metrics->counter("net.edge-ethernet.sent").value(), 0u);
}

TEST(EdgeSessionTest, FleetOfSessionsSharesOneServer)
{
    // Three sessions as a client swarm on ONE server: every client
    // connects under its own key and gets served.
    auto server = std::make_shared<EdgeServer>();
    SessionManager manager(3);
    std::vector<std::shared_ptr<Session>> sessions;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        SessionConfig sc;
        sc.name = "edge-client-" + std::to_string(id);
        sc.duration = 1 * kSecond;
        sc.edge.link = "ethernet";
        std::string error;
        ASSERT_TRUE(attachEdgeClient(sc, id, server, &error)) << error;
        sessions.push_back(manager.submit(std::move(sc)));
    }
    manager.drain();
    EXPECT_EQ(server->connectedClients(), 3u);
    EXPECT_GT(server->servedTotal(), 0u);
    for (auto &s : sessions) {
        const IntegratedResult &r = s->result();
        EXPECT_GT(r.extra.at("edge_served"), 0.0) << s->name();
    }
}

} // namespace
} // namespace illixr
