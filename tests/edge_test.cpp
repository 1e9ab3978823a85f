/**
 * @file
 * Tests for the edge-offload server: deadline-aware admission and
 * shedding, FIFO service at the calibrated per-request cost,
 * pump-cadence independence, the virtual-time lockstep of a shared
 * server, its capacity (⌊period / service⌋ clients), and fleets of
 * real sessions on one server: exact round-trip and SLO oracles on a
 * jitter-free link, and the ways a fleet member can end early.
 */

#include "failover_oracle.hpp"

#include "edge/offload_vio.hpp"
#include "trace/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

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

TEST(EdgeServerTest, AdvanceWaitsForEveryConnectedClient)
{
    // Client 1 runs ahead to 100 ms while client 2 is still at 0 and
    // has yet to submit a request that arrives first. Lockstep holds
    // client 1's advance until client 2 gets there, so client 2's
    // request is served first, as its arrival says.
    EdgeServer server;
    ASSERT_TRUE(server.connect(1));
    ASSERT_TRUE(server.connect(2));
    EXPECT_TRUE(server.submit(makeRequest(1, 0, ms(10), ms(1000))));
    std::thread ahead([&server] { server.advance(1, ms(100)); });
    // Give a server without lockstep the time to serve client 1 first.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(server.submit(makeRequest(2, 0, ms(5), ms(1000))));
    server.advance(2, ms(100));
    ahead.join();

    const std::vector<EdgeCompletion> a = server.poll(1);
    const std::vector<EdgeCompletion> b = server.poll(2);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].done, ms(5) + kS);
    EXPECT_EQ(a[0].done, ms(10) + kS);
}

TEST(EdgeServerTest, DisconnectReleasesAWaitingClient)
{
    EdgeServer server;
    ASSERT_TRUE(server.connect(1));
    // Alone, a client never waits.
    server.advance(1, ms(50));
    ASSERT_TRUE(server.connect(2));
    std::thread waiting([&server] { server.advance(1, ms(100)); });
    server.disconnect(2);
    waiting.join();
    EXPECT_EQ(server.connectedClients(), 1u);
}

TEST(EdgeServerTest, PhaseStaggeredStreamsFitExactlyPeriodOverService)
{
    // The capacity headline in closed form: N = ⌊period / S⌋ = 21
    // request streams at 15 Hz, phase-staggered by period / N, never
    // queue, so every request completes at exactly arrival + S. One
    // more stream and the spacing drops below S: requests wait.
    const Duration period = periodFromHz(15.0);
    const std::size_t n = static_cast<std::size_t>(
        toMilliseconds(period) / kEdgeVioServiceMs);
    ASSERT_EQ(n, 21u);

    auto maxWait = [period](std::size_t clients) {
        EdgeServer server;
        for (std::uint64_t id = 1; id <= clients; ++id)
            server.connect(id);
        const Duration up = ms(1.5);
        Duration max_wait = 0;
        std::size_t served = 0;
        for (std::uint64_t seq = 0; seq < 30; ++seq) {
            for (std::uint64_t id = 1; id <= clients; ++id) {
                const TimePoint capture =
                    static_cast<Duration>(seq) * period +
                    period * static_cast<Duration>(id - 1) /
                        static_cast<Duration>(clients);
                server.pump(capture);
                server.submit(
                    makeRequest(id, seq, capture + up, capture + ms(80)));
            }
        }
        server.pump(31 * period);
        for (std::uint64_t id = 1; id <= clients; ++id) {
            for (const EdgeCompletion &c : server.poll(id)) {
                EXPECT_EQ(c.verdict, EdgeVerdict::Served);
                const TimePoint arrival =
                    static_cast<Duration>(c.seq) * period +
                    period * static_cast<Duration>(id - 1) /
                        static_cast<Duration>(clients) +
                    up;
                max_wait = std::max(max_wait, c.done - kS - arrival);
                ++served;
            }
        }
        EXPECT_EQ(served, 30 * clients);
        return max_wait;
    };
    EXPECT_EQ(maxWait(n), 0);
    EXPECT_GT(maxWait(n + 1), 0);
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

TEST(EdgeSessionTest, PoolSessionCannotJoinASharedServer)
{
    // The pool executor runs on the wall clock: it has no virtual
    // time to keep in lockstep, so attaching it is refused outright.
    auto server = std::make_shared<EdgeServer>();
    SessionConfig sc;
    sc.executor = ExecutorKind::Pool;
    std::string error;
    EXPECT_FALSE(attachEdgeClient(sc, 1, server, &error));
    EXPECT_NE(error.find("pool"), std::string::npos) << error;
    EXPECT_FALSE(sc.vio_factory);
    EXPECT_FALSE(sc.lockstep_group);
    EXPECT_EQ(server->connectedClients(), 0u);

    // A client id can hold one seat only.
    SessionConfig first;
    ASSERT_TRUE(attachEdgeClient(first, 1, server, &error)) << error;
    SessionConfig second;
    EXPECT_FALSE(attachEdgeClient(second, 1, server, &error));
    EXPECT_EQ(server->connectedClients(), 1u);
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

/** Seeded (modeled-cost) config of fleet client @p id: the AR demo,
 *  the lightest app to render, since only the VIO goes to the edge. */
SessionConfig
fleetMember(std::uint64_t id, Duration duration = 2 * kSecond)
{
    SessionConfig sc;
    sc.name = "edge-client-" + std::to_string(id);
    sc.app = AppId::ArDemo;
    sc.deterministic = true;
    sc.seed = static_cast<unsigned>(id);
    sc.duration = duration;
    sc.edge.link = "ethernet";
    return sc;
}

/** Submit @p fleet to one manager with a slot per session; drain. */
std::vector<std::shared_ptr<Session>>
runFleet(std::vector<SessionConfig> fleet)
{
    SessionManager manager(fleet.size());
    std::vector<std::shared_ptr<Session>> sessions;
    for (SessionConfig &sc : fleet)
        sessions.push_back(manager.submit(std::move(sc)));
    manager.drain();
    return sessions;
}

double
extra(const IntegratedResult &r, const char *key)
{
    const auto it = r.extra.find(key);
    return it == r.extra.end() ? -1.0 : it->second;
}

/** Every frame that reached the server came back served. */
void
expectEveryFrameServed(const IntegratedResult &r, const std::string &who)
{
    EXPECT_GT(extra(r, "edge_served"), 25.0) << who;
    EXPECT_EQ(extra(r, "edge_shed"), 0.0) << who;
    EXPECT_EQ(extra(r, "edge_rejected"), 0.0) << who;
    EXPECT_EQ(extra(r, "failover_poses"), 0.0) << who;
    expectFailoverAccounting(r, who);
}

TEST(EdgeSessionTest, FleetOfSessionsSharesOneServer)
{
    // Three sessions as a client swarm on ONE server: every client
    // connects under its own key, is served every frame, and leaves
    // the server when its session ends.
    auto server = std::make_shared<EdgeServer>();
    std::vector<SessionConfig> fleet;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        SessionConfig sc = fleetMember(id);
        std::string error;
        ASSERT_TRUE(attachEdgeClient(sc, id, server, &error)) << error;
        fleet.push_back(std::move(sc));
    }
    EXPECT_EQ(server->connectedClients(), 3u);
    for (const auto &s : runFleet(std::move(fleet)))
        expectEveryFrameServed(s->result(), s->name());
    EXPECT_EQ(server->connectedClients(), 0u);
}

/** Jitter-free, lossless edge Ethernet: every delay is exact. */
NetworkLink
exactLink()
{
    NetworkLink link = NetworkLink::edgeEthernet();
    link.jitter_ms = 0.0;
    link.loss_rate = 0.0;
    return link;
}

/** Uplink (one compressed camera frame) + downlink (one pose), ms. */
std::pair<double, double>
exactLinkDelaysMs()
{
    NetworkModel net(exactLink());
    const SessionConfig sc;
    const std::size_t frame_bytes = static_cast<std::size_t>(
        sc.camera_width * sc.camera_height * OffloadConfig{}.compression_ratio);
    return {toMilliseconds(net.transferDelay(frame_bytes, true).value()),
            toMilliseconds(net.transferDelay(256, false).value())};
}

/** Attach fleet client @p id to @p server over exactLink(). */
SessionConfig
exactMember(std::uint64_t id, const std::shared_ptr<EdgeServer> &server,
            double slo_ms = 80.0)
{
    SessionConfig sc = fleetMember(id);
    OffloadConfig offload;
    offload.link = exactLink();
    offload.server = server;
    offload.client_id = id;
    offload.deadline_slo_ms = slo_ms;
    std::string error;
    EXPECT_TRUE(attachEdgeClient(sc, offload, &error)) << error;
    return sc;
}

TEST(EdgeFleetTest, BurstPositionSetsExactRoundTrip)
{
    // All clients capture on the same camera tick, so their requests
    // reach the server as one burst, served in client-id order: the
    // client at burst position k waits for k - 1 services, and its
    // every pose takes exactly uplink + k·S + downlink.
    constexpr std::uint64_t kClients = 4;
    const auto [up_ms, down_ms] = exactLinkDelaysMs();
    auto server = std::make_shared<EdgeServer>();
    std::vector<SessionConfig> fleet;
    for (std::uint64_t id = 1; id <= kClients; ++id)
        fleet.push_back(exactMember(id, server));
    const auto sessions = runFleet(std::move(fleet));
    const double first =
        extra(sessions.front()->result(), "pose_round_trip_ms");
    for (std::uint64_t k = 1; k <= kClients; ++k) {
        const IntegratedResult &r = sessions[k - 1]->result();
        expectEveryFrameServed(r, sessions[k - 1]->name());
        const double rt = extra(r, "pose_round_trip_ms");
        // Dataset capture stamps sit a few ns past the camera tick the
        // request leaves on, so the absolute check allows 0.1 us...
        EXPECT_NEAR(rt,
                    up_ms + static_cast<double>(k) * kEdgeVioServiceMs +
                        down_ms,
                    1e-4)
            << "burst position " << k;
        // ...and the positions are exactly one service time apart.
        EXPECT_NEAR(rt - first,
                    static_cast<double>(k - 1) * kEdgeVioServiceMs, 1e-9)
            << "burst position " << k;
    }
}

TEST(EdgeFleetTest, SloBetweenBurstPositionsShedsTheNextClient)
{
    // An SLO between the 3rd and 4th burst positions: clients 1-3 are
    // served every frame, and client 4's every frame is shed at the
    // queue head without costing the server any service time.
    constexpr std::uint64_t kClients = 4;
    const double up_ms = exactLinkDelaysMs().first;
    const double slo_ms = up_ms + 3.5 * kEdgeVioServiceMs;
    auto server = std::make_shared<EdgeServer>();
    std::vector<SessionConfig> fleet;
    for (std::uint64_t id = 1; id <= kClients; ++id)
        fleet.push_back(exactMember(id, server, slo_ms));
    const auto sessions = runFleet(std::move(fleet));
    for (std::uint64_t k = 1; k < kClients; ++k)
        expectEveryFrameServed(sessions[k - 1]->result(),
                               sessions[k - 1]->name());
    const IntegratedResult &last = sessions.back()->result();
    EXPECT_EQ(extra(last, "edge_served"), 0.0);
    EXPECT_GT(extra(last, "edge_shed"), 25.0);
    expectFailoverAccounting(last, sessions.back()->name());
}

/** Delegates to an offloaded VIO, but throws from @p from on. */
class ThrowingVio : public Plugin
{
  public:
    ThrowingVio(std::unique_ptr<Plugin> inner, TimePoint from)
        : Plugin(inner->name()), inner_(std::move(inner)), from_(from)
    {
    }
    void
    iterate(TimePoint now) override
    {
        if (now >= from_)
            throw std::runtime_error("vio failed");
        inner_->iterate(now);
    }
    Duration period() const override { return inner_->period(); }
    void stop() override { inner_->stop(); }

  private:
    std::unique_ptr<Plugin> inner_;
    TimePoint from_;
};

TEST(EdgeFleetTest, FailingMembersReleaseTheirPeers)
{
    // Client 2's VIO throws from 0.5 s on and never advances again;
    // client 3's session fails before its VIO exists. Neither may
    // leave client 1 waiting: it runs to the end, served every frame.
    auto server = std::make_shared<EdgeServer>();
    std::vector<SessionConfig> fleet;
    std::string error;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        fleet.push_back(fleetMember(id));
        ASSERT_TRUE(attachEdgeClient(fleet.back(), id, server, &error));
    }
    // The wrappers take the attached factories over: a left-over copy
    // would keep the client's seat, and its peers waiting on it.
    fleet[1].vio_factory = [inner = std::move(fleet[1].vio_factory)](
                               const Phonebook &pb,
                               const SystemTuning &tuning) {
        return std::make_unique<ThrowingVio>(inner(pb, tuning),
                                             500 * kMillisecond);
    };
    fleet[2].vio_factory = [inner = std::move(fleet[2].vio_factory)](
                               const Phonebook &, const SystemTuning &)
        -> std::unique_ptr<Plugin> {
        throw std::runtime_error("no VIO for this session");
    };
    const auto sessions = runFleet(std::move(fleet));

    expectEveryFrameServed(sessions[0]->result(), sessions[0]->name());
    EXPECT_GT(sessions[1]->result().tasks.at("vio").exceptions, 20u);
    EXPECT_THROW(sessions[2]->result(), std::runtime_error);
    EXPECT_EQ(server->connectedClients(), 0u);
}

TEST(EdgeFleetTest, EvictedMemberReleasesItsPeers)
{
    auto server = std::make_shared<EdgeServer>();
    SessionManager manager(3);
    std::vector<std::shared_ptr<Session>> sessions;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        SessionConfig sc = fleetMember(id);
        std::string error;
        ASSERT_TRUE(attachEdgeClient(sc, id, server, &error)) << error;
        sessions.push_back(manager.submit(std::move(sc)));
    }
    // Evict client 2 once the fleet is a few frames into its run.
    while (server->servedTotal() < 12)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(manager.evict(sessions[1]));
    manager.drain();

    expectEveryFrameServed(sessions[0]->result(), sessions[0]->name());
    expectEveryFrameServed(sessions[2]->result(), sessions[2]->name());
    EXPECT_LT(sessions[1]->result().tasks.at("vio").invocations,
              sessions[0]->result().tasks.at("vio").invocations);
    EXPECT_EQ(server->connectedClients(), 0u);
}

TEST(EdgeFleetTest, FleetLargerThanMaxConcurrentIsRefused)
{
    // Two slots cannot run three lockstep clients: a queued member
    // would stall the running two forever. The manager refuses it
    // before anything runs, and the refused client leaves the server.
    auto server = std::make_shared<EdgeServer>();
    std::vector<SessionConfig> fleet;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        fleet.push_back(fleetMember(id));
        std::string error;
        ASSERT_TRUE(attachEdgeClient(fleet.back(), id, server, &error));
    }
    SessionManager manager(2);
    EXPECT_THROW(manager.submit(std::move(fleet[0])),
                 std::invalid_argument);
    EXPECT_EQ(manager.admittedTotal(), 0u);
    EXPECT_EQ(server->connectedClients(), 2u);
}

TEST(EdgeFleetTest, MemberWithoutAFreeSlotIsRefusedAndReleasesItsPeer)
{
    // A plain session holds one of two slots, so client 1 starts and
    // client 2 would queue behind it. Client 2 is refused instead, and
    // dropping it frees its seat: client 1 runs on alone.
    auto server = std::make_shared<EdgeServer>();
    SessionManager manager(2);
    manager.submit(fleetMember(99));
    std::vector<SessionConfig> fleet;
    for (std::uint64_t id = 1; id <= 2; ++id) {
        fleet.push_back(fleetMember(id));
        std::string error;
        ASSERT_TRUE(attachEdgeClient(fleet.back(), id, server, &error));
    }
    const auto first = manager.submit(std::move(fleet[0]));
    EXPECT_THROW(manager.submit(std::move(fleet[1])),
                 std::invalid_argument);
    manager.drain();
    expectEveryFrameServed(first->result(), first->name());
    EXPECT_EQ(server->connectedClients(), 0u);
}

} // namespace
} // namespace illixr
