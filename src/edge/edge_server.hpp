/**
 * @file
 * EdgeServer: the in-process multi-tenant edge server for offloaded
 * VIO — per-client request queues, deadline-aware admission and one
 * FIFO service lane.
 *
 * Policy (DESIGN.md §9b "Edge offload model"):
 *
 *  - Admission: a request from an unconnected client, or one whose
 *    per-client queue is full, is REJECTED (no completion). A request
 *    whose deadline cannot be met even if served next — earliest
 *    completion is already past its deadline — is SHED immediately:
 *    the client learns *now* and falls back to local IMU integration
 *    instead of waiting on a pose that can only arrive stale.
 *  - Service: admitted requests are served one at a time in the
 *    canonical (arrival, client, seq) order, each charged the one
 *    calibrated per-request cost kEdgeVioServiceMs.
 *  - Shedding at the queue head: when a request reaches the head, its
 *    completion time is exact; if that misses its deadline it is shed
 *    there, and the server never spends compute on it.
 *
 * Determinism: service order is a pure function of the admitted
 * request set, never of connection or submission order, and
 * pump(now) completes a request only once its modeled completion is
 * at or before `now` — so outcomes are independent of pump cadence.
 *
 * Lockstep: clients on free-running session threads advance() the
 * server instead of pumping it. advance(client, now) waits until
 * every connected client has reached `now` before it completes
 * anything, so no client can decide a request that a slower client
 * may still queue ahead of it: every client submits after its own
 * advance() at the same virtual time, and sees the server exactly as
 * of that time. A fleet of sessions sharing one server therefore
 * replays byte-identically, whatever the host's thread interleaving.
 * A server with one client never waits; a client that disconnects
 * releases everyone waiting on it.
 */

#pragma once

#include "foundation/time.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace illixr {

class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;

/**
 * Server time charged per VIO request, ms. *Calibrated*: the median
 * thread-work time of VioSystem::processFrame in a measured desktop
 * Sponza run (4-vCPU x86-64 VM, AVX2, RelWithDebInfo: VIO p50
 * 3.1 ms). The server has no other VIO work to charge; requests share
 * nothing, so n requests cost n times this (DESIGN.md §9b).
 */
inline constexpr double kEdgeVioServiceMs = 3.1;

/** One offloaded VIO frame update, as the server sees it. */
struct EdgeRequest
{
    /** Stable client key. Identity, NOT admission order: the server
     *  must never key behavior on the order clients connected. */
    std::uint64_t client = 0;
    /** Per-client sequence number (monotonic). */
    std::uint64_t seq = 0;
    /** Server-side arrival: capture + client compression + uplink. */
    TimePoint arrival = 0;
    /** Absolute pose deadline (frame capture + the client's SLO
     *  budget). Work that cannot meet it is shed, never queued to
     *  death. */
    TimePoint deadline = 0;
};

/** What happened to an admitted request. */
enum class EdgeVerdict
{
    Served, ///< Computed before its deadline.
    Shed,   ///< Dropped by admission control: deadline unmeetable.
};

/** Server-side outcome of one request, polled by its client. */
struct EdgeCompletion
{
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    EdgeVerdict verdict = EdgeVerdict::Served;
    /** When the response leaves the server (service completed or the
     *  shed decision was made). The client adds its downlink. */
    TimePoint done = 0;
};

/** Server capacity limits. */
struct EdgeServerConfig
{
    std::size_t max_clients = 64;
    /** Per-client pending-request cap (beyond it: Rejected). */
    std::size_t max_queue = 4;
};

/**
 * Lifecycle: connect() once per client, submit() per frame,
 * advance() to bring the server to the client's current virtual time
 * (or pump() from a driver that owns every client's timeline), poll()
 * to collect matured completions. The server never reads a clock.
 */
class EdgeServer
{
  public:
    explicit EdgeServer(const EdgeServerConfig &config = {});

    /** Intern `edge.*` handles into @p metrics (nullptr to disable):
     *  served/shed/rejected counters, the wait_ms histogram and the
     *  queue_depth gauge. */
    void setMetrics(MetricsRegistry *metrics);

    /** Register @p client. @return false when the server is full or
     *  the key is already connected. */
    bool connect(std::uint64_t client);

    /** Drop @p client and its queued work, releasing any advance()
     *  waiting on it. */
    void disconnect(std::uint64_t client);

    /**
     * Offer a request to admission control. @return false when the
     * request was rejected outright (no completion is produced);
     * admitted requests always produce exactly one completion, with
     * verdict Served or Shed.
     */
    bool submit(const EdgeRequest &request);

    /** Complete every queued request whose service ends by @p now. */
    void pump(TimePoint now);

    /**
     * Client @p client has reached virtual time @p now: block until
     * every connected client has reached it too, then pump(now).
     */
    void advance(std::uint64_t client, TimePoint now);

    /** Collect (and clear) @p client's matured completions. */
    std::vector<EdgeCompletion> poll(std::uint64_t client);

    std::size_t connectedClients() const;
    /** Requests queued across all clients (admitted, not yet run). */
    std::size_t queueDepth() const;
    std::uint64_t servedTotal() const;
    std::uint64_t shedTotal() const;
    std::uint64_t rejectedTotal() const;

  private:
    struct ClientState
    {
        std::size_t queued = 0; ///< This client's share of pending_.
        TimePoint reached = 0;  ///< Latest advance() time.
        std::vector<EdgeCompletion> done;
    };

    void pumpLocked(TimePoint now);
    void shedLocked(ClientState &client, const EdgeRequest &request,
                    TimePoint decided);

    EdgeServerConfig config_;

    mutable std::mutex mutex_;
    std::condition_variable reached_;
    std::map<std::uint64_t, ClientState> clients_;
    /** Admitted, unserved requests, kept sorted by
     *  (arrival, client, seq) — the one canonical order. */
    std::vector<EdgeRequest> pending_;
    TimePoint busy_until_ = 0;
    std::uint64_t served_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t rejected_ = 0;

    Counter *servedCounter_ = nullptr;
    Counter *shedCounter_ = nullptr;
    Counter *rejectedCounter_ = nullptr;
    Histogram *waitMsHist_ = nullptr;
    Gauge *queueDepthGauge_ = nullptr;
};

} // namespace illixr
