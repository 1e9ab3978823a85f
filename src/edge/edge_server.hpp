/**
 * @file
 * EdgeServer: the in-process multi-tenant edge server for offloaded
 * VIO — per-client request queues, deadline-aware admission control
 * and shedding, and same-window batching through the fused MSCKF
 * kernel (edge/batch_vio.hpp).
 *
 * Policy (DESIGN.md "Edge offload model"):
 *
 *  - Admission: a request from an unconnected client, or one whose
 *    per-client queue is full, is REJECTED (no completion). A request
 *    whose deadline cannot be met even if served next — earliest
 *    completion is already past its deadline — is SHED immediately:
 *    the client learns *now* and falls back to local IMU integration
 *    instead of waiting on a pose that can only arrive stale.
 *  - Batching: admitted requests wait at most `batch_window` for
 *    same-window company; a batch launches when it fills
 *    (`max_batch`) or the window expires, whichever is first, and
 *    costs `dispatch_overhead_ms + per_request_ms * n` of modeled
 *    server time. The overhead amortizes across the batch — that is
 *    the sub-linear scaling the bench measures. The fused compute is
 *    real (one fused call per batch); its *time* is modeled,
 *    never measured, so results are machine-independent.
 *  - Shedding at launch: when the batch's completion time is known,
 *    members that would miss their deadline are shed before the
 *    kernel runs — the server never spends compute on a pose it
 *    already knows will arrive too late.
 *
 * Determinism: batch composition is a pure function of the admitted
 * request set — candidates are ordered by (arrival, client key, seq),
 * never by connection or submission order — and pump(now) decides
 * launches only from request arrival times, never from its own call
 * cadence. Driven from a single virtual timeline (EdgeFleetSim, or
 * one deterministic session), the server replays byte-identically;
 * shared across free-running wall-clock sessions it is thread-safe
 * but the interleaving is the host scheduler's.
 */

#pragma once

#include "edge/batch_vio.hpp"
#include "foundation/stats.hpp"
#include "offload/edge_service.hpp"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace illixr {

class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
class TraceSink;

/** Server policy knobs. */
struct EdgeServerConfig
{
    std::size_t max_clients = 64;
    /** Per-client pending-request cap (beyond it: Rejected). */
    std::size_t max_queue = 4;
    /** Requests fused per batch; 1 = unbatched serving. */
    std::size_t max_batch = 8;
    /** How long a lone request waits for same-window company. */
    Duration batch_window = 2 * kMillisecond;
    /** Fixed per-batch dispatch cost (scheduling, state page-in,
     *  kernel launch) — the cost batching amortizes. */
    double dispatch_overhead_ms = 2.5;
    /** Marginal modeled cost per fused request. */
    double per_request_ms = 0.9;
    /** Shape of the per-client fused update. */
    BatchVioParams vio;
};

class EdgeServer final : public EdgeService
{
  public:
    explicit EdgeServer(const EdgeServerConfig &config = {});

    /** Intern `edge.*` handles into @p metrics (nullptr to disable):
     *  served/shed/rejected/batches counters, batch_size/service_ms/
     *  wait_ms histograms, queue_depth gauge. */
    void setMetrics(MetricsRegistry *metrics);

    /** Record one `edge.batch` span per launched batch. */
    void setTraceSink(TraceSink *sink);

    // EdgeService
    bool connect(std::uint64_t client) override;
    void disconnect(std::uint64_t client) override;
    bool submit(const EdgeRequest &request) override;
    void pump(TimePoint now) override;
    std::vector<EdgeCompletion> poll(std::uint64_t client) override;

    /** Modeled service time of an n-request batch, milliseconds. */
    double batchServiceMs(std::size_t n) const;

    const EdgeServerConfig &config() const { return config_; }

    std::size_t connectedClients() const;
    /** Requests queued across all clients (admitted, not yet run). */
    std::size_t queueDepth() const;
    std::uint64_t servedTotal() const;
    std::uint64_t shedTotal() const;
    std::uint64_t rejectedTotal() const;
    std::uint64_t batchesTotal() const;

    /** Per-client service-latency series (arrival -> done, ms). */
    SampleSeries clientServiceMs(std::uint64_t client) const;

  private:
    struct ClientState
    {
        std::size_t queued = 0; ///< This client's share of pending_.
        std::vector<EdgeCompletion> done;
        SampleSeries service_ms;
    };

    /** Launch the next matured batch, if any. @return progress. */
    bool tryRunBatchLocked(TimePoint now);

    EdgeServerConfig config_;

    mutable std::mutex mutex_;
    std::map<std::uint64_t, ClientState> clients_;
    /** Admitted, unlaunched requests, kept sorted by
     *  (arrival, client, seq) — the one canonical order. */
    std::vector<EdgeRequest> pending_;
    TimePoint busy_until_ = 0;
    std::uint64_t served_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t batches_ = 0;

    Counter *servedCounter_ = nullptr;
    Counter *shedCounter_ = nullptr;
    Counter *rejectedCounter_ = nullptr;
    Counter *batchesCounter_ = nullptr;
    Histogram *batchSizeHist_ = nullptr;
    Histogram *serviceMsHist_ = nullptr;
    Histogram *waitMsHist_ = nullptr;
    Gauge *queueDepthGauge_ = nullptr;
    TraceSink *sink_ = nullptr;
};

} // namespace illixr
