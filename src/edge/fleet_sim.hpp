/**
 * @file
 * EdgeFleetSim: a single-virtual-timeline simulation of N VIO clients
 * sharing one EdgeServer over modeled network links — the bench
 * harness behind `bench/edge_bench` and the byte-identity surface of
 * DeterminismTest.EdgeFleetIsByteIdentical.
 *
 * Every client captures frames at `frame_hz` (phase-staggered by
 * client id), compresses, draws its uplink from its OWN NetworkModel
 * (seeded NetworkModel::linkSeed(seed, client id) — never admission
 * order), submits to the shared server with a pose deadline derived
 * from the frame's capture time (`frame_time + slo_ms`), and a
 * per-client CircuitBreaker fails the client over to local IMU poses
 * on loss, shed, rejection, or SLO-stale delivery. Because every
 * event is processed in (time, client id) order on one timeline, the
 * whole fleet replays byte-identically: same report CSV at kernel
 * widths 1/2/4 and under any permutation of the connect order.
 */

#pragma once

#include "edge/edge_server.hpp"
#include "edge/network.hpp"
#include "foundation/stats.hpp"
#include "resilience/circuit_breaker.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace illixr {

/** One fleet run's knobs. */
struct EdgeFleetConfig
{
    std::size_t clients = 8;
    NetworkLink link = NetworkLink::wifi6();
    unsigned seed = 1;
    double frame_hz = 15.0;
    Duration duration = 10 * kSecond;
    /** Pose-latency SLO: deadline = frame capture + this budget. */
    double slo_ms = 80.0;
    /** Compressed frame payload (192x144 at 0.25 byte/px). */
    std::size_t frame_bytes = 6912;
    EdgeServerConfig server;
    CircuitBreakerPolicy breaker;
    /**
     * Explicit connect order — client ids 1..clients, permuted.
     * Empty = ascending. The report MUST be byte-identical under any
     * permutation (the admission-order-independence contract).
     */
    std::vector<std::uint64_t> admission_order;
};

/** Per-client outcome counters. */
struct EdgeClientStats
{
    std::uint64_t id = 0;
    std::uint64_t sent = 0;     ///< Frames captured.
    std::uint64_t served = 0;   ///< Poses delivered by the server.
    std::uint64_t stale = 0;    ///< Delivered but past the SLO.
    std::uint64_t shed = 0;     ///< Shed by admission control.
    std::uint64_t rejected = 0; ///< Refused (queue full).
    std::uint64_t lost = 0;     ///< Uplink or downlink loss.
    std::uint64_t fallback = 0; ///< Local-IMU poses (breaker/failure).
    /** Capture -> pose-delivered latency of served poses, ms. */
    SampleSeries latency_ms;
};

/** Whole-fleet outcome. */
struct EdgeFleetReport
{
    std::vector<EdgeClientStats> clients;
    std::uint64_t sent = 0;
    std::uint64_t served = 0;
    std::uint64_t stale = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t lost = 0;
    std::uint64_t fallback = 0;
    double p50_ms = 0.0; ///< Aggregate served pose latency.
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    std::size_t latency_samples = 0; ///< Served frames pooled above.

    double servedRatio() const
    {
        return sent == 0 ? 0.0
                         : static_cast<double>(served) /
                               static_cast<double>(sent);
    }

    /** The bench's SLO test: tail latency within budget AND nearly
     *  every frame actually served (shedding a client into local
     *  fallback is not "meeting" the SLO). */
    bool
    meetsSlo(double slo_ms, double min_served_ratio = 0.95) const
    {
        return p99_ms <= slo_ms && servedRatio() >= min_served_ratio;
    }

    /** Canonical CSV (fixed precision, per-client rows + total) —
     *  the byte-identity surface of the determinism tests. */
    std::string csv() const;
};

/** Run one fleet simulation (pure virtual time; returns immediately
 *  with the fully-drained outcome). */
EdgeFleetReport runEdgeFleet(const EdgeFleetConfig &config);

} // namespace illixr
