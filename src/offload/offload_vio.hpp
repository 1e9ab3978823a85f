/**
 * @file
 * Offloaded head tracking: the VIO component executed on an edge /
 * cloud server over a modeled network link — the paper's §II
 * footnote 2 ("a local component can be easily swapped with a remote
 * one without modifying the rest of the system") realized through
 * the plugin interface.
 *
 * The plugin's *local* cost is only frame compression and bookkeeping
 * (the filter computation is excluded from the local platform via
 * Plugin::excludeHostSeconds and re-introduced as remote-server
 * latency), and every pose estimate is released onto the switchboard
 * only after uplink + remote-compute + downlink delays mature.
 */

#pragma once

#include "foundation/stats.hpp"
#include "offload/edge_service.hpp"
#include "offload/network.hpp"
#include "resilience/circuit_breaker.hpp"
#include "slam/imu_integrator.hpp"
#include "slam/msckf.hpp"
#include "xr/illixr_system.hpp"
#include "xr/plugins.hpp"

#include <deque>
#include <map>
#include <memory>

namespace illixr {

class FaultInjector;

/** Offload configuration. */
struct OffloadConfig
{
    NetworkLink link = NetworkLink::wifi6();
    /** Link RNG seed. For fleet clients derive it with
     *  NetworkModel::linkSeed(session seed, client id) so every
     *  client draws an independent, admission-order-free stream. */
    unsigned link_seed = 71;
    /** Remote-server speed relative to the reference desktop
     *  (virtual remote compute time = host seconds * this). */
    double server_scale = 0.8;
    /** Bytes per camera frame after on-device compression. */
    double compression_ratio = 0.25;

    /** Breaker guarding the remote path (see CircuitBreaker). */
    CircuitBreakerPolicy breaker;
    /** A delivered frame whose round trip exceeds this counts as a
     *  breaker failure (stale poses are as bad as lost ones). */
    double rtt_failure_ms = 150.0;

    /**
     * When set, frames are served by this edge server (shared by the
     * whole client fleet) instead of the standalone rtt model: the
     * plugin becomes a client stub — uplink, submit with a deadline
     * derived from the frame's capture time, poll, downlink — and
     * shed/rejected verdicts feed the breaker like losses do.
     */
    std::shared_ptr<EdgeService> edge;
    /** Stable client key on the edge server. */
    std::uint64_t client_id = 1;
    /** Pose-deadline budget from frame capture (edge mode). */
    double deadline_slo_ms = 80.0;
};

/**
 * Drop-in replacement for VioPlugin that runs the filter "remotely".
 *
 * A CircuitBreaker guards the remote path: consecutive lost or
 * over-deadline frames trip it Open and head tracking fails over to a
 * local RK4 IMU integrator (corrected by the last accepted remote
 * poses) until HalfOpen probes succeed and the link closes again.
 */
class OffloadedVioPlugin : public Plugin
{
  public:
    OffloadedVioPlugin(const Phonebook &pb, const SystemTuning &tuning,
                       const OffloadConfig &config);

    void iterate(TimePoint now) override;
    Duration period() const override
    {
        return periodFromHz(tuning_.camera_hz);
    }

    const std::vector<StampedPose> &trajectory() const
    {
        return trajectory_;
    }
    const std::vector<StampedPose> *vioTrajectory() const override
    {
        return &trajectory_;
    }
    void exportExtras(std::map<std::string, double> &extra) const override;

    /** Round-trip (capture to pose-available) latency series, ms. */
    const SampleSeries &roundTripMs() const { return roundTrip_; }

    std::size_t framesLost() const { return framesLost_; }
    const NetworkModel &network() const { return net_; }
    NetworkModel &network() { return net_; }

    /** Feed brownout windows (and only those) from a fault plan. */
    void setFaultInjector(const FaultInjector *injector)
    {
        injector_ = injector;
    }

    std::size_t circuitOpens() const { return breaker_.opens(); }
    CircuitBreaker::State breakerState() const { return breaker_.state(); }
    /** Poses produced by the local integrator while failed over. */
    std::size_t failoverPoses() const { return failoverPoses_; }

    /** Edge-mode verdict tallies (all zero in rtt mode). */
    std::size_t edgeServed() const { return edgeServed_; }
    std::size_t edgeShed() const { return edgeShed_; }
    std::size_t edgeRejected() const { return edgeRejected_; }

  private:
    struct PendingPose
    {
        TimePoint release = 0;
        std::shared_ptr<PoseEvent> event;
    };

    /** A frame submitted to the edge server, awaiting its verdict. */
    struct InflightFrame
    {
        std::shared_ptr<const CameraFrameEvent> cam;
        std::shared_ptr<PoseEvent> event;
        TimePoint deadline = 0;
    };

    void publishLocalPose(TimePoint now,
                          const std::shared_ptr<const CameraFrameEvent> &cam);
    void collectEdgeCompletions(TimePoint now);
    void submitToEdge(TimePoint now,
                      const std::shared_ptr<const CameraFrameEvent> &cam,
                      const ImuState &state, std::size_t frame_bytes);

    SystemTuning tuning_;
    OffloadConfig config_;
    std::shared_ptr<PreloadedDataset> data_;
    Switchboard::Reader<CameraFrameEvent> cameraReader_;
    Switchboard::Reader<ImuEvent> imuReader_;
    Switchboard::Writer<PoseEvent> slowPoseWriter_;
    std::unique_ptr<VioSystem> vio_;
    NetworkModel net_;
    std::deque<PendingPose> pending_;
    std::vector<StampedPose> trajectory_;
    SampleSeries roundTrip_;
    std::size_t framesLost_ = 0;
    bool initialized_ = false;

    CircuitBreaker breaker_;
    ImuIntegrator fallback_; ///< Local failover integrator.
    std::size_t failoverPoses_ = 0;
    const FaultInjector *injector_ = nullptr;

    // Edge mode only.
    std::map<std::uint64_t, InflightFrame> inflight_;
    std::uint64_t nextSeq_ = 0;
    std::size_t edgeServed_ = 0;
    std::size_t edgeShed_ = 0;
    std::size_t edgeRejected_ = 0;
};

/**
 * Run the integrated system with the VIO offloaded over @p config's
 * link (same assembly as runIntegrated otherwise).
 */
IntegratedResult runIntegratedOffloaded(const IntegratedConfig &config,
                                        const OffloadConfig &offload);

} // namespace illixr
