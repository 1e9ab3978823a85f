/**
 * @file
 * Offloaded head tracking: the VIO component served by an edge
 * server over a modeled network link — the paper's §II footnote 2
 * ("a local component can be easily swapped with a remote one without
 * modifying the rest of the system") realized through the plugin
 * interface.
 *
 * The plugin is a client stub: uplink, submit to the EdgeServer with
 * a deadline derived from the frame's capture time, poll, downlink.
 * Its *local* cost is only frame compression and bookkeeping (the
 * filter computation is excluded from the local platform via
 * Plugin::excludeHostSeconds; the server charges its calibrated
 * per-request cost instead), and every pose is released onto the
 * switchboard only once its modeled round trip has matured.
 *
 * attachEdgeClient() installs the client on a SessionConfig; a
 * SessionManager fleet becomes a client swarm by attaching every
 * session to ONE server with distinct client ids. The clients of a
 * shared server run in virtual-time lockstep (EdgeServer::advance),
 * so the fleet must run all at once on simulated executors.
 */

#pragma once

#include "edge/edge_server.hpp"
#include "edge/network.hpp"
#include "foundation/stats.hpp"
#include "slam/imu_integrator.hpp"
#include "slam/msckf.hpp"
#include "xr/plugins.hpp"
#include "xr/session.hpp"

#include <deque>
#include <map>
#include <memory>
#include <string>

namespace illixr {

class FaultInjector;
class EdgeConnection;

/** Offload configuration. */
struct OffloadConfig
{
    /** The link. Its jitter/loss stream is seeded
     *  NetworkModel::linkSeed(session seed, client_id), so every seed
     *  and client draws an independent, admission-order-free stream. */
    NetworkLink link = NetworkLink::wifi6();
    /** Bytes per camera frame after on-device compression. */
    double compression_ratio = 0.25;

    /** The edge server, shared by a client fleet (which then runs in
     *  lockstep). When null the plugin builds a private one, whose
     *  `edge.*` metrics land in the session's registry. */
    std::shared_ptr<EdgeServer> server;
    /** Stable client key on the edge server. */
    std::uint64_t client_id = 1;
    /** Pose-deadline budget from frame capture: the server sheds a
     *  request that cannot be served by then. */
    double deadline_slo_ms = 80.0;
};

/**
 * Drop-in replacement for VioPlugin that runs the filter "remotely".
 *
 * Every camera frame is sent. A frame lost on the uplink or the
 * downlink, shed or rejected is answered on the same tick by a local
 * RK4 IMU integrator, re-based on every accepted remote pose; a
 * served pose is published, on time or late.
 */
class OffloadedVioPlugin : public Plugin
{
  public:
    /** @p connection is this client's place on a shared server; null
     *  builds a private server for the session. */
    OffloadedVioPlugin(const Phonebook &pb, const SystemTuning &tuning,
                       const OffloadConfig &config,
                       std::shared_ptr<EdgeConnection> connection);
    ~OffloadedVioPlugin() override;

    void iterate(TimePoint now) override;
    /** Leaves the server, so no peer waits on a finished client. */
    void stop() override;
    Duration period() const override
    {
        return periodFromHz(tuning_.camera_hz);
    }

    const std::vector<StampedPose> *vioTrajectory() const override
    {
        return &trajectory_;
    }
    void exportExtras(std::map<std::string, double> &extra) const override;

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
    };

    void publishLocalPose(const std::shared_ptr<const CameraFrameEvent> &cam);
    void collectCompletions(TimePoint now);
    void submit(TimePoint now,
                const std::shared_ptr<const CameraFrameEvent> &cam,
                const ImuState &state);

    SystemTuning tuning_;
    OffloadConfig config_;
    std::shared_ptr<EdgeConnection> connection_;
    std::shared_ptr<PreloadedDataset> data_;
    Switchboard::Reader<CameraFrameEvent> cameraReader_;
    Switchboard::Reader<ImuEvent> imuReader_;
    Switchboard::Writer<PoseEvent> slowPoseWriter_;
    std::unique_ptr<VioSystem> vio_;
    NetworkModel net_;
    std::deque<PendingPose> pending_;
    std::vector<StampedPose> trajectory_;
    SampleSeries roundTrip_; ///< Capture to pose release, ms.
    std::size_t framesLost_ = 0;
    bool initialized_ = false;

    ImuIntegrator fallback_; ///< Local failover integrator.
    std::size_t failoverPoses_ = 0;
    const FaultInjector *injector_ = nullptr;

    std::map<std::uint64_t, InflightFrame> inflight_;
    std::uint64_t nextSeq_ = 0;
    std::size_t served_ = 0;
    std::size_t shed_ = 0;
    std::size_t rejected_ = 0;
};

/**
 * Install the offloaded VIO client on @p config: its head tracker
 * becomes a client stub configured by @p offload, with its link
 * stream seeded from (config.seed, offload.client_id).
 *
 * A shared offload.server is joined here, before any session starts,
 * so early sessions wait for late ones instead of running ahead. The
 * attach is refused — false, with the diagnostic in @p error — when
 * the session runs on the pool (wall-clock) executor, which has no
 * virtual time to keep in step, or when the server is full or already
 * has offload.client_id. @p config is then left untouched.
 */
bool attachEdgeClient(SessionConfig &config, const OffloadConfig &offload,
                      std::string *error = nullptr);

/**
 * Install the client a session's EdgeOptions (`--edge`,
 * `ILLIXR_EDGE_*`) ask for: link preset config.edge.link, deadline
 * config.edge.slo_ms, key @p client_id on @p server (a private server
 * when null). Also refused on an unknown link name.
 */
bool attachEdgeClient(SessionConfig &config, std::uint64_t client_id,
                      std::shared_ptr<EdgeServer> server = nullptr,
                      std::string *error = nullptr);

} // namespace illixr
