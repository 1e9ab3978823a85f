#include "edge/offload_vio.hpp"

#include "resilience/fault_injector.hpp"
#include "runtime/parallel.hpp"
#include "trace/metrics_registry.hpp"

#include <atomic>

namespace illixr {

/**
 * One client's seat on an edge server, shared by every copy of the
 * session's VIO factory and by the plugin it builds. The plugin
 * closes it when it stops; otherwise the last holder does, so a
 * session that is refused, or fails before its plugin runs, never
 * leaves its peers waiting in EdgeServer::advance().
 */
class EdgeConnection
{
  public:
    EdgeConnection(std::shared_ptr<EdgeServer> server, std::uint64_t client)
        : server_(std::move(server)), client_(client)
    {
    }
    ~EdgeConnection() { close(); }
    EdgeConnection(const EdgeConnection &) = delete;
    EdgeConnection &operator=(const EdgeConnection &) = delete;

    EdgeServer &server() const { return *server_; }

    void
    close()
    {
        if (open_.exchange(false))
            server_->disconnect(client_);
    }

  private:
    std::shared_ptr<EdgeServer> server_;
    std::uint64_t client_;
    std::atomic<bool> open_{true};
};

namespace {

MetricsRegistry *
sessionMetrics(const Phonebook &pb)
{
    return pb.has<MetricsRegistry>() ? pb.lookup<MetricsRegistry>().get()
                                     : nullptr;
}

/** A server of the session's own: one client, so it never waits, and
 *  its edge.* metrics land in the session's registry. */
std::shared_ptr<EdgeConnection>
privateConnection(const Phonebook &pb, std::uint64_t client)
{
    auto server = std::make_shared<EdgeServer>();
    server->setMetrics(sessionMetrics(pb));
    server->connect(client);
    return std::make_shared<EdgeConnection>(std::move(server), client);
}

} // namespace

OffloadedVioPlugin::OffloadedVioPlugin(
    const Phonebook &pb, const SystemTuning &tuning,
    const OffloadConfig &config, std::shared_ptr<EdgeConnection> connection)
    : Plugin("vio"), tuning_(tuning), config_(config),
      connection_(connection ? std::move(connection)
                             : privateConnection(pb, config.client_id)),
      data_(pb.lookup<PreloadedDataset>()),
      cameraReader_(
          pb.lookup<Switchboard>()->reader<CameraFrameEvent>(topics::kCamera)),
      imuReader_(pb.lookup<Switchboard>()->reader<ImuEvent>(topics::kImu)),
      slowPoseWriter_(
          pb.lookup<Switchboard>()->writer<PoseEvent>(topics::kSlowPose)),
      // The dataset is built from the session seed.
      net_(config.link, NetworkModel::linkSeed(data_->dataset.config().seed,
                                               config.client_id))
{
    MsckfParams params;
    params.imu_noise = data_->dataset.config().imu_noise;
    TrackerParams tracker;
    tracker.max_features = 80;
    vio_ = std::make_unique<VioSystem>(params, tracker,
                                       data_->dataset.rig());

    // Self-wire from the phonebook (both are registered by Session
    // before the vio_factory runs; standalone assemblies may lack
    // them, hence the has<> guards). A shared server's metrics are
    // its owner's business.
    net_.setMetrics(sessionMetrics(pb));
    if (pb.has<FaultInjector>())
        injector_ = pb.lookup<FaultInjector>().get();
}

OffloadedVioPlugin::~OffloadedVioPlugin()
{
    connection_->close();
}

void
OffloadedVioPlugin::stop()
{
    connection_->close();
}

void
OffloadedVioPlugin::publishLocalPose(
    const std::shared_ptr<const CameraFrameEvent> &cam)
{
    if (!fallback_.initialized())
        return;
    const ImuState state = fallback_.state();
    auto out = makeEvent<PoseEvent>();
    out->time = cam->time;
    out->state = state;
    out->parents = {cam->trace};
    slowPoseWriter_.put(std::move(out));
    trajectory_.push_back({cam->time, state.pose()});
    ++failoverPoses_;
}

void
OffloadedVioPlugin::collectCompletions(TimePoint now)
{
    EdgeServer &server = connection_->server();
    server.advance(config_.client_id, now);
    for (const EdgeCompletion &c : server.poll(config_.client_id)) {
        auto it = inflight_.find(c.seq);
        if (it == inflight_.end())
            continue;
        InflightFrame frame = std::move(it->second);
        inflight_.erase(it);

        if (c.verdict == EdgeVerdict::Shed) {
            ++shed_;
            publishLocalPose(frame.cam);
            continue;
        }

        const std::optional<Duration> down = net_.transferDelay(256, false);
        if (!down) {
            ++framesLost_; // Response lost on the downlink.
            publishLocalPose(frame.cam);
            continue;
        }

        const TimePoint release = c.done + *down;
        trajectory_.push_back(
            {frame.cam->time, frame.event->state.pose()});
        roundTrip_.add(toMilliseconds(release - frame.cam->time));
        // The pose is released in a *later* invocation than the one
        // that consumed its inputs; its lineage was pinned at submit.
        pending_.push_back({std::max(release, now),
                            std::move(frame.event)});
    }
}

void
OffloadedVioPlugin::submit(
    TimePoint now, const std::shared_ptr<const CameraFrameEvent> &cam,
    const ImuState &state)
{
    const std::size_t frame_bytes = static_cast<std::size_t>(
        static_cast<double>(cam->image.pixelCount()) *
        config_.compression_ratio);
    const std::optional<Duration> up =
        net_.transferDelay(frame_bytes, true);
    if (!up) {
        ++framesLost_; // Frame lost on the uplink.
        publishLocalPose(cam);
        return;
    }

    EdgeRequest req;
    req.client = config_.client_id;
    req.seq = nextSeq_++;
    req.arrival = now + *up;
    req.deadline =
        cam->time + fromSeconds(config_.deadline_slo_ms / 1000.0);

    auto out = makeEvent<PoseEvent>();
    out->time = cam->time;
    out->state = state;
    out->parents = {cam->trace};

    if (!connection_->server().submit(req)) {
        // Rejected outright (queue full): no completion will come.
        ++rejected_;
        publishLocalPose(cam);
        return;
    }
    inflight_.emplace(req.seq, InflightFrame{cam, std::move(out)});
}

void
OffloadedVioPlugin::iterate(TimePoint now)
{
    if (!initialized_) {
        ImuState init;
        init.time = 0;
        const Pose p0 = data_->dataset.groundTruthPose(0);
        init.orientation = p0.orientation;
        init.position = p0.position;
        init.velocity = data_->dataset.trajectory().velocity(0.0);
        vio_->initialize(init);
        fallback_.correct(init);
        initialized_ = true;
    }

    // Apply (or clear) the fault plan's brownout window on the link.
    if (injector_) {
        if (const BrownoutWindow *w = injector_->brownoutAt(now))
            net_.setDisturbance(w->extra_loss, w->extra_latency_ms);
        else if (net_.disturbed())
            net_.clearDisturbance();
    }

    // Advance the server to this client's time and resolve verdicts
    // before releasing poses, so a completion that matured during the
    // last camera period is published this tick.
    collectCompletions(now);

    // Release matured remote results onto the switchboard, re-basing
    // the local fallback integrator on each accepted remote pose so a
    // later failover starts from the freshest corrected state.
    while (!pending_.empty() && pending_.front().release <= now) {
        fallback_.correct(pending_.front().event->state);
        slowPoseWriter_.put(std::move(pending_.front().event));
        pending_.pop_front();
        ++served_; // Served = delivered: counted when published.
    }

    // Stream sensors to the "server" (the IMU messages are small and
    // folded into the frame's uplink accounting). The fallback
    // integrator shadows the stream so it is always ready to serve.
    while (auto imu = imuReader_.pop()) {
        vio_->addImu(imu->sample);
        fallback_.addSample(imu->sample);
    }

    while (auto cam = cameraReader_.pop()) {
        // The filter computation happens on the server: run it here
        // for the real result, but exclude its host cost from the
        // local platform; the server charges kEdgeVioServiceMs.
        const double t0 = KernelPool::threadWorkSeconds();
        const ImuState &state = vio_->processFrame(
            cam->time, std::shared_ptr<const ImageF>(cam, &cam->image));
        excludeHostSeconds(KernelPool::threadWorkSeconds() - t0);
        submit(now, cam, state);
    }
}

void
OffloadedVioPlugin::exportExtras(std::map<std::string, double> &extra) const
{
    extra["pose_round_trip_ms"] = roundTrip_.mean();
    extra["frames_lost"] = static_cast<double>(framesLost_);
    extra["failover_poses"] = static_cast<double>(failoverPoses_);
    extra["edge_served"] = static_cast<double>(served_);
    extra["edge_shed"] = static_cast<double>(shed_);
    extra["edge_rejected"] = static_cast<double>(rejected_);
}

bool
attachEdgeClient(SessionConfig &config, const OffloadConfig &offload,
                 std::string *error)
{
    auto refuse = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    std::shared_ptr<EdgeConnection> connection;
    if (const std::shared_ptr<EdgeServer> &server = offload.server) {
        if (config.executor == ExecutorKind::Pool)
            return refuse("a shared edge server keeps its clients in "
                          "virtual-time lockstep; the pool executor "
                          "runs on the wall clock");
        if (!server->connect(offload.client_id))
            return refuse("edge server is full or already has client " +
                          std::to_string(offload.client_id));
        connection =
            std::make_shared<EdgeConnection>(server, offload.client_id);
        config.lockstep_group = [server] {
            return server->connectedClients();
        };
    }
    config.edge.enabled = true;
    config.vio_factory = [offload, connection](const Phonebook &pb,
                                               const SystemTuning &tuning) {
        return std::make_unique<OffloadedVioPlugin>(pb, tuning, offload,
                                                    connection);
    };
    return true;
}

bool
attachEdgeClient(SessionConfig &config, std::uint64_t client_id,
                 std::shared_ptr<EdgeServer> server, std::string *error)
{
    OffloadConfig offload;
    if (!NetworkLink::byName(config.edge.link, offload.link)) {
        if (error)
            *error = "unknown edge link preset: " + config.edge.link;
        return false;
    }
    offload.server = std::move(server);
    offload.client_id = client_id;
    offload.deadline_slo_ms = config.edge.slo_ms;
    return attachEdgeClient(config, offload, error);
}

} // namespace illixr
