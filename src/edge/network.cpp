#include "edge/network.hpp"

#include "trace/metrics_registry.hpp"

#include <algorithm>

namespace illixr {

NetworkLink
NetworkLink::edgeEthernet()
{
    NetworkLink l;
    l.name = "edge-ethernet";
    l.uplink_mbps = 940.0;
    l.downlink_mbps = 940.0;
    l.base_latency_ms = 0.5;
    l.jitter_ms = 0.1;
    return l;
}

NetworkLink
NetworkLink::wifi6()
{
    NetworkLink l;
    l.name = "wifi6";
    l.uplink_mbps = 250.0;
    l.downlink_mbps = 400.0;
    l.base_latency_ms = 2.5;
    l.jitter_ms = 1.2;
    l.loss_rate = 0.002;
    return l;
}

NetworkLink
NetworkLink::fiveG()
{
    NetworkLink l;
    l.name = "5g-cloudlet";
    l.uplink_mbps = 80.0;
    l.downlink_mbps = 300.0;
    l.base_latency_ms = 8.0;
    l.jitter_ms = 3.0;
    l.loss_rate = 0.005;
    return l;
}

NetworkLink
NetworkLink::lteCloud()
{
    NetworkLink l;
    l.name = "lte-cloud";
    l.uplink_mbps = 20.0;
    l.downlink_mbps = 60.0;
    l.base_latency_ms = 25.0;
    l.jitter_ms = 8.0;
    l.loss_rate = 0.01;
    return l;
}

bool
NetworkLink::byName(const std::string &name, NetworkLink &out)
{
    if (name == "ethernet" || name == "edge-ethernet") {
        out = edgeEthernet();
        return true;
    }
    if (name == "wifi6") {
        out = wifi6();
        return true;
    }
    if (name == "5g" || name == "5g-cloudlet") {
        out = fiveG();
        return true;
    }
    if (name == "lte" || name == "lte-cloud") {
        out = lteCloud();
        return true;
    }
    return false;
}

NetworkModel::NetworkModel(const NetworkLink &link, unsigned seed)
    : link_(link), rng_(seed)
{
}

unsigned
NetworkModel::linkSeed(unsigned session_seed, std::uint64_t client_id)
{
    // splitmix64-style finalizer over the (seed, client) pair: every
    // client gets an independent stream, and the mapping is a pure
    // function — no process-global counter, no admission-order
    // dependence.
    std::uint64_t z = (static_cast<std::uint64_t>(session_seed) << 32) ^
                      (client_id + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    // Avoid seed 0 degenerating with xoshiro's splitmix expansion of
    // an all-zero state being fine but keep the stream distinct.
    const unsigned seed = static_cast<unsigned>(z ^ (z >> 32));
    return seed == 0 ? 0x9e3779b9u : seed;
}

void
NetworkModel::setMetrics(MetricsRegistry *metrics)
{
    if (!metrics) {
        sentCounter_ = nullptr;
        lostCounter_ = nullptr;
        delayedMs_ = nullptr;
        return;
    }
    const std::string prefix = "net." + link_.name + ".";
    sentCounter_ = &metrics->counter(prefix + "sent");
    lostCounter_ = &metrics->counter(prefix + "lost");
    delayedMs_ = &metrics->histogram(prefix + "delayed_ms");
}

void
NetworkModel::setDisturbance(double extra_loss, double extra_latency_ms)
{
    extraLoss_ = std::max(0.0, extra_loss);
    extraLatencyMs_ = std::max(0.0, extra_latency_ms);
}

std::optional<Duration>
NetworkModel::transferDelay(std::size_t bytes, bool uplink)
{
    ++sent_;
    if (sentCounter_)
        sentCounter_->add();
    const double loss =
        std::min(1.0, link_.loss_rate + extraLoss_);
    if (loss > 0.0 && rng_.uniform() < loss) {
        ++lost_;
        if (lostCounter_)
            lostCounter_->add();
        return std::nullopt;
    }
    const double mbps =
        uplink ? link_.uplink_mbps : link_.downlink_mbps;
    const double serialization_ms =
        static_cast<double>(bytes) * 8.0 / (mbps * 1000.0);
    const double jitter_ms =
        std::max(0.0, rng_.gaussian(0.0, link_.jitter_ms));
    const double total_ms = link_.base_latency_ms + serialization_ms +
                            jitter_ms + extraLatencyMs_;
    if (delayedMs_)
        delayedMs_->observe(total_ms);
    return fromSeconds(total_ms / 1000.0);
}

} // namespace illixr
