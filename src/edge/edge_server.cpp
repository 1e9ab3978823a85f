#include "edge/edge_server.hpp"

#include "trace/metrics_registry.hpp"

#include <algorithm>

namespace illixr {

namespace {

/** The one canonical request order: (arrival, client, seq). */
bool
requestBefore(const EdgeRequest &a, const EdgeRequest &b)
{
    if (a.arrival != b.arrival)
        return a.arrival < b.arrival;
    if (a.client != b.client)
        return a.client < b.client;
    return a.seq < b.seq;
}

const Duration kService = fromSeconds(kEdgeVioServiceMs / 1000.0);

} // namespace

EdgeServer::EdgeServer(const EdgeServerConfig &config) : config_(config)
{
    if (config_.max_queue == 0)
        config_.max_queue = 1;
}

void
EdgeServer::setMetrics(MetricsRegistry *metrics)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!metrics) {
        servedCounter_ = shedCounter_ = rejectedCounter_ = nullptr;
        waitMsHist_ = nullptr;
        queueDepthGauge_ = nullptr;
        return;
    }
    servedCounter_ = &metrics->counter("edge.served");
    shedCounter_ = &metrics->counter("edge.shed");
    rejectedCounter_ = &metrics->counter("edge.rejected");
    waitMsHist_ = &metrics->histogram("edge.wait_ms");
    queueDepthGauge_ = &metrics->gauge("edge.queue_depth");
}

bool
EdgeServer::connect(std::uint64_t client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (clients_.size() >= config_.max_clients ||
        clients_.count(client))
        return false;
    clients_.emplace(client, ClientState{});
    return true;
}

void
EdgeServer::disconnect(std::uint64_t client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [client](const EdgeRequest &r) {
                                      return r.client == client;
                                  }),
                   pending_.end());
    clients_.erase(client);
    reached_.notify_all();
}

void
EdgeServer::shedLocked(ClientState &client, const EdgeRequest &request,
                       TimePoint decided)
{
    ++shed_;
    if (shedCounter_)
        shedCounter_->add();
    EdgeCompletion c;
    c.client = request.client;
    c.seq = request.seq;
    c.verdict = EdgeVerdict::Shed;
    c.done = decided;
    client.done.push_back(c);
}

bool
EdgeServer::submit(const EdgeRequest &request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.find(request.client);
    if (it == clients_.end() || it->second.queued >= config_.max_queue) {
        ++rejected_;
        if (rejectedCounter_)
            rejectedCounter_->add();
        return false;
    }

    // Deadline-aware admission: if the pose cannot arrive in time even
    // when served next, shed NOW so the client falls back immediately
    // instead of queueing to death.
    if (std::max(busy_until_, request.arrival) + kService >
        request.deadline) {
        shedLocked(it->second, request, request.arrival);
        return true;
    }

    auto pos = std::upper_bound(pending_.begin(), pending_.end(),
                                request, requestBefore);
    pending_.insert(pos, request);
    ++it->second.queued;
    return true;
}

void
EdgeServer::pump(TimePoint now)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pumpLocked(now);
}

void
EdgeServer::advance(std::uint64_t client, TimePoint now)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto self = clients_.find(client);
    if (self != clients_.end() && self->second.reached < now) {
        self->second.reached = now;
        reached_.notify_all();
    }
    // A client behind `now` may still submit a request that arrives
    // before it, so nothing that ends by `now` is decided until every
    // client has reached it.
    reached_.wait(lock, [&] {
        return std::all_of(clients_.begin(), clients_.end(),
                           [now](const auto &c) {
                               return c.second.reached >= now;
                           });
    });
    pumpLocked(now);
}

void
EdgeServer::pumpLocked(TimePoint now)
{
    // The head's start is exact once its service would end by `now`:
    // any request submitted later arrives after `now`, so it queues
    // behind the head in the canonical order.
    std::size_t head = 0;
    for (; head < pending_.size(); ++head) {
        const EdgeRequest &r = pending_[head];
        const TimePoint start = std::max(busy_until_, r.arrival);
        const TimePoint done = start + kService;
        if (done > now)
            break;
        auto it = clients_.find(r.client);
        --it->second.queued;
        if (done > r.deadline) {
            // Shed at the head: the server stays idle.
            shedLocked(it->second, r, start);
            continue;
        }
        EdgeCompletion c;
        c.client = r.client;
        c.seq = r.seq;
        c.verdict = EdgeVerdict::Served;
        c.done = done;
        it->second.done.push_back(c);
        busy_until_ = done;
        ++served_;
        if (servedCounter_)
            servedCounter_->add();
        if (waitMsHist_)
            waitMsHist_->observe(toMilliseconds(start - r.arrival));
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(head));
    if (queueDepthGauge_)
        queueDepthGauge_->set(static_cast<double>(pending_.size()));
}

std::vector<EdgeCompletion>
EdgeServer::poll(std::uint64_t client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.find(client);
    if (it == clients_.end())
        return {};
    std::vector<EdgeCompletion> out;
    out.swap(it->second.done);
    return out;
}

std::size_t
EdgeServer::connectedClients() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return clients_.size();
}

std::size_t
EdgeServer::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

std::uint64_t
EdgeServer::servedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return served_;
}

std::uint64_t
EdgeServer::shedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shed_;
}

std::uint64_t
EdgeServer::rejectedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
}

} // namespace illixr
