#include "trace/metrics_registry.hpp"

#include <cmath>
#include <cstdio>

namespace illixr {

namespace {

/** Relaxed CAS-loop add for pre-C++20-style portability. */
void
atomicAdd(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed))
        ;
}

void
atomicMin(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur && !a.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed))
        ;
}

void
atomicMax(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed))
        ;
}

} // namespace

// ---------------------------------------------------------------- Histogram

Histogram::~Histogram()
{
    for (auto &slot : blocks_)
        delete slot.load(std::memory_order_relaxed);
}

void
Histogram::bucketOf(double x, int &oct, int &sub)
{
    // x = f * 2^e with f in [0.5, 1) => x in [2^(e-1), 2^e).
    int e = 0;
    const double f = std::frexp(x, &e);
    oct = (e - 1) - kMinOct;
    if (oct < 0) {
        oct = 0;
        sub = 0;
        return;
    }
    if (oct >= kOctaves) {
        oct = kOctaves - 1;
        sub = kSubBuckets - 1;
        return;
    }
    // Mantissa m = 2f in [1, 2); linear sub-bucket of (m - 1).
    sub = static_cast<int>((f - 0.5) * 2.0 * kSubBuckets);
    if (sub < 0)
        sub = 0;
    if (sub >= kSubBuckets)
        sub = kSubBuckets - 1;
}

double
Histogram::bucketMid(int oct, int sub)
{
    const double lo = std::ldexp(1.0 + static_cast<double>(sub) /
                                           kSubBuckets,
                                 oct + kMinOct);
    const double width = std::ldexp(1.0, oct + kMinOct) / kSubBuckets;
    return lo + width * 0.5;
}

Histogram::Block *
Histogram::blockFor(int oct)
{
    std::atomic<Block *> &slot = blocks_[static_cast<std::size_t>(oct)];
    Block *blk = slot.load(std::memory_order_acquire);
    if (blk)
        return blk;
    auto *fresh = new Block();
    if (slot.compare_exchange_strong(blk, fresh,
                                     std::memory_order_acq_rel))
        return fresh;
    delete fresh; // lost the publish race; blk is the winner
    return blk;
}

void
Histogram::observe(double x)
{
    const std::uint64_t seen =
        count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, x);
    atomicAdd(sum_sq_, x * x);
    if (seen == 0) {
        // First sample seeds min/max; racing observers fix it up via
        // the CAS loops below, so the worst case is a harmless extra
        // iteration, never a lost extreme.
        min_.store(x, std::memory_order_relaxed);
        max_.store(x, std::memory_order_relaxed);
    }
    atomicMin(min_, x);
    atomicMax(max_, x);

    if (!(x > 0.0) || !std::isfinite(x)) {
        low_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    int oct = 0;
    int sub = 0;
    bucketOf(x, oct, sub);
    if (oct == 0 && sub == 0 && x < std::ldexp(1.0, kMinOct)) {
        low_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    blockFor(oct)->c[static_cast<std::size_t>(sub)].fetch_add(
        1, std::memory_order_relaxed);
}

void
Histogram::merge(const Histogram &other)
{
    const std::uint64_t n = other.count_.load(std::memory_order_relaxed);
    if (n == 0)
        return;
    const double omn = other.min_.load(std::memory_order_relaxed);
    const double omx = other.max_.load(std::memory_order_relaxed);
    const std::uint64_t seen =
        count_.fetch_add(n, std::memory_order_relaxed);
    atomicAdd(sum_, other.sum_.load(std::memory_order_relaxed));
    atomicAdd(sum_sq_, other.sum_sq_.load(std::memory_order_relaxed));
    if (seen == 0) {
        min_.store(omn, std::memory_order_relaxed);
        max_.store(omx, std::memory_order_relaxed);
    }
    atomicMin(min_, omn);
    atomicMax(max_, omx);
    low_.fetch_add(other.low_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    for (int oct = 0; oct < kOctaves; ++oct) {
        const Block *src =
            other.blocks_[static_cast<std::size_t>(oct)].load(
                std::memory_order_acquire);
        if (!src)
            continue;
        Block *dst = blockFor(oct);
        for (int sub = 0; sub < kSubBuckets; ++sub) {
            const std::uint64_t c =
                src->c[static_cast<std::size_t>(sub)].load(
                    std::memory_order_relaxed);
            if (c)
                dst->c[static_cast<std::size_t>(sub)].fetch_add(
                    c, std::memory_order_relaxed);
        }
    }
}

double
Histogram::quantile(double q) const
{
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    if (n == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double mn = min_.load(std::memory_order_relaxed);
    const double mx = max_.load(std::memory_order_relaxed);
    // Rank of the answer among n sorted samples (0-based, like
    // SampleSeries::percentile's interpolation position).
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
    std::uint64_t cum = low_.load(std::memory_order_relaxed);
    if (rank < cum)
        return mn; // inside the <= 0 / underflow bucket
    for (int oct = 0; oct < kOctaves; ++oct) {
        const Block *blk =
            blocks_[static_cast<std::size_t>(oct)].load(
                std::memory_order_acquire);
        if (!blk)
            continue;
        for (int sub = 0; sub < kSubBuckets; ++sub) {
            const std::uint64_t c =
                blk->c[static_cast<std::size_t>(sub)].load(
                    std::memory_order_relaxed);
            if (c == 0)
                continue;
            cum += c;
            if (rank < cum) {
                double v = bucketMid(oct, sub);
                if (v < mn)
                    v = mn;
                if (v > mx)
                    v = mx;
                return v;
            }
        }
    }
    return mx; // counts trailed bucket writes (concurrent snapshot)
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot out;
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    out.count = static_cast<std::size_t>(n);
    if (n == 0)
        return out;
    const double sum = sum_.load(std::memory_order_relaxed);
    const double sum_sq = sum_sq_.load(std::memory_order_relaxed);
    const double dn = static_cast<double>(n);
    out.mean = sum / dn;
    const double var = sum_sq / dn - out.mean * out.mean;
    out.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
    out.p50 = quantile(0.50);
    out.p99 = quantile(0.99);
    out.p999 = quantile(0.999);
    return out;
}

std::size_t
Histogram::count() const
{
    return static_cast<std::size_t>(
        count_.load(std::memory_order_relaxed));
}

void
Histogram::reset()
{
    for (auto &slot : blocks_) {
        Block *blk = slot.load(std::memory_order_acquire);
        if (!blk)
            continue;
        for (auto &c : blk->c)
            c.store(0, std::memory_order_relaxed);
    }
    low_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    sum_sq_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

// ----------------------------------------------------------- MetricsRegistry

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

bool
MetricsRegistry::hasCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.count(name) > 0;
}

bool
MetricsRegistry::hasHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return histograms_.count(name) > 0;
}

std::vector<MetricRow>
MetricsRegistry::snapshotRows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricRow> rows;
    rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto &[name, c] : counters_) {
        MetricRow row;
        row.name = name;
        row.type = "counter";
        row.count = static_cast<std::size_t>(c->value());
        row.value = static_cast<double>(c->value());
        rows.push_back(std::move(row));
    }
    for (const auto &[name, g] : gauges_) {
        MetricRow row;
        row.name = name;
        row.type = "gauge";
        row.count = 1;
        row.value = g->value();
        rows.push_back(std::move(row));
    }
    for (const auto &[name, h] : histograms_) {
        const HistogramSnapshot snap = h->snapshot();
        MetricRow row;
        row.name = name;
        row.type = "histogram";
        row.count = snap.count;
        row.value = snap.mean;
        row.stddev = snap.stddev;
        row.min = snap.min;
        row.max = snap.max;
        row.p99 = snap.p99;
        row.p999 = snap.p999;
        rows.push_back(std::move(row));
    }
    return rows;
}

bool
MetricsRegistry::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "name,type,count,value,stddev,min,max,p99,p999\n");
    for (const MetricRow &row : snapshotRows()) {
        std::fprintf(f, "%s,%s,%zu,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n",
                     row.name.c_str(), row.type.c_str(), row.count,
                     row.value, row.stddev, row.min, row.max, row.p99,
                     row.p999);
    }
    std::fclose(f);
    return true;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

} // namespace illixr
