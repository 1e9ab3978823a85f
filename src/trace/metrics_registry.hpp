/**
 * @file
 * MetricsRegistry: the named-metric store (counters, gauges,
 * histograms) for the counts that have no other record: kernel.*,
 * sb.*, pool.*, edge.*, net.*, resilience.* and tail.*.
 * Per-invocation timing lives in TaskStats::records and the trace,
 * not here.
 *
 * Hot-path cost model: handles are resolved *once* by name (interned
 * pointer, like the switchboard's typed topic handles); after that a
 * Counter/Gauge update is a single relaxed atomic and a Histogram
 * observation is two relaxed atomic increments plus a handful of CAS
 * loops on the exact-moment accumulators — no locks, no allocation
 * after the first sample in an octave.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace illixr {

/** Monotonic event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Merged view of a histogram at one point in time. */
struct HistogramSnapshot
{
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/**
 * Log-bucketed (HDR-style) sample distribution.
 *
 * Storage is a grid of power-of-two octaves x kSubBuckets linear
 * sub-buckets per octave; each octave's counter block is allocated
 * lazily on first use (one CAS publish, losers free their copy).
 * Count, sum, sum-of-squares, min and max are tracked *exactly* with
 * atomics, so count/mean/stddev/min/max in a snapshot carry no
 * bucketing error; only the quantiles are approximate.
 *
 * Quantile error contract: a bucket at octave o spans width 2^o /
 * kSubBuckets and quantile() answers with the bucket midpoint, so the
 * relative error of any reported quantile is at most
 * 1 / (2 * kSubBuckets) = 2^-8 ~= 0.39% — documented ceiling 1%
 * (regression-tested against exact sorted samples in trace_test).
 * Results are additionally clamped to the exact [min, max].
 *
 * Thread safety: observe() is lock-free and safe from any thread;
 * snapshot() is safe concurrently with writers (it reads a consistent
 * *approximate* view — counts may trail sums by in-flight samples).
 */
class Histogram
{
  public:
    Histogram() = default;
    ~Histogram();

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double x);

    /** Fold @p other's samples into this histogram (bucket counts and
     *  exact accumulators). Safe concurrently with writers on either
     *  side in the usual approximate-snapshot sense; @p other must
     *  not be this. */
    void merge(const Histogram &other);

    HistogramSnapshot snapshot() const;

    /** Approximate quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

    std::size_t count() const;
    void reset();

    /** Documented worst-case relative quantile error (see above). */
    static constexpr double kMaxRelativeQuantileError = 0.01;

  private:
    static constexpr int kSubBits = 7;
    static constexpr int kSubBuckets = 1 << kSubBits; // 128 / octave
    /** Lowest octave: values in [2^kMinOct, 2^(kMinOct+1)). */
    static constexpr int kMinOct = -40; // ~9.1e-13
    /** Octave count; top octave absorbs everything above. */
    static constexpr int kOctaves = 90; // up to ~5.6e14

    struct Block
    {
        std::array<std::atomic<std::uint64_t>, kSubBuckets> c{};
    };

    /** Map x > 0 to (octave index, sub-bucket); clamped to range. */
    static void bucketOf(double x, int &oct, int &sub);
    /** Midpoint of bucket (oct, sub). */
    static double bucketMid(int oct, int sub);

    Block *blockFor(int oct);

    std::array<std::atomic<Block *>, kOctaves> blocks_{};
    /** Samples <= 0 or below the lowest octave. */
    std::atomic<std::uint64_t> low_{0};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> sum_sq_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/** One row of MetricsRegistry::snapshotRows(). */
struct MetricRow
{
    std::string name;
    std::string type; ///< "counter" | "gauge" | "histogram"
    std::size_t count = 0;
    double value = 0.0; ///< counter/gauge value, histogram mean.
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/**
 * Named metric registry. Lookup by name locks; do it once and keep
 * the returned reference (stable for the registry's lifetime).
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    bool hasCounter(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;

    /** All metrics as export rows, name-sorted within each type. */
    std::vector<MetricRow> snapshotRows() const;

    /** CSV export: name,type,count,value,stddev,min,max,p99,p999. */
    bool writeCsv(const std::string &path) const;

    /** Zero every metric (handles stay valid). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace illixr
