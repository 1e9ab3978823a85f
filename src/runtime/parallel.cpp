#include "runtime/parallel.hpp"

#include "foundation/profile.hpp"
#include "foundation/simd.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace illixr {

// ---------------------------------------------------------------------
// Tiling
// ---------------------------------------------------------------------

std::vector<KernelTile>
kernelTiles(std::size_t begin, std::size_t end, std::size_t grain)
{
    std::vector<KernelTile> tiles;
    if (end <= begin)
        return tiles;
    if (grain == 0)
        grain = 1;
    const std::size_t n = end - begin;
    const std::size_t count = (n + grain - 1) / grain;
    tiles.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        tiles.push_back(kernelTile(begin, end, grain, i));
    return tiles;
}

// ---------------------------------------------------------------------
// KernelPool
// ---------------------------------------------------------------------

namespace {

constexpr std::size_t kMaxKernelWidth = 64;

thread_local bool tl_in_kernel = false;

/** Helper shares of this thread's parallel launches, in seconds. */
thread_local double tl_helper_seconds = 0.0;

/** Innermost live MetricsScope of the calling thread (see header). */
thread_local const KernelPool::MetricsScope *tl_metrics_scope = nullptr;

/** Cached metric handles for one kernel name. */
struct KernelMetrics
{
    Counter *tiles = nullptr;
    Counter *steals = nullptr;
    Histogram *ns = nullptr;
};

struct alignas(64) ChunkCursor
{
    std::atomic<std::size_t> next{0};
    std::size_t limit = 0;
};

struct Launch
{
    const char *name = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t tiles = 0;
    KernelPool::TileFn fn = nullptr;
    void *ctx = nullptr;
    std::size_t parts = 1;
    ChunkCursor chunks[kMaxKernelWidth];
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::int64_t> cpu_ns{0}; ///< All participants' CPU.
};

} // namespace

struct KernelPool::Impl
{
    // --- configuration (config_mutex) ---
    mutable std::mutex config_mutex;
    std::size_t width = 1;
    std::shared_ptr<TraceSink> sink;
    MetricsRegistry *metrics = nullptr; // null -> global()

    // --- single-flight admission ---
    std::mutex launch_mutex;

    // --- helper handoff (m) ---
    std::mutex m;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    std::vector<std::thread> helpers;
    Launch *current = nullptr;
    std::uint64_t generation = 0;
    std::size_t active = 0; ///< Helpers inside the current launch.
    bool stop = false;

    // --- stats ---
    std::atomic<std::uint64_t> parallel_launches{0};
    std::atomic<std::uint64_t> steal_total{0};

    // --- metric handle cache (cache_mutex) ---
    // Keyed per registry: concurrent sessions intern the same kernel
    // names into *different* registries, so a name-only cache would
    // hand one session handles into another session's registry.
    std::mutex cache_mutex;
    std::unordered_map<const MetricsRegistry *,
                       std::unordered_map<std::string, KernelMetrics>>
        metric_cache;

    void
    runTile(Launch &l, std::size_t tile)
    {
        const KernelTile t = kernelTile(l.begin, l.end, l.grain, tile);
        l.fn(l.ctx, t.begin, t.end);
        l.done.fetch_add(1, std::memory_order_release);
    }

    /**
     * Drain own chunk, then steal from the others. Returns the CPU
     * seconds this thread spent, also added to the launch's total.
     */
    double
    participate(Launch &l, std::size_t w)
    {
        const double cpu0 = threadCpuSeconds();
        const bool was_in_kernel = tl_in_kernel;
        tl_in_kernel = true;
        ChunkCursor &own = l.chunks[w];
        std::size_t i;
        while ((i = own.next.fetch_add(1, std::memory_order_relaxed)) <
               own.limit)
            runTile(l, i);
        // Steal: scan the other chunks until every tile is claimed.
        for (std::size_t scan = 1; scan < l.parts; ++scan) {
            const std::size_t v = (w + scan) % l.parts;
            ChunkCursor &victim = l.chunks[v];
            while (victim.next.load(std::memory_order_relaxed) <
                   victim.limit) {
                i = victim.next.fetch_add(1, std::memory_order_relaxed);
                if (i >= victim.limit)
                    break;
                runTile(l, i);
                l.steals.fetch_add(1, std::memory_order_relaxed);
            }
        }
        tl_in_kernel = was_in_kernel;
        const double cpu = threadCpuSeconds() - cpu0;
        l.cpu_ns.fetch_add(static_cast<std::int64_t>(cpu * 1e9),
                           std::memory_order_relaxed);
        return cpu;
    }

    void
    helperMain()
    {
        std::uint64_t seen = 0;
        for (;;) {
            Launch *l = nullptr;
            std::size_t slot = 0;
            {
                std::unique_lock<std::mutex> lk(m);
                work_cv.wait(lk, [&] {
                    return stop || (current && generation != seen);
                });
                if (stop)
                    return;
                seen = generation;
                l = current;
                slot = ++active; // 1-based helper slot
                if (slot >= l->parts) {
                    // More helpers than participant slots (width was
                    // lowered mid-flight): sit this one out.
                    --active;
                    continue;
                }
            }
            participate(*l, slot);
            {
                std::lock_guard<std::mutex> lk(m);
                --active;
            }
            done_cv.notify_all();
        }
    }

    void
    stopHelpers()
    {
        {
            std::lock_guard<std::mutex> lk(m);
            stop = true;
        }
        work_cv.notify_all();
        for (std::thread &t : helpers)
            t.join();
        helpers.clear();
        {
            std::lock_guard<std::mutex> lk(m);
            stop = false;
        }
    }

    KernelMetrics
    metricsFor(const char *name, MetricsRegistry *reg)
    {
        std::lock_guard<std::mutex> lk(cache_mutex);
        const bool fresh_registry = !metric_cache.count(reg);
        auto &per_registry = metric_cache[reg];
        if (fresh_registry)
            reg->gauge("kernel.simd_backend")
                .set(static_cast<double>(simd::backendId()));
        auto it = per_registry.find(name);
        if (it != per_registry.end())
            return it->second;
        KernelMetrics km;
        const std::string base = std::string("kernel.") + name;
        km.tiles = &reg->counter(base + ".tiles");
        km.steals = &reg->counter(base + ".steal");
        km.ns = &reg->histogram(base + ".ns");
        per_registry.emplace(name, km);
        return km;
    }
};

KernelPool::KernelPool() : impl_(std::make_unique<Impl>())
{
    impl_->width = defaultWidth();
}

KernelPool::~KernelPool()
{
    impl_->stopHelpers();
}

KernelPool &
KernelPool::instance()
{
    static KernelPool pool;
    return pool;
}

std::size_t
KernelPool::defaultWidth()
{
    if (const char *v = std::getenv("ILLIXR_KERNEL_THREADS")) {
        char *end = nullptr;
        const unsigned long n = std::strtoul(v, &end, 10);
        if (end && *end == '\0' && n >= 1)
            return std::min<std::size_t>(n, kMaxKernelWidth);
    }
    return 1;
}

void
KernelPool::setWidth(std::size_t width)
{
    width = std::clamp<std::size_t>(width, 1, kMaxKernelWidth);
    // Wait out any in-flight kernel so helpers are quiescent.
    std::lock_guard<std::mutex> launch_lk(impl_->launch_mutex);
    impl_->stopHelpers();
    std::lock_guard<std::mutex> lk(impl_->config_mutex);
    impl_->width = width;
}

std::size_t
KernelPool::width() const
{
    std::lock_guard<std::mutex> lk(impl_->config_mutex);
    return impl_->width;
}

void
KernelPool::setTraceSink(std::shared_ptr<TraceSink> sink)
{
    std::lock_guard<std::mutex> lk(impl_->config_mutex);
    impl_->sink = std::move(sink);
}

void
KernelPool::setMetrics(MetricsRegistry *metrics)
{
    std::lock_guard<std::mutex> lk(impl_->config_mutex);
    MetricsRegistry *previous =
        impl_->metrics ? impl_->metrics : &MetricsRegistry::global();
    impl_->metrics = metrics;
    // Retargeting usually means the previous per-run registry is about
    // to die; evict its handles so a future registry reusing the same
    // address can never hit a stale Counter*/Histogram*. The global
    // registry is immortal — its handles stay cached.
    if (previous != &MetricsRegistry::global()) {
        std::lock_guard<std::mutex> ck(impl_->cache_mutex);
        impl_->metric_cache.erase(previous);
    }
}

KernelPool::MetricsScope::MetricsScope(MetricsRegistry *metrics,
                                       TraceSink *sink)
    : metrics_(metrics), sink_(sink), prev_(tl_metrics_scope)
{
    tl_metrics_scope = this;
}

KernelPool::MetricsScope::~MetricsScope()
{
    tl_metrics_scope = prev_;
}

void
KernelPool::forgetMetrics(const MetricsRegistry *metrics)
{
    // Same lock order as setMetrics (config before cache).
    std::lock_guard<std::mutex> lk(impl_->config_mutex);
    if (impl_->metrics == metrics)
        impl_->metrics = nullptr;
    std::lock_guard<std::mutex> ck(impl_->cache_mutex);
    impl_->metric_cache.erase(metrics);
}

bool
KernelPool::inKernel()
{
    return tl_in_kernel;
}

double
KernelPool::threadWorkSeconds()
{
    return threadCpuSeconds() + tl_helper_seconds;
}

std::uint64_t
KernelPool::parallelLaunches() const
{
    return impl_->parallel_launches.load(std::memory_order_relaxed);
}

std::uint64_t
KernelPool::stealCount() const
{
    return impl_->steal_total.load(std::memory_order_relaxed);
}

void
KernelPool::run(const char *name, std::size_t begin, std::size_t end,
                std::size_t grain, TileFn fn, void *ctx)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    const std::size_t tiles = (end - begin + grain - 1) / grain;

    const double t0 = hostTimeSeconds();

    // Accounting targets: the launching thread's MetricsScope wins
    // (per-session routing under concurrent sessions); otherwise the
    // pool-wide defaults. The shared_ptr hold keeps a pool-wide sink
    // alive across the launch; a scope sink is a raw pointer whose
    // lifetime the scope's installer (the executor run) guarantees.
    std::size_t width;
    MetricsRegistry *reg = nullptr;
    TraceSink *sink = nullptr;
    std::shared_ptr<TraceSink> sink_hold;
    {
        std::lock_guard<std::mutex> lk(impl_->config_mutex);
        width = impl_->width;
        if (tl_metrics_scope) {
            reg = tl_metrics_scope->metrics_;
            sink = tl_metrics_scope->sink_;
        } else {
            reg = impl_->metrics;
            sink_hold = impl_->sink;
            sink = sink_hold.get();
        }
    }
    if (!reg)
        reg = &MetricsRegistry::global();

    std::uint64_t steals = 0;
    // Serial path: width 1, a single tile, a nested launch, or a
    // kernel already in flight. Identical tiles in ascending order,
    // so outputs match the parallel path bit-for-bit.
    bool parallel = width > 1 && tiles > 1 && !tl_in_kernel;
    std::unique_lock<std::mutex> launch_lk(impl_->launch_mutex,
                                           std::defer_lock);
    if (parallel)
        parallel = launch_lk.try_lock();

    if (!parallel) {
        const bool was_in_kernel = tl_in_kernel;
        tl_in_kernel = true;
        for (std::size_t i = 0; i < tiles; ++i) {
            const KernelTile t = kernelTile(begin, end, grain, i);
            fn(ctx, t.begin, t.end);
        }
        tl_in_kernel = was_in_kernel;
    } else {
        Launch l;
        l.name = name;
        l.begin = begin;
        l.end = end;
        l.grain = grain;
        l.tiles = tiles;
        l.fn = fn;
        l.ctx = ctx;
        l.parts = std::min(width, kMaxKernelWidth);
        std::size_t threads = 1;
        for (std::size_t w = 0; w < l.parts; ++w) {
            l.chunks[w].next.store(tiles * w / l.parts,
                                   std::memory_order_relaxed);
            l.chunks[w].limit = tiles * (w + 1) / l.parts;
        }
        {
            std::lock_guard<std::mutex> lk(impl_->m);
            // Lazily (re)start helpers at the configured width, but
            // never keep more workers than the host has cores: on an
            // oversubscribed host the extra helpers only add
            // wake/quiesce handoff per launch (the fig3 width-4
            // inversion). The tiling (l.parts) is unchanged and idle
            // chunks are drained by stealing, so outputs are
            // bit-identical either way.
            const std::size_t host_cores = std::max<std::size_t>(
                1, std::thread::hardware_concurrency());
            while (impl_->helpers.size() + 1 < std::min(width, host_cores))
                impl_->helpers.emplace_back(
                    [this] { impl_->helperMain(); });
            threads = std::min(l.parts, impl_->helpers.size() + 1);
            impl_->current = &l;
            ++impl_->generation;
        }
        impl_->work_cv.notify_all();
        const double own_cpu = impl_->participate(l, 0);
        {
            std::unique_lock<std::mutex> lk(impl_->m);
            impl_->done_cv.wait(lk, [&] {
                return impl_->active == 0 &&
                       l.done.load(std::memory_order_acquire) ==
                           l.tiles;
            });
            impl_->current = nullptr;
        }
        // Charge the launch as if its tiles were spread evenly over
        // the threads; own_cpu is already on this thread's clock.
        const double all_cpu =
            static_cast<double>(l.cpu_ns.load(std::memory_order_relaxed)) *
            1e-9;
        tl_helper_seconds +=
            all_cpu / static_cast<double>(threads) - own_cpu;
        steals = l.steals.load(std::memory_order_relaxed);
        impl_->parallel_launches.fetch_add(1,
                                           std::memory_order_relaxed);
        impl_->steal_total.fetch_add(steals,
                                     std::memory_order_relaxed);
        launch_lk.unlock();
    }

    const double t1 = hostTimeSeconds();

    KernelMetrics km = impl_->metricsFor(name, reg);
    km.tiles->add(tiles);
    if (steals)
        km.steals->add(steals);
    km.ns->observe((t1 - t0) * 1e9);

    if (sink) {
        Span span;
        span.task = std::string("kernel.") + name;
        span.unit = ExecUnit::Cpu;
        span.arrival = static_cast<TimePoint>(t0 * 1e9);
        span.start = span.arrival;
        span.completion = static_cast<TimePoint>(t1 * 1e9);
        span.host_seconds = t1 - t0;
        span.id = sink->nextSpanId();
        sink->recordSpan(std::move(span));
    }
}

} // namespace illixr
