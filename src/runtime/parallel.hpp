/**
 * @file
 * Data-parallel kernel runtime: a deterministic parallelFor over a
 * fixed worker set (KernelPool). Only the kernels whose time is in
 * wide data-parallel loops launch through it: the rasterizer
 * (raster_xform, raster_tiles), scene reconstruction (tsdf_integrate,
 * tsdf_raycast), reprojection (timewarp, timewarp_pos) and the
 * session's camera preload (dataset_render, one launch per session).
 * Every other kernel is a plain serial loop.
 *
 * Determinism is a hard contract (DESIGN.md §6):
 *
 *  - Tiling is a *pure function* of (range, grain): kernelTiles()
 *    never consults the worker count, the clock, or any scheduler
 *    state. Tile i always covers
 *    [begin + i*grain, min(end, begin + (i+1)*grain)).
 *  - Tiles write disjoint outputs, so the assignment of tiles to
 *    workers (which *is* timing-dependent, via stealing) cannot
 *    change results. Width 1 executes the very same tiles in
 *    ascending order.
 *
 * Executor interaction: there is ONE process-wide KernelPool, started
 * lazily on the first parallel launch (so RT/Sim executors get it for
 * free). Kernel launches are single-flight: a launch that arrives
 * while another kernel is parallelizing — e.g. two PoolExecutor tasks
 * both hitting a hot kernel — runs its tiles inline on the calling
 * thread instead of queueing or spawning more threads. Nested
 * launches (a parallel kernel calling another) also degrade to
 * inline-serial. Peak extra threads are therefore width-1 for the
 * whole process, never per task, and a pool of width 1 can never
 * deadlock on nesting.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace illixr {

class TraceSink;
class MetricsRegistry;

/** One tile of a kernel launch: a half-open index range. */
struct KernelTile
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t index = 0;
};

/** Tile @p index of [begin, end) by @p grain >= 1; every launch and
 *  kernelTiles() use this one formula. */
inline KernelTile
kernelTile(std::size_t begin, std::size_t end, std::size_t grain,
           std::size_t index)
{
    const std::size_t b = begin + index * grain;
    return {b, std::min(end, b + grain), index};
}

/**
 * The deterministic tiling: a pure function of (range, grain) only.
 * grain 0 is treated as 1; an empty range yields no tiles.
 */
std::vector<KernelTile> kernelTiles(std::size_t begin, std::size_t end,
                                    std::size_t grain);

/**
 * The process-wide kernel worker pool. Width comes from
 * `ILLIXR_KERNEL_THREADS` (default 1 == serial) and can be overridden
 * via setWidth() (IntegratedConfig::kernel_threads is wired through
 * it). Helpers are started lazily on the first launch that can use
 * them and joined on setWidth()/shutdown.
 *
 * Scheduling: the tile index space is split into one contiguous chunk
 * per participant; each participant drains its own chunk through an
 * atomic cursor, then *steals* remaining tiles from other chunks
 * (kernel.steal counts those). Every tile is claimed exactly once —
 * fetch_add hands out unique indices — so work stealing never
 * double-executes a tile.
 */
class KernelPool
{
  public:
    /** The process-wide pool (created on first use). */
    static KernelPool &instance();

    /** Width from ILLIXR_KERNEL_THREADS (>=1), or 1 when unset. */
    static std::size_t defaultWidth();

    ~KernelPool();

    /** Reconfigure the worker count; waits out an in-flight kernel. */
    void setWidth(std::size_t width);

    std::size_t width() const;

    /** Record `kernel.*` spans into @p sink (null to disable). */
    void setTraceSink(std::shared_ptr<TraceSink> sink);

    /**
     * Registry for the kernel.<name>.{tiles,steal,ns} family
     * (defaults to MetricsRegistry::global()).
     *
     * Process-wide: with several sessions sharing the pool this is the
     * wrong knob — use a MetricsScope on the launching thread instead,
     * which takes precedence and needs no quiescence.
     */
    void setMetrics(MetricsRegistry *metrics);

    /**
     * Thread-local accounting override: while a scope is alive on the
     * launching thread, every kernel launched from that thread records
     * its kernel.<name>.{tiles,steal,ns} metrics into @p metrics and
     * its spans into @p sink — not into the pool-wide defaults. This
     * is how per-session kernel accounting works: each executor
     * installs a scope around plugin invocations, so N concurrent
     * sessions sharing the one process-wide pool never mix metrics.
     * Scopes nest (the previous scope is restored on destruction);
     * a null @p metrics falls back to MetricsRegistry::global(), a
     * null @p sink disables span recording for the scope.
     */
    class MetricsScope
    {
      public:
        MetricsScope(MetricsRegistry *metrics, TraceSink *sink);
        ~MetricsScope();

        MetricsScope(const MetricsScope &) = delete;
        MetricsScope &operator=(const MetricsScope &) = delete;

      private:
        friend class KernelPool;

        MetricsRegistry *metrics_ = nullptr;
        TraceSink *sink_ = nullptr;
        const MetricsScope *prev_ = nullptr;
    };

    /**
     * Drop every cached Counter/Histogram handle interned against
     * @p metrics. Sessions call this when tearing down their registry:
     * the pool's per-registry handle cache would otherwise dangle —
     * and silently alias a *new* registry allocated at the same
     * address (the PR-4 use-after-free, multi-tenant edition).
     */
    void forgetMetrics(const MetricsRegistry *metrics);

    using TileFn = void (*)(void *ctx, std::size_t begin, std::size_t end);

    /**
     * Execute fn over [begin, end) tiled by @p grain. Blocks until
     * every tile ran. Runs inline-serial (same tiles, ascending
     * order) when width()==1, when nested inside another kernel, or
     * when another kernel launch is already in flight.
     */
    void run(const char *name, std::size_t begin, std::size_t end,
             std::size_t grain, TileFn fn, void *ctx);

    /** True while the calling thread is inside a kernel tile. */
    static bool inKernel();

    /**
     * The calling thread's work clock, in seconds: its own CPU time
     * plus, for every parallel launch it made, the helpers' share of
     * that launch. A launch is charged the CPU time of all its tiles
     * divided by the threads that could run them, which is its wall
     * time on an idle host; the caller's own tiles are already in its
     * CPU time. Preemption of the caller or the helpers moves neither
     * term, so costs read off this clock do not depend on host load.
     */
    static double threadWorkSeconds();

    /** Total parallel launches (not counting inline-serial ones). */
    std::uint64_t parallelLaunches() const;

    /** Total tiles executed via stealing. */
    std::uint64_t stealCount() const;

  private:
    KernelPool();

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * parallelFor: apply fn(tile_begin, tile_end) to every tile of
 * [begin, end) tiled by grain. Tiles must write disjoint outputs.
 * (This is the paper-issue `parallel_for` primitive, spelled in the
 * repo's camelCase.)
 */
template <typename F>
inline void
parallelFor(const char *name, std::size_t begin, std::size_t end,
            std::size_t grain, F &&fn)
{
    using Fn = std::remove_reference_t<F>;
    KernelPool::instance().run(
        name, begin, end, grain,
        [](void *ctx, std::size_t b, std::size_t e) {
            (*static_cast<Fn *>(ctx))(b, e);
        },
        const_cast<void *>(static_cast<const void *>(&fn)));
}

} // namespace illixr
