/**
 * @file
 * Data-parallel kernel runtime: a deterministic parallelFor /
 * parallelReduce over a fixed worker set (KernelPool), plus a
 * per-thread bump allocator (ScratchArena) that removes per-frame
 * heap traffic from the hot kernels.
 *
 * Determinism is a hard contract (DESIGN.md §6):
 *
 *  - Tiling is a *pure function* of (range, grain): kernelTiles()
 *    never consults the worker count, the clock, or any scheduler
 *    state. Tile i always covers
 *    [begin + i*grain, min(end, begin + (i+1)*grain)).
 *  - Tiles write disjoint outputs, so the assignment of tiles to
 *    workers (which *is* timing-dependent, via stealing) cannot
 *    change results.
 *  - parallelReduce() stores one partial per tile and combines them
 *    in ascending tile order on the calling thread, so reductions
 *    are bit-identical across worker counts — including width 1,
 *    which executes the very same tiles in the very same order.
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

#include <atomic>
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

/**
 * The deterministic tiling: a pure function of (range, grain) only.
 * grain 0 is treated as 1; an empty range yields no tiles.
 */
std::vector<KernelTile> kernelTiles(std::size_t begin, std::size_t end,
                                    std::size_t grain);

/**
 * Per-thread bump allocator for kernel scratch (pyramid temporaries,
 * KLT patches, MSCKF Jacobian rows). Allocation is a pointer bump;
 * nothing is freed until rewind. Kernels open an ArenaFrame at entry,
 * which rewinds the arena on exit, so capacity reached after warmup
 * is reused forever (asserted by ParallelTest.ArenaNoGrowthAfterWarmup
 * via growthCount()).
 */
class ScratchArena
{
  public:
    /** Arena of the calling thread (created on first use). */
    static ScratchArena &forThisThread();

    /** A rewind point (see ArenaFrame). */
    struct Mark
    {
        std::size_t block = 0;
        std::size_t offset = 0;
    };

    void *allocate(std::size_t bytes,
                   std::size_t align = alignof(std::max_align_t));

    /** Typed array of @p n trivially-destructible Ts (uninitialised). */
    template <typename T>
    T *
    alloc(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is never destructed");
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    Mark mark() const { return {block_, offset_}; }
    void rewind(Mark m);

    /** Free every block (capacity back to zero). */
    void releaseAll();

    /** Total bytes across blocks. */
    std::size_t capacity() const { return capacity_; }

    /** Number of block allocations ever made (growth events). */
    std::uint64_t growthCount() const { return growths_; }

    /** Number of allocate() calls ever made. */
    std::uint64_t allocationCount() const { return allocs_; }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    std::vector<Block> blocks_;
    std::size_t block_ = 0;  ///< Current block index.
    std::size_t offset_ = 0; ///< Bump offset within the current block.
    std::size_t capacity_ = 0;
    std::uint64_t growths_ = 0;
    std::uint64_t allocs_ = 0;
};

/**
 * RAII arena scope: saves the bump point on entry and rewinds on
 * exit, so nested kernels (pyramid -> gaussianBlur) stack cleanly.
 */
class ArenaFrame
{
  public:
    explicit ArenaFrame(ScratchArena &arena = ScratchArena::forThisThread())
        : arena_(arena), mark_(arena.mark())
    {
    }

    ~ArenaFrame() { arena_.rewind(mark_); }

    template <typename T>
    T *
    alloc(std::size_t n)
    {
        return arena_.alloc<T>(n);
    }

    ScratchArena &arena() { return arena_; }

    ArenaFrame(const ArenaFrame &) = delete;
    ArenaFrame &operator=(const ArenaFrame &) = delete;

  private:
    ScratchArena &arena_;
    ScratchArena::Mark mark_;
};

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

/**
 * parallelReduce: tile_fn(tile_begin, tile_end) -> T per tile;
 * partials are combined with combine(acc, partial) in ascending tile
 * order on the calling thread, so the result is bit-identical across
 * worker counts.
 */
template <typename T, typename TileF, typename CombineF>
inline T
parallelReduce(const char *name, std::size_t begin, std::size_t end,
               std::size_t grain, T init, TileF &&tile_fn,
               CombineF &&combine)
{
    const std::vector<KernelTile> tiles = kernelTiles(begin, end, grain);
    if (tiles.empty())
        return init;
    std::vector<T> partials(tiles.size());
    parallelFor(name, 0, tiles.size(), 1,
                [&](std::size_t tb, std::size_t te) {
                    for (std::size_t t = tb; t < te; ++t)
                        partials[t] =
                            tile_fn(tiles[t].begin, tiles[t].end);
                });
    T acc = std::move(init);
    for (std::size_t t = 0; t < tiles.size(); ++t)
        acc = combine(std::move(acc), std::move(partials[t]));
    return acc;
}

} // namespace illixr
