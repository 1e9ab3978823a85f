/**
 * @file
 * Tests of the data-parallel kernel runtime (runtime/parallel.hpp):
 * tiling purity, the determinism contract (bit-identical results for
 * every pool kernel at any worker count), the pin that every other
 * kernel stays serial, executor interaction (nested launches never
 * deadlock), and the timewarp and KLT loops against reference copies
 * of their earlier per-pixel forms.
 */

#include <gtest/gtest.h>

#include "audio/ambisonics.hpp"
#include "audio/binaural.hpp"
#include "audio/clips.hpp"
#include "eyetrack/eye_image.hpp"
#include "eyetrack/layers.hpp"
#include "eyetrack/ritnet.hpp"
#include "foundation/profile.hpp"
#include "foundation/rng.hpp"
#include "foundation/simd.hpp"
#include "recon/tsdf.hpp"
#include "render/app.hpp"
#include "runtime/parallel.hpp"
#include "runtime/sim_scheduler.hpp"
#include "sensors/dataset.hpp"
#include "signal/fft.hpp"
#include "slam/klt.hpp"
#include "slam/msckf.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace.hpp"
#include "visual/hologram.hpp"
#include "visual/timewarp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace illixr {
namespace {

/** RAII kernel-pool width override (restores serial on exit). */
class WidthGuard
{
  public:
    explicit WidthGuard(std::size_t width)
    {
        KernelPool::instance().setWidth(width);
    }
    ~WidthGuard() { KernelPool::instance().setWidth(1); }
};

bool
sameImage(const ImageF &a, const ImageF &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.width()) * a.height() *
                           sizeof(float)) == 0;
}

bool
sameRgb(const RgbImage &a, const RgbImage &b)
{
    return sameImage(a.r, b.r) && sameImage(a.g, b.g) &&
           sameImage(a.b, b.b);
}

// ------------------------------------------------------------- Tiling

TEST(KernelTiles, IsAPureFunctionOfRangeAndGrain)
{
    const auto a = kernelTiles(3, 100, 8);
    const auto b = kernelTiles(3, 100, 8);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
        EXPECT_EQ(a[i].index, b[i].index);
    }
}

TEST(KernelTiles, CoversTheRangeDisjointlyInOrder)
{
    const auto tiles = kernelTiles(3, 100, 8);
    ASSERT_FALSE(tiles.empty());
    EXPECT_EQ(tiles.front().begin, 3u);
    EXPECT_EQ(tiles.back().end, 100u);
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        EXPECT_EQ(tiles[i].index, i);
        EXPECT_LT(tiles[i].begin, tiles[i].end);
        EXPECT_LE(tiles[i].end - tiles[i].begin, 8u);
        if (i > 0) {
            EXPECT_EQ(tiles[i].begin, tiles[i - 1].end);
        }
    }
    // ceil((100 - 3) / 8) tiles.
    EXPECT_EQ(tiles.size(), (100u - 3u + 7u) / 8u);
}

TEST(KernelTiles, EmptyAndDegenerateRanges)
{
    EXPECT_TRUE(kernelTiles(5, 5, 4).empty());
    EXPECT_TRUE(kernelTiles(7, 3, 4).empty());
    const auto one = kernelTiles(4, 5, 16);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].begin, 4u);
    EXPECT_EQ(one[0].end, 5u);
}

TEST(KernelTiles, LaunchedTilesMatchKernelTiles)
{
    // [3, 100) by 8 ends in a ragged one-index tile; grain 0 means 1.
    struct Range
    {
        std::size_t begin, end, grain;
    };
    using Bounds = std::vector<std::pair<std::size_t, std::size_t>>;
    for (const Range r : {Range{3, 100, 8}, Range{5, 23, 0}}) {
        Bounds expected;
        for (const KernelTile &t : kernelTiles(r.begin, r.end, r.grain))
            expected.emplace_back(t.begin, t.end);
        for (std::size_t width : {1u, 4u}) {
            WidthGuard guard(width);
            std::mutex m;
            Bounds seen;
            parallelFor("test_tiles", r.begin, r.end, r.grain,
                        [&](std::size_t b, std::size_t e) {
                            std::lock_guard<std::mutex> lk(m);
                            seen.emplace_back(b, e);
                        });
            std::sort(seen.begin(), seen.end());
            EXPECT_EQ(seen, expected) << "width " << width;
        }
    }
}

// ----------------------------------------------------------- The pool

TEST(KernelPool, ParallelForVisitsEveryIndexOnce)
{
    WidthGuard width(4);
    std::vector<std::atomic<int>> hits(1000);
    parallelFor("test_visit", 0, hits.size(), 7,
                [&](std::size_t b, std::size_t e) {
                    for (std::size_t i = b; i < e; ++i)
                        hits[i].fetch_add(1);
                });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(KernelPool, RecordsLaunchAndMetricStats)
{
    KernelPool &pool = KernelPool::instance();
    MetricsRegistry metrics;
    {
        WidthGuard width(2);
        KernelPool::MetricsScope scope(&metrics, nullptr);
        const std::uint64_t launches_before = pool.parallelLaunches();
        parallelFor("test_stats", 0, 512, 4,
                    [&](std::size_t, std::size_t) {});
        EXPECT_GT(pool.parallelLaunches(), launches_before);
    }
    pool.forgetMetrics(&metrics);
    EXPECT_GE(metrics.counter("kernel.test_stats.tiles").value(), 128u);
}

TEST(KernelPool, MetricsScopeRoutesToTheScopedRegistry)
{
    // Multi-tenant accounting: a thread holding a MetricsScope routes
    // its kernel launches into the scoped registry — this is how N
    // concurrent sessions share one KernelPool without mixing their
    // kernel.* metrics. The innermost scope wins, the outer one is
    // restored when it ends, and outside every scope nothing is
    // recorded anywhere.
    KernelPool &pool = KernelPool::instance();
    MetricsRegistry outer;
    MetricsRegistry inner;
    auto launch = [] {
        parallelFor("test_scope", 0, 64, 4,
                    [&](std::size_t, std::size_t) {});
    };
    {
        WidthGuard width(2);
        KernelPool::MetricsScope outer_scope(&outer, nullptr);
        {
            KernelPool::MetricsScope inner_scope(&inner, nullptr);
            launch();
        }
        EXPECT_EQ(inner.counter("kernel.test_scope.tiles").value(), 16u);
        EXPECT_FALSE(outer.hasCounter("kernel.test_scope.tiles"));
        launch();
    }
    EXPECT_EQ(outer.counter("kernel.test_scope.tiles").value(), 16u);

    // No scope: the launch runs and leaves every registry untouched.
    std::atomic<int> tiles{0};
    parallelFor("test_scope", 0, 64, 4,
                [&](std::size_t, std::size_t) { tiles.fetch_add(1); });
    EXPECT_EQ(tiles.load(), 16);
    EXPECT_EQ(inner.counter("kernel.test_scope.tiles").value(), 16u);
    EXPECT_EQ(outer.counter("kernel.test_scope.tiles").value(), 16u);
    pool.forgetMetrics(&outer);
    pool.forgetMetrics(&inner);
}

TEST(KernelPool, ForgetMetricsDropsASessionsCachedHandles)
{
    // The stale-handle hazard: the pool caches Counter/Histogram
    // handles per registry. Each session must call forgetMetrics() at
    // teardown, or a new registry landing at the same address inherits
    // dangling handles into the freed one.
    KernelPool &pool = KernelPool::instance();
    auto first = std::make_unique<MetricsRegistry>();
    {
        WidthGuard width(2);
        KernelPool::MetricsScope scope(first.get(), nullptr);
        parallelFor("test_forget", 0, 64, 4,
                    [&](std::size_t, std::size_t) {});
    }
    EXPECT_GE(first->counter("kernel.test_forget.tiles").value(), 16u);
    pool.forgetMetrics(first.get());
    first.reset();

    // A new registry (possibly at the recycled address) must get fresh
    // handles, not the dead session's cached ones.
    auto second = std::make_unique<MetricsRegistry>();
    {
        WidthGuard width(2);
        KernelPool::MetricsScope scope(second.get(), nullptr);
        parallelFor("test_forget", 0, 64, 4,
                    [&](std::size_t, std::size_t) {});
    }
    EXPECT_GE(second->counter("kernel.test_forget.tiles").value(), 16u);
    pool.forgetMetrics(second.get());
}

TEST(KernelPool, SerialWidthRunsInline)
{
    WidthGuard width(1);
    const std::thread::id caller = std::this_thread::get_id();
    parallelFor("test_inline", 0, 100, 8,
                [&](std::size_t, std::size_t) {
                    EXPECT_EQ(std::this_thread::get_id(), caller);
                    EXPECT_TRUE(KernelPool::inKernel());
                });
    EXPECT_FALSE(KernelPool::inKernel());
}

TEST(KernelPool, WorkClockChargesTheLaunchsEvenShare)
{
    // 16 tiles that spin on their own thread's CPU clock (so
    // preemption cannot stretch them): 2 ms on a helper, 0.1 ms on
    // the caller. The work clock must charge the caller the launch's
    // total CPU spread over the threads that could run it, not its
    // own tiles, however the tiles happened to be split.
    WidthGuard width(4);
    const std::size_t threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<std::int64_t> tile_ns{0};
    // Start the helpers first: creating them is not part of the launch.
    parallelFor("test_work_clock", 0, 16, 1, [](std::size_t, std::size_t) {});
    const double w0 = KernelPool::threadWorkSeconds();
    parallelFor("test_work_clock", 0, 16, 1,
                [&](std::size_t, std::size_t) {
                    const double burn =
                        std::this_thread::get_id() == caller ? 0.1e-3
                                                             : 2e-3;
                    const double c0 = threadCpuSeconds();
                    double c = c0;
                    while (c - c0 < burn)
                        c = threadCpuSeconds();
                    tile_ns.fetch_add(
                        static_cast<std::int64_t>((c - c0) * 1e9));
                });
    const double work_ms = (KernelPool::threadWorkSeconds() - w0) * 1e3;
    const double share_ms = static_cast<double>(tile_ns.load()) * 1e-6 /
                            static_cast<double>(threads);
    EXPECT_GE(work_ms, share_ms - 1e-3); // 1 us for ns truncation.
    EXPECT_LT(work_ms, share_ms + 0.5);
}

TEST(KernelPool, NestedParallelForRunsInlineSerial)
{
    WidthGuard width(4);
    std::vector<int> out(64, 0);
    parallelFor("test_outer", 0, 8, 1,
                [&](std::size_t ob, std::size_t oe) {
                    for (std::size_t o = ob; o < oe; ++o) {
                        // Nested launch: must degrade to inline serial
                        // execution, not deadlock or oversubscribe.
                        parallelFor("test_inner", 0, 8, 1,
                                    [&](std::size_t ib, std::size_t ie) {
                                        for (std::size_t i = ib; i < ie;
                                             ++i)
                                            out[o * 8 + i] = 1;
                                    });
                    }
                });
    for (int v : out)
        EXPECT_EQ(v, 1);
}

TEST(KernelPool, ConcurrentLaunchesFromManyThreadsComplete)
{
    WidthGuard width(2);
    // Several threads race to launch kernels; single-flight admission
    // must serialize or inline them without losing work.
    std::vector<std::thread> threads;
    std::vector<std::vector<int>> results(4, std::vector<int>(512, 0));
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 50; ++rep)
                parallelFor("test_race", 0, 512, 16,
                            [&](std::size_t b, std::size_t e) {
                                for (std::size_t i = b; i < e; ++i)
                                    results[t][i] = t + 1;
                            });
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < 4; ++t)
        for (int v : results[t])
            EXPECT_EQ(v, t + 1);
}

TEST(KernelPool, NoDeadlockFromPoolExecutorTaskAtWidthOne)
{
    WidthGuard width(1);
    // A plugin iterating under a seeded SimScheduler launches kernels;
    // at kernel width 1 everything must run inline on the calling
    // thread.
    class KernelPlugin : public Plugin
    {
      public:
        KernelPlugin() : Plugin("kernel_plugin") {}
        void
        iterate(TimePoint) override
        {
            double sum = 0.0;
            parallelFor("test_task", 0, 256, 8,
                        [&](std::size_t b, std::size_t e) {
                            for (std::size_t i = b; i < e; ++i)
                                sum += static_cast<double>(i);
                        });
            total += sum;
        }
        Duration period() const override { return periodFromHz(1000); }
        double total = 0.0;
    };
    KernelPlugin plugin;
    SimScheduler sched(PlatformModel::get(PlatformId::Desktop), 1);
    sched.addPlugin(&plugin);
    sched.run(50 * kMillisecond);
    EXPECT_GT(plugin.total, 0.0);
}

// ----------------------------------------------------- Serial kernels

TEST(KernelPool, VioEyeTrackingAndAudioMakeNoKernelLaunches)
{
    // The VIO camera front end, the MSCKF linear algebra, RITnet and
    // the binaural FIR are plain serial loops: none of them may record
    // a kernel span, even at width 4.
    const WidthGuard guard(4);

    DatasetConfig cfg;
    cfg.duration_s = 3.0;
    cfg.image_width = 192;
    cfg.image_height = 144;
    cfg.seed = 3;
    const SyntheticDataset ds(cfg);
    VioSystem vio(MsckfParams{}, TrackerParams{}, ds.rig());
    ImuState init;
    init.orientation = ds.trajectory().pose(0.0).orientation;
    init.position = ds.trajectory().pose(0.0).position;
    init.velocity = ds.trajectory().velocity(0.0);
    vio.initialize(init);
    const auto &imu = ds.imuSamples();
    std::size_t imu_idx = 0;
    std::size_t f = 0;
    auto next_frame = [&] {
        const CameraFrame frame = ds.cameraFrame(f++);
        while (imu_idx < imu.size() && imu[imu_idx].time <= frame.time)
            vio.addImu(imu[imu_idx++]);
        vio.processFrame(frame.time, frame.image);
    };
    // Warm up until the filter has run an update, so the measured
    // frames below carry a full pyramid, FAST, KLT and MSCKF update.
    while (vio.filter().updateCount() == 0 && f < ds.cameraFrameCount())
        next_frame();
    ASSERT_GT(vio.filter().updateCount(), 0u);

    EyeImageGenerator eyes;
    RitNet net(eyes.params().width, eyes.params().height);
    const ImageF eye = eyes.generate(0);
    const auto mono = synthesizeClip(ClipKind::Noise, 512, 48000.0);
    Soundfield field(512);
    encodeSource(mono, Vec3(1, 0, 0).normalized(), field);
    Binauralizer binaural(512);

    TraceSink sink;
    {
        KernelPool::MetricsScope scope(nullptr, &sink);
        const std::size_t updates = vio.filter().updateCount();
        while (vio.filter().updateCount() == updates &&
               f < ds.cameraFrameCount())
            next_frame();
        EXPECT_GT(vio.filter().updateCount(), updates);
        net.estimate(eye);
        binaural.process(field);
    }
    std::size_t kernel_spans = 0;
    for (const Span &span : sink.spans())
        if (span.task.rfind("kernel.", 0) == 0)
            ++kernel_spans;
    EXPECT_EQ(kernel_spans, 0u);
}

// ------------------------------------- Kernel-by-kernel bit identity

/** Run @p make at width 1 and width 4 and compare with @p same. */
template <typename F, typename Eq>
void
expectWidthInvariant(F &&make, Eq &&same)
{
    decltype(make()) serial = [&] {
        WidthGuard width(1);
        return make();
    }();
    {
        WidthGuard width(4);
        const auto parallel = make();
        EXPECT_TRUE(same(serial, parallel));
    }
}

TEST(KernelEquivalence, Fft2d)
{
    std::vector<Complex> grid(64 * 64);
    Rng rng(7);
    for (Complex &c : grid)
        c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    auto run = [&] {
        std::vector<Complex> copy = grid;
        fft2d(copy, 64, 64, false);
        fft2d(copy, 64, 64, true);
        return copy;
    };
    expectWidthInvariant(run, [](const std::vector<Complex> &a,
                                 const std::vector<Complex> &b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(Complex)) == 0;
    });
}

TEST(KernelEquivalence, TimewarpReprojection)
{
    RgbImage frame(96, 96, Vec3(0.3, 0.5, 0.7));
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 96; ++x)
            frame.r.at(x, y) = static_cast<float>((x ^ y) & 31) / 31.0f;
    const Pose render = Pose::identity();
    const Pose fresh(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.02),
                     Vec3(0.01, 0, 0));
    expectWidthInvariant(
        [&] {
            Timewarp warp;
            return warp.reproject(frame, render, fresh);
        },
        sameRgb);
    const ImageF depth(96, 96, 0.5f);
    expectWidthInvariant(
        [&] {
            Timewarp warp;
            return warp.reprojectPositional(frame, depth, render, fresh,
                                            0.1, 50.0);
        },
        sameRgb);
}

TEST(KernelEquivalence, HologramGeneration)
{
    HologramParams params;
    params.resolution = 32;
    params.iterations = 2;
    params.depth_planes = 2;
    RgbImage target(32, 32, Vec3(0.5, 0.4, 0.3));
    expectWidthInvariant(
        [&] {
            HologramGenerator gen(params);
            return gen.compute(target);
        },
        [](const HologramResult &a, const HologramResult &b) {
            return a.rms_error == b.rms_error &&
                   sameImage(a.phase, b.phase);
        });
}

TEST(KernelEquivalence, TsdfIntegrateAndRaycast)
{
    TsdfParams params;
    params.resolution = 32;
    params.side_meters = 4.0;
    params.origin = Vec3(-2, -2, -0.5);
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(64, 48, 1.2);
    DepthImage depth(64, 48, 0.0f);
    for (int y = 0; y < 48; ++y)
        for (int x = 0; x < 64; ++x)
            depth.at(x, y) = 1.5f + 0.01f * static_cast<float>(x % 7);

    struct Result
    {
        std::size_t observed;
        std::vector<Vec3> vertices;
        std::vector<Vec3> normals;
    };
    auto run = [&] {
        TsdfVolume vol(params);
        vol.integrate(depth, intr, Pose::identity());
        Result r;
        r.observed = vol.observedVoxelCount();
        vol.raycast(intr, Pose::identity(), r.vertices, r.normals, 2);
        return r;
    };
    expectWidthInvariant(run, [](const Result &a, const Result &b) {
        if (a.observed != b.observed ||
            a.vertices.size() != b.vertices.size())
            return false;
        for (std::size_t i = 0; i < a.vertices.size(); ++i) {
            if (a.vertices[i].x != b.vertices[i].x ||
                a.vertices[i].y != b.vertices[i].y ||
                a.vertices[i].z != b.vertices[i].z ||
                a.normals[i].x != b.normals[i].x ||
                a.normals[i].y != b.normals[i].y ||
                a.normals[i].z != b.normals[i].z)
                return false;
        }
        return true;
    });
}

TEST(KernelEquivalence, RasterizerTiles)
{
    AppConfig cfg;
    cfg.eye_width = 72;
    cfg.eye_height = 72;
    expectWidthInvariant(
        [&] {
            XrApplication app(AppId::ArDemo, cfg);
            const Pose head(Quat::identity(), Vec3(0, 1.2, 0));
            return app.renderFrame(head, 0.125);
        },
        [](const StereoFrame &a, const StereoFrame &b) {
            return sameRgb(a.left, b.left) && sameRgb(a.right, b.right);
        });
}

// ------------------------- Sampler-bound loops vs their reference copies
//
// The timewarp and KLT loops were rewritten around an inline sampler,
// per-row tables and 4-pixel vectors. The copies below are the earlier
// loops and the earlier out-of-line ImageF::sampleBilinear; the
// rewritten kernels must match them byte for byte.

/** Calls of referenceSample whose clamp moved the point. */
std::size_t g_clamped_samples = 0;

/** The earlier out-of-line bilinear sampler. */
float
referenceSample(const ImageF &img, double x, double y)
{
    g_clamped_samples += x < 0.0 || y < 0.0 || x > img.width() - 1 ||
                         y > img.height() - 1;
    x = std::clamp(x, 0.0, static_cast<double>(img.width() - 1));
    y = std::clamp(y, 0.0, static_cast<double>(img.height() - 1));
    const int x0 = static_cast<int>(x);
    const int y0 = static_cast<int>(y);
    const int x1 = std::min(x0 + 1, img.width() - 1);
    const int y1 = std::min(y0 + 1, img.height() - 1);
    const double fx = x - x0;
    const double fy = y - y0;
    const double top = img.at(x0, y0) * (1.0 - fx) + img.at(x1, y0) * fx;
    const double bot = img.at(x0, y1) * (1.0 - fx) + img.at(x1, y1) * fx;
    return static_cast<float>(top * (1.0 - fy) + bot * fy);
}

/** What the random warps reached, so the test can show its coverage. */
struct WarpCoverage
{
    std::size_t invalid_cell_pixels = 0; ///< Cell with a behind-camera node.
    std::size_t clamp_band_samples = 0;  ///< uv in [-0.5, 0) or (w-1, w-0.5].
    std::size_t drawn_pixels = 0;
};

/** The earlier Timewarp::buildMesh and per-pixel reprojection loop. */
RgbImage
referenceReproject(const TimewarpParams &p, const RgbImage &rendered,
                   const Pose &render_pose, const Pose &fresh_pose,
                   WarpCoverage &cov)
{
    constexpr double kInvalidUv = -1e9;
    const int w = rendered.width();
    const int h = rendered.height();
    RgbImage out(w, h, Vec3(0, 0, 0));
    const Mat3 delta = render_pose.orientation.toMatrix().transpose() *
                       fresh_pose.orientation.toMatrix();

    const int cols = p.mesh_cols + 1;
    const int rows = p.mesh_rows + 1;
    const double tan_half = std::tan(p.fov_y_rad / 2.0);
    const double aspect =
        static_cast<double>(w) / static_cast<double>(h);
    std::vector<Vec2> mesh[3];
    for (int c = 0; c < 3; ++c)
        mesh[c].assign(static_cast<std::size_t>(cols) * rows,
                       Vec2(kInvalidUv, kInvalidUv));
    const int channels = p.chromatic_correction ? 3 : 1;
    for (int ch = 0; ch < channels; ++ch) {
        const double scale =
            p.chromatic_correction ? p.chroma_scale[ch] : 1.0;
        for (int r = 0; r < rows; ++r) {
            for (int col = 0; col < cols; ++col) {
                const double nx =
                    2.0 * static_cast<double>(col) / p.mesh_cols - 1.0;
                const double ny =
                    1.0 - 2.0 * static_cast<double>(r) / p.mesh_rows;
                Vec2 d(nx, ny);
                if (p.lens_distortion)
                    d = distortRadial(d, p.k1, p.k2, scale);
                else if (p.chromatic_correction)
                    d = d * scale;
                const Vec3 ray_fresh(d.x * tan_half * aspect,
                                     d.y * tan_half, -1.0);
                const Vec3 ray_render = delta * ray_fresh;
                if (ray_render.z > -1e-6)
                    continue;
                const double sx =
                    ray_render.x / (-ray_render.z) / (tan_half * aspect);
                const double sy = ray_render.y / (-ray_render.z) / tan_half;
                const double u = (sx + 1.0) / 2.0 * w - 0.5;
                const double v = (1.0 - sy) / 2.0 * h - 0.5;
                mesh[ch][static_cast<std::size_t>(r) * cols + col] =
                    Vec2(u, v);
            }
        }
    }
    if (!p.chromatic_correction) {
        mesh[1] = mesh[0];
        mesh[2] = mesh[0];
    }

    const double cell_w = static_cast<double>(w) / p.mesh_cols;
    const double cell_h = static_cast<double>(h) / p.mesh_rows;
    for (int y = 0; y < h; ++y) {
        const double gy = (y + 0.5) / cell_h;
        const int r0 = std::min(static_cast<int>(gy), p.mesh_rows - 1);
        const double fy = gy - r0;
        for (int x = 0; x < w; ++x) {
            const double gx = (x + 0.5) / cell_w;
            const int c0 = std::min(static_cast<int>(gx), p.mesh_cols - 1);
            const double fx = gx - c0;
            double rgb[3];
            bool ok = true;
            for (int ch = 0; ch < 3; ++ch) {
                const std::size_t i00 =
                    static_cast<std::size_t>(r0) * cols + c0;
                const Vec2 &uv00 = mesh[ch][i00];
                const Vec2 &uv01 = mesh[ch][i00 + 1];
                const Vec2 &uv10 = mesh[ch][i00 + cols];
                const Vec2 &uv11 = mesh[ch][i00 + cols + 1];
                if (uv00.x <= kInvalidUv / 2 || uv01.x <= kInvalidUv / 2 ||
                    uv10.x <= kInvalidUv / 2 || uv11.x <= kInvalidUv / 2) {
                    ++cov.invalid_cell_pixels;
                    ok = false;
                    break;
                }
                const Vec2 top = uv00 * (1.0 - fx) + uv01 * fx;
                const Vec2 bot = uv10 * (1.0 - fx) + uv11 * fx;
                const Vec2 uv = top * (1.0 - fy) + bot * fy;
                if (uv.x < -0.5 || uv.y < -0.5 || uv.x > w - 0.5 ||
                    uv.y > h - 0.5) {
                    ok = false;
                    break;
                }
                if (uv.x < 0.0 || uv.y < 0.0 || uv.x > w - 1 ||
                    uv.y > h - 1)
                    ++cov.clamp_band_samples;
                const ImageF &plane =
                    ch == 0 ? rendered.r
                            : (ch == 1 ? rendered.g : rendered.b);
                rgb[ch] = referenceSample(plane, uv.x, uv.y);
            }
            if (ok) {
                ++cov.drawn_pixels;
                out.setPixel(x, y, Vec3(rgb[0], rgb[1], rgb[2]));
            }
        }
    }
    return out;
}

/** A random unit axis. */
Vec3
randomAxis(Rng &rng)
{
    for (;;) {
        const Vec3 a(rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-1, 1));
        if (a.norm() > 0.1)
            return a.normalized();
    }
}

TEST(KernelEquivalence, TimewarpMatchesReferenceLoop)
{
    Rng rng(2024);
    WarpCoverage cov;
    std::size_t warps = 0;
    // Frame sizes whose width is and is not a multiple of the 4-pixel
    // vector, on square and non-square meshes.
    const int sizes[3][4] = {{80, 80, 16, 16}, {37, 29, 7, 5},
                             {64, 48, 16, 12}};
    for (const auto &size : sizes) {
        RgbImage frame(size[0], size[1]);
        for (ImageF *plane : {&frame.r, &frame.g, &frame.b}) {
            for (int y = 0; y < size[1]; ++y)
                for (int x = 0; x < size[0]; ++x)
                    plane->at(x, y) =
                        rng.uniform() < 0.05
                            ? -0.0f
                            : static_cast<float>(rng.uniform());
        }
        for (int variant = 0; variant < 4; ++variant) {
            TimewarpParams params;
            params.mesh_cols = size[2];
            params.mesh_rows = size[3];
            params.chromatic_correction = (variant & 1) != 0;
            params.lens_distortion = (variant & 2) != 0;
            for (int pose = 0; pose < 12; ++pose) {
                const Pose render(
                    Quat::fromAxisAngle(randomAxis(rng),
                                        rng.uniform(-3.0, 3.0)),
                    Vec3(rng.uniform(-1, 1), 1.6, rng.uniform(-1, 1)));
                // Half small corrections (uv near the frame edge), half
                // large turns that put mesh nodes behind the camera.
                const double angle = pose % 2 == 0
                                         ? rng.uniform(0.0, 0.05)
                                         : rng.uniform(0.3, 2.5);
                const Pose fresh(
                    render.orientation *
                        Quat::fromAxisAngle(randomAxis(rng), angle),
                    render.position);
                const RgbImage want =
                    referenceReproject(params, frame, render, fresh, cov);
                for (std::size_t width : {1, 4}) {
                    WidthGuard guard(width);
                    Timewarp warp(params);
                    EXPECT_TRUE(sameRgb(warp.reproject(frame, render, fresh),
                                        want))
                        << size[0] << "x" << size[1] << " variant "
                        << variant << " pose " << pose << " width "
                        << width;
                }
                ++warps;
            }
        }
    }
    EXPECT_EQ(warps, 144u);
    EXPECT_GT(cov.invalid_cell_pixels, 1000u);
    EXPECT_GT(cov.clamp_band_samples, 100u);
    EXPECT_GT(cov.drawn_pixels, 10000u);
}

/** The earlier KLT trackLevel (heap window, clamped sampler). */
bool
referenceTrackLevel(const ImageF &prev, const ImageF &next,
                    const Vec2 &point, Vec2 &d, double &residual_out,
                    const KltParams &p)
{
    const int r = p.window_radius;
    const int n = (2 * r + 1) * (2 * r + 1);
    std::vector<double> window(3 * static_cast<std::size_t>(n));
    double *gx = window.data();
    double *gy = gx + n;
    double *tmpl = gy + n;
    double gxx = 0.0, gxy = 0.0, gyy = 0.0;
    int idx = 0;
    for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx, ++idx) {
            const double px = point.x + dx;
            const double py = point.y + dy;
            tmpl[idx] = referenceSample(prev, px, py);
            gx[idx] = 0.5 * (referenceSample(prev, px + 1.0, py) -
                             referenceSample(prev, px - 1.0, py));
            gy[idx] = 0.5 * (referenceSample(prev, px, py + 1.0) -
                             referenceSample(prev, px, py - 1.0));
            gxx += gx[idx] * gx[idx];
            gxy += gx[idx] * gy[idx];
            gyy += gy[idx] * gy[idx];
        }
    }
    const double tr = gxx + gyy;
    const double det = gxx * gyy - gxy * gxy;
    const double disc = std::sqrt(std::max(0.0, tr * tr / 4.0 - det));
    const double min_eig = (tr / 2.0 - disc) / n;
    if (min_eig < p.min_eigenvalue)
        return false;
    const double inv_det = 1.0 / (gxx * gyy - gxy * gxy);
    for (int iter = 0; iter < p.max_iterations; ++iter) {
        double bx = 0.0, by = 0.0, res = 0.0;
        idx = 0;
        for (int dy = -r; dy <= r; ++dy) {
            for (int dx = -r; dx <= r; ++dx, ++idx) {
                const double nx = point.x + d.x + dx;
                const double ny = point.y + d.y + dy;
                const double diff =
                    referenceSample(next, nx, ny) - tmpl[idx];
                bx += diff * gx[idx];
                by += diff * gy[idx];
                res += std::fabs(diff);
            }
        }
        residual_out = res / n;
        const double ux = -(gyy * bx - gxy * by) * inv_det;
        const double uy = -(-gxy * bx + gxx * by) * inv_det;
        d.x += ux;
        d.y += uy;
        if (std::sqrt(ux * ux + uy * uy) < p.epsilon)
            break;
        if (point.x + d.x < r + 1 || point.y + d.y < r + 1 ||
            point.x + d.x >= next.width() - r - 1 ||
            point.y + d.y >= next.height() - r - 1)
            return false;
    }
    return true;
}

/** The earlier trackPointPyramidal, on referenceTrackLevel. */
KltResult
referenceTrackPoint(const ImagePyramid &prev, const ImagePyramid &next,
                    const Vec2 &point, const KltParams &params)
{
    KltResult result;
    const int levels = std::min(prev.levels(), next.levels());
    Vec2 d(0.0, 0.0);
    double residual = 1e9;
    for (int level = levels - 1; level >= 0; --level) {
        const double scale = std::pow(2.0, level);
        const Vec2 pt(point.x / scale, point.y / scale);
        if (!referenceTrackLevel(prev.level(level), next.level(level), pt,
                                 d, residual, params))
            return result;
        if (level > 0) {
            d.x *= 2.0;
            d.y *= 2.0;
        }
    }
    result.position = point + d;
    result.residual = residual;
    const int r = params.window_radius;
    const ImageF &base = next.level(0);
    const bool in_bounds =
        result.position.x >= r + 1 && result.position.y >= r + 1 &&
        result.position.x < base.width() - r - 1 &&
        result.position.y < base.height() - r - 1;
    result.ok = in_bounds && residual <= params.max_residual;
    return result;
}

bool
sameKlt(const KltResult &a, const KltResult &b)
{
    return a.ok == b.ok &&
           std::memcmp(&a.position, &b.position, sizeof(Vec2)) == 0 &&
           std::memcmp(&a.residual, &b.residual, sizeof(double)) == 0;
}

TEST(KernelEquivalence, KltMatchesReferenceTracker)
{
    constexpr int kW = 128;
    constexpr int kH = 96;
    Rng rng(99);
    std::size_t tracked = 0, compared = 0;
    const std::size_t clamped_before = g_clamped_samples;
    for (int pair = 0; pair < 10; ++pair) {
        // Smooth random texture, shifted by a sub-pixel motion in the
        // next frame, plus independent pixel noise.
        double fx[4], fy[4], phase[4];
        for (int k = 0; k < 4; ++k) {
            fx[k] = rng.uniform(0.05, 0.6);
            fy[k] = rng.uniform(0.05, 0.6);
            phase[k] = rng.uniform(0.0, 6.28);
        }
        const double sx = rng.uniform(-3.0, 3.0);
        const double sy = rng.uniform(-3.0, 3.0);
        auto texture = [&](double x, double y) {
            double v = 0.5;
            for (int k = 0; k < 4; ++k)
                v += 0.1 * std::sin(fx[k] * x + fy[k] * y + phase[k]);
            return v;
        };
        ImageF a(kW, kH), b(kW, kH);
        for (int y = 0; y < kH; ++y) {
            for (int x = 0; x < kW; ++x) {
                a.at(x, y) = static_cast<float>(texture(x, y) +
                                                rng.uniform(-0.02, 0.02));
                b.at(x, y) = static_cast<float>(texture(x - sx, y - sy) +
                                                rng.uniform(-0.02, 0.02));
            }
        }
        const ImagePyramid prev(a, 3);
        const ImagePyramid next(b, 3);
        // Points over the whole frame and a few pixels past it, so
        // many windows touch or cross the border at some level.
        std::vector<Vec2> points;
        for (int i = 0; i < 80; ++i)
            points.emplace_back(rng.uniform(-2.0, kW + 2.0),
                                rng.uniform(-2.0, kH + 2.0));
        for (int radius : {4, 2, 9}) {
            KltParams params;
            params.window_radius = radius;
            std::vector<KltResult> want;
            for (const Vec2 &pt : points) {
                want.push_back(referenceTrackPoint(prev, next, pt, params));
                tracked += want.back().ok;
            }
            for (std::size_t width : {1, 4}) {
                WidthGuard guard(width);
                const std::vector<KltResult> got =
                    trackPoints(prev, next, points, params);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i, ++compared)
                    EXPECT_TRUE(sameKlt(got[i], want[i]))
                        << "pair " << pair << " radius " << radius
                        << " point " << i << " width " << width;
            }
        }
    }
    EXPECT_EQ(compared, 10u * 3 * 80 * 2);
    EXPECT_GT(tracked, 100u);
    // Windows that cross the border at some pyramid level.
    EXPECT_GT(g_clamped_samples - clamped_before, 1000u);
}

// ------------------------ Raycast march vs the one-sample reference
//
// TsdfVolume::raycast marches 4 samples per vector and clips each ray
// to the grid. The reference below is the direct march, where every
// sample from t = 0.3 to the far range reads both weightAt and sdfAt.

/**
 * Reference raycast. @p hit_sample (optional) receives, per pixel, the
 * index from t = 0.3 of the sample that found the zero crossing, or -1.
 */
void
referenceRaycast(const TsdfVolume &vol, const CameraIntrinsics &intr,
                 const Pose &camera_to_world, std::vector<Vec3> &vertices,
                 std::vector<Vec3> &normals, int step_divisor,
                 std::vector<int> *hit_sample = nullptr)
{
    const int w = intr.width;
    const int h = intr.height;
    vertices.assign(static_cast<std::size_t>(w) * h, Vec3(0, 0, 0));
    normals.assign(static_cast<std::size_t>(w) * h, Vec3(0, 0, 0));
    if (hit_sample)
        hit_sample->assign(static_cast<std::size_t>(w) * h, -1);
    const Vec3 origin = camera_to_world.position;
    const double step =
        vol.params().truncation / std::max(1, step_divisor);
    const double max_range = vol.params().side_meters * 1.8;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const Vec3 dir = camera_to_world.orientation.rotate(
                intr.unproject(Vec2(x + 0.5, y + 0.5)));
            double t = 0.3;
            float prev_sdf = 1.0f;
            bool prev_valid = false;
            for (int sample = 0; t < max_range; ++sample) {
                const Vec3 p = origin + dir * t;
                const float wgt = vol.weightAt(p);
                const float s = vol.sdfAt(p);
                if (wgt > 0.0f) {
                    if (prev_valid && prev_sdf > 0.0f && s <= 0.0f) {
                        const double t_hit =
                            t - step * s / (s - prev_sdf);
                        const Vec3 hit = origin + dir * t_hit;
                        const std::size_t i =
                            static_cast<std::size_t>(y) * w + x;
                        vertices[i] = hit;
                        const Vec3 n = vol.gradientAt(hit);
                        const double nn = n.norm();
                        if (nn > 1e-9)
                            normals[i] = n / nn;
                        if (hit_sample)
                            (*hit_sample)[i] = sample;
                        break;
                    }
                    prev_sdf = s;
                    prev_valid = true;
                } else {
                    prev_valid = false;
                }
                t += step;
            }
        }
    }
}

bool
sameVec3s(const std::vector<Vec3> &a, const std::vector<Vec3> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

TEST(KernelEquivalence, RaycastMatchesReferenceMarch)
{
    // Odd image sides put the principal point on a pixel center, so
    // with an identity orientation the middle column and row cast
    // rays with an exactly zero x or y component.
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(63, 47, 1.2);
    const std::size_t center = 23 * 63 + 31;
    const double kHalfPi = 1.5707963267948966;
    TsdfParams params;
    params.resolution = 48;
    params.side_meters = 2.4; // 0.05 m voxels, finer than every step.
    params.origin = Vec3(-1.2, -1.2, 0.0);
    TsdfVolume vol(params);
    const double max_range = params.side_meters * 1.8;

    // Three fronto-parallel depth frames. A's wall (z = 2.3) and C's
    // wall (x = 1.1) lie 0.1 m inside a face of the grid, so rays leave
    // (A) or enter (C) the grid right next to a zero crossing. A's
    // central patch puts a surface at z = 0.03, just inside the z = 0
    // face.
    const Pose pose_a(Quat::identity(), Vec3(0.0, 0.0, -0.5));
    const Pose pose_b(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.35),
                      Vec3(-0.3, 0.2, 0.3));
    const Pose pose_c(Quat::fromAxisAngle(Vec3(0, 1, 0), -kHalfPi),
                      Vec3(2.0, 0.05, 1.2));
    DepthImage depth_a(63, 47, 2.8f);
    for (int y = 19; y <= 27; ++y)
        for (int x = 27; x <= 35; ++x)
            depth_a.at(x, y) = 0.53f;
    vol.integrate(depth_a, intr, pose_a);
    DepthImage depth_b(63, 47, 1.6f);
    for (int y = 0; y < 47; ++y)
        for (int x = 0; x < 31; ++x)
            depth_b.at(x, y) = 1.2f;
    vol.integrate(depth_b, intr, pose_b);
    vol.integrate(DepthImage(63, 47, 0.9f), intr, pose_c);

    // A lone wall at z = wall_z, fused from 2 m in front of it.
    auto wallVolume = [&](double wall_z) {
        TsdfVolume wall(params);
        wall.integrate(DepthImage(63, 47, 2.0f), intr,
                       Pose(Quat::identity(), Vec3(0.0, 0.0, wall_z - 2.0)));
        return wall;
    };

    struct Case
    {
        std::string name;
        const TsdfVolume *volume;
        Pose camera_to_world;
        bool expect_hits;
    };
    auto expectMatches = [&](const Case &c, int divisor,
                             std::vector<int> &hit_sample) {
        SCOPED_TRACE(c.name + ", step_divisor " + std::to_string(divisor));
        std::vector<Vec3> ref_vertices, ref_normals;
        referenceRaycast(*c.volume, intr, c.camera_to_world, ref_vertices,
                         ref_normals, divisor, &hit_sample);
        for (std::size_t width : {1, 4}) {
            WidthGuard guard(width);
            std::vector<Vec3> vertices, normals;
            c.volume->raycast(intr, c.camera_to_world, vertices, normals,
                              divisor);
            EXPECT_TRUE(sameVec3s(vertices, ref_vertices))
                << "width " << width;
            EXPECT_TRUE(sameVec3s(normals, ref_normals))
                << "width " << width;
        }
        const auto hits = std::count_if(
            ref_vertices.begin(), ref_vertices.end(),
            [](const Vec3 &v) { return v.norm() > 0.0; });
        if (c.expect_hits)
            EXPECT_GT(hits, 0);
        else
            EXPECT_EQ(hits, 0);
    };

    for (int divisor = 1; divisor <= 3; ++divisor) {
        // A march sample t = 0.3 + step + ... (summed as the raycast
        // sums it) from a camera at z = -t lands exactly on the z = 0
        // face: grid coordinate g.z = -0.5, whose nearest voxel is -1
        // under std::lround but 0 under rounding half up. The central
        // ray (0, 0, 1) then meets the patch surface one step later.
        const double step = params.truncation / divisor;
        double t_face = 0.3;
        while (t_face < 0.5)
            t_face += step;
        const Case cases[] = {
            {"inside", &vol,
             Pose(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.2),
                  Vec3(0.2, -0.1, 0.6)),
             true},
            {"outside looking in", &vol, pose_c, true},
            {"outside looking away", &vol,
             Pose(Quat::fromAxisAngle(Vec3(0, 1, 0), kHalfPi),
                  Vec3(2.0, 0.05, 1.2)),
             false},
            {"axis-aligned rays", &vol,
             Pose(Quat::identity(), Vec3(0.1, 0.05, 0.2)), true},
            {"negative half-boundary", &vol,
             Pose(Quat::identity(), Vec3(0.0, 0.0, -t_face)), true},
        };
        std::vector<int> hit_sample;
        for (const Case &c : cases)
            expectMatches(c, divisor, hit_sample);

        // A camera inside the grid marches from t = 0.3, so the central
        // ray's crossing is on lane (sample index mod 4) of its 4-sample
        // block. Moving the camera back one step at a time puts the
        // wall's crossing on each lane in turn; on lane 0 the sample
        // before it is lane 3 of the previous block.
        const TsdfVolume wall = wallVolume(2.1);
        std::set<int> hit_lanes;
        for (int j = 0; j < 4; ++j) {
            expectMatches({"lane shift " + std::to_string(j), &wall,
                           Pose(Quat::identity(),
                                Vec3(0.0, 0.0, 1.2 - j * step)),
                           true},
                          divisor, hit_sample);
            ASSERT_GE(hit_sample[center], 0);
            hit_lanes.insert(hit_sample[center] % 4);
        }
        EXPECT_EQ(hit_lanes.size(), 4u);

        // A camera behind the grid whose central ray meets a wall half
        // a step before the first sample past max_range: only that
        // unscanned sample lies behind the wall. The ray enters the
        // clip box (the grid widened by a voxel) at t_in, and moving
        // the wall one step at a time moves the first unscanned sample
        // across the lanes of the ray's last block.
        double t_past = 0.3;
        while (t_past < max_range)
            t_past += step;
        std::set<int> unscanned_lanes;
        for (int j = 0; j < 4; ++j) {
            const double wall_z = 2.1 - j * step;
            const TsdfVolume far_wall = wallVolume(wall_z);
            const double camera_z = wall_z - (t_past - step / 2);
            expectMatches({"beyond range " + std::to_string(j), &far_wall,
                           Pose(Quat::identity(), Vec3(0.0, 0.0, camera_z)),
                           false},
                          divisor, hit_sample);
            EXPECT_EQ(hit_sample[center], -1);
            const Vec3 unscanned(0.0, 0.0, camera_z + t_past);
            EXPECT_GT(far_wall.weightAt(unscanned), 0.0f);
            EXPECT_LE(far_wall.sdfAt(unscanned), 0.0f);
            const double t_in = params.origin.z - vol.voxelSize() - camera_z;
            int first = 0, past = 0;
            for (double t = 0.3; t < t_past; t += step) {
                first += t < t_in;
                ++past;
            }
            unscanned_lanes.insert((past - first) % 4);
        }
        EXPECT_EQ(unscanned_lanes.size(), 4u);
    }
}

// ------------------------ Conv2d vs the one-chain-per-pixel reference

/**
 * The earlier Conv2d::forward main loop: one 8-channel accumulator
 * chain per output pixel (bias, then ic -> ky -> kx), and the scalar
 * loop for the channels past the last full block of 8.
 */
Tensor
referenceConvForward(const Conv2d &conv, const Tensor &input)
{
    const int h = input.height();
    const int w = input.width();
    const int k = conv.kernelSize();
    const int pad = k / 2;
    const int oc_blocked = conv.outChannels() / 8 * 8;
    Tensor out(conv.outChannels(), h, w);
    for (int oc0 = 0; oc0 < oc_blocked; oc0 += 8) {
        alignas(32) float bias8[8];
        for (int l = 0; l < 8; ++l)
            bias8[l] = conv.bias(oc0 + l);
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                simd::VecF8 acc = simd::VecF8::load(bias8);
                for (int ic = 0; ic < conv.inChannels(); ++ic)
                    for (int ky = 0; ky < k; ++ky)
                        for (int kx = 0; kx < k; ++kx) {
                            alignas(32) float w8[8];
                            for (int l = 0; l < 8; ++l)
                                w8[l] = conv.weight(oc0 + l, ic, ky, kx);
                            acc = simd::madd(
                                acc,
                                simd::VecF8::broadcast(input.atPadded(
                                    ic, y + ky - pad, x + kx - pad)),
                                simd::VecF8::load(w8));
                        }
                alignas(32) float lanes[8];
                acc.store(lanes);
                for (int l = 0; l < 8; ++l)
                    out.at(oc0 + l, y, x) = lanes[l];
            }
        }
    }
    for (int oc = oc_blocked; oc < conv.outChannels(); ++oc)
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x) {
                float acc = conv.bias(oc);
                for (int ic = 0; ic < conv.inChannels(); ++ic)
                    for (int ky = 0; ky < k; ++ky)
                        for (int kx = 0; kx < k; ++kx)
                            acc += conv.weight(oc, ic, ky, kx) *
                                   input.atPadded(ic, y + ky - pad,
                                                  x + kx - pad);
                out.at(oc, y, x) = acc;
            }
    return out;
}

TEST(KernelEquivalence, Conv2dMatchesReferenceLoop)
{
    // RITnet's layer shapes (in, out, kernel); the 9 -> 4 head runs
    // only the channel-tail loop, and 16 -> 8 at 1x1 runs the 4-pixel
    // block without padding.
    const int shapes[][3] = {{1, 8, 3},  {8, 8, 3},  {8, 16, 3},
                             {16, 16, 3}, {32, 8, 3}, {16, 8, 3},
                             {9, 4, 1},  {16, 8, 1}};
    // Widths with w mod 4 = 0, 1, 2 and 3 (the one-pixel tail).
    const int sizes[][2] = {{16, 6}, {13, 5}, {10, 7}, {7, 4}};
    Rng rng(25);
    for (const auto &shape : shapes) {
        Conv2d conv(shape[0], shape[1], shape[2]);
        conv.initializeHe(rng);
        for (int oc = 0; oc < shape[1]; ++oc)
            conv.bias(oc) = static_cast<float>(rng.uniform(-0.5, 0.5));
        for (const auto &size : sizes) {
            Tensor input(shape[0], size[1], size[0]);
            for (int c = 0; c < shape[0]; ++c)
                for (int y = 0; y < size[1]; ++y)
                    for (int x = 0; x < size[0]; ++x)
                        input.at(c, y, x) =
                            rng.uniform() < 0.05
                                ? -0.0f
                                : static_cast<float>(rng.uniform(-1, 1));
            const Tensor got = conv.forward(input);
            const Tensor want = referenceConvForward(conv, input);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << shape[0] << "->" << shape[1] << " k" << shape[2]
                << " at " << size[0] << "x" << size[1];
        }
    }
}

} // namespace
} // namespace illixr
