/**
 * @file
 * Unit tests for meshes, the software rasterizer, scenes, and the
 * application driver.
 */

#include "render/app.hpp"
#include "render/mesh.hpp"
#include "render/rasterizer.hpp"
#include "render/scenes.hpp"
#include "runtime/parallel.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

namespace illixr {
namespace {

TEST(MeshTest, BoxHasTwelveTriangles)
{
    const Mesh box = makeBox(Vec3(1, 1, 1), Vec3(1, 0, 0));
    EXPECT_EQ(box.triangleCount(), 12u);
    EXPECT_EQ(box.vertices.size(), 24u);
    Vec3 lo, hi;
    box.bounds(lo, hi);
    EXPECT_NEAR(lo.x, -1.0, 1e-12);
    EXPECT_NEAR(hi.z, 1.0, 1e-12);
}

TEST(MeshTest, SphereNormalsAreRadial)
{
    const Mesh sphere = makeSphere(2.0, 8, 12, Vec3(1, 1, 1));
    for (const Vertex &v : sphere.vertices) {
        EXPECT_NEAR(v.position.norm(), 2.0, 1e-9);
        EXPECT_NEAR(v.normal.dot(v.position.normalized()), 1.0, 1e-9);
    }
}

TEST(MeshTest, AppendRebasesIndices)
{
    Mesh a = makeBox(Vec3(1, 1, 1), Vec3(1, 0, 0));
    const Mesh b = makeBox(Vec3(2, 2, 2), Vec3(0, 1, 0));
    const std::size_t verts_a = a.vertices.size();
    a.append(b);
    EXPECT_EQ(a.triangleCount(), 24u);
    // Second half of the indices must refer past the first mesh.
    for (std::size_t i = 36; i < a.indices.size(); ++i)
        EXPECT_GE(a.indices[i], verts_a);
}

TEST(MeshTest, TransformMovesBounds)
{
    Mesh box = makeBox(Vec3(1, 1, 1), Vec3(1, 0, 0));
    box.transform(Mat4::translation(Vec3(10, 0, 0)));
    Vec3 lo, hi;
    box.bounds(lo, hi);
    EXPECT_NEAR(lo.x, 9.0, 1e-12);
    EXPECT_NEAR(hi.x, 11.0, 1e-12);
}

TEST(RasterizerTest, ClearFillsColorAndDepth)
{
    Rasterizer r(16, 16);
    r.clear(Vec3(0.2, 0.4, 0.6));
    EXPECT_NEAR(r.color().pixel(5, 5).y, 0.4, 1e-6);
    EXPECT_GT(r.depth().at(5, 5), 1e20f);
}

TEST(RasterizerTest, BoxInFrontOfCameraIsVisible)
{
    Rasterizer r(64, 64);
    r.clear(Vec3(0, 0, 0));
    const Mesh box = makeBox(Vec3(0.5, 0.5, 0.5), Vec3(1.0, 0.2, 0.2));
    const Mat4 model = Mat4::translation(Vec3(0, 0, -3));
    const Mat4 view = Mat4::identity();
    const Mat4 proj = Mat4::perspective(1.2, 1.0, 0.1, 50.0);
    r.draw(box, model, view, proj, DirectionalLight{});

    // Center pixel shows the lit red box face.
    const Vec3 c = r.color().pixel(32, 32);
    EXPECT_GT(c.x, 0.2);
    EXPECT_GT(c.x, c.y * 2.0);
    EXPECT_GT(r.stats().fragments_shaded, 100u);
    EXPECT_LT(r.depth().at(32, 32), 1.0f);
    // Corners show background.
    EXPECT_NEAR(r.color().pixel(1, 1).x, 0.0, 1e-6);
}

TEST(RasterizerTest, DepthTestOrdersOverlappingBoxes)
{
    Rasterizer r(64, 64);
    r.clear(Vec3(0, 0, 0));
    const Mesh red = makeBox(Vec3(0.5, 0.5, 0.1), Vec3(1, 0, 0));
    const Mesh green = makeBox(Vec3(0.5, 0.5, 0.1), Vec3(0, 1, 0));
    const Mat4 view = Mat4::identity();
    const Mat4 proj = Mat4::perspective(1.2, 1.0, 0.1, 50.0);
    // Draw far green first, then near red: red must win. Then redraw
    // green (farther): red must still win.
    r.draw(green, Mat4::translation(Vec3(0, 0, -5)), view, proj,
           DirectionalLight{});
    r.draw(red, Mat4::translation(Vec3(0, 0, -3)), view, proj,
           DirectionalLight{});
    r.draw(green, Mat4::translation(Vec3(0, 0, -5)), view, proj,
           DirectionalLight{});
    const Vec3 c = r.color().pixel(32, 32);
    EXPECT_GT(c.x, c.y);
}

TEST(RasterizerTest, BehindCameraIsCulled)
{
    Rasterizer r(32, 32);
    r.clear(Vec3(0, 0, 0));
    const Mesh box = makeBox(Vec3(0.5, 0.5, 0.5), Vec3(1, 1, 1));
    r.draw(box, Mat4::translation(Vec3(0, 0, 5)), Mat4::identity(),
           Mat4::perspective(1.2, 1.0, 0.1, 50.0), DirectionalLight{});
    EXPECT_EQ(r.stats().fragments_shaded, 0u);
}

TEST(RasterizerTest, GouraudLightingDependsOnNormal)
{
    // A sphere lit from above: top brighter than bottom.
    Rasterizer r(64, 64);
    r.clear(Vec3(0, 0, 0));
    const Mesh sphere = makeSphere(1.0, 24, 32, Vec3(0.8, 0.8, 0.8));
    DirectionalLight light;
    light.direction = Vec3(0, 1, 0);
    r.draw(sphere, Mat4::translation(Vec3(0, 0, -3)), Mat4::identity(),
           Mat4::perspective(1.2, 1.0, 0.1, 50.0), light);
    const double top = r.color().pixel(32, 18).x;
    const double bottom = r.color().pixel(32, 46).x;
    EXPECT_GT(top, bottom + 0.1);
}

TEST(SceneTest, ComplexityOrderingMatchesPaper)
{
    // Sponza most graphics-intensive, AR demo least (paper §III-C).
    const Scene sponza(AppId::Sponza);
    const Scene materials(AppId::Materials);
    const Scene platformer(AppId::Platformer);
    const Scene ar(AppId::ArDemo);
    EXPECT_GT(sponza.triangleCount(), materials.triangleCount());
    EXPECT_GT(materials.triangleCount(), platformer.triangleCount());
    EXPECT_GT(platformer.triangleCount(), ar.triangleCount());
    EXPECT_GT(sponza.triangleCount(), 10000u);
    EXPECT_LT(ar.triangleCount(), 1000u);
}

TEST(SceneTest, AnimationMovesObjects)
{
    Scene scene(AppId::Platformer);
    scene.update(0.0);
    // Find an animated object.
    std::size_t animated = 0;
    for (std::size_t i = 0; i < scene.objects().size(); ++i) {
        if (scene.objects()[i].motion != SceneObject::Motion::Static) {
            animated = i;
            break;
        }
    }
    const Mat4 t0 = scene.objectTransform(animated);
    scene.update(0.37);
    const Mat4 t1 = scene.objectTransform(animated);
    const Vec3 p0(t0(0, 3), t0(1, 3), t0(2, 3));
    const Vec3 p1(t1(0, 3), t1(1, 3), t1(2, 3));
    EXPECT_GT((p1 - p0).norm(), 0.01);
}

TEST(AppTest, RendersStereoFrames)
{
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    XrApplication app(AppId::ArDemo, cfg);
    const Pose head(Quat::identity(), Vec3(0, 1.6, 0));
    const StereoFrame frame = app.renderFrame(head, 0.5);
    EXPECT_EQ(frame.left.width(), 64);
    EXPECT_EQ(frame.right.width(), 64);
    EXPECT_GT(app.stats().draw_calls, 0u);
    EXPECT_GT(app.profile().taskSeconds("rendering"), 0.0);
    EXPECT_GT(app.profile().taskSeconds("simulation"), 0.0);
}

TEST(AppTest, StereoEyesDiffer)
{
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    XrApplication app(AppId::Platformer, cfg);
    const Pose head(Quat::identity(), Vec3(0, 1.2, 4.0));
    const StereoFrame frame = app.renderFrame(head, 0.0);
    double diff = 0.0;
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            diff += std::fabs(frame.left.r.at(x, y) -
                              frame.right.r.at(x, y));
    EXPECT_GT(diff, 1.0) << "stereo parallax expected";
}

TEST(AppTest, RenderCostOrderingMatchesPaper)
{
    // Fragments shaded per frame should follow the complexity order.
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    const Pose head(Quat::identity(), Vec3(0, 1.6, 3.0));
    std::size_t shaded[4];
    const AppId apps[4] = {AppId::Sponza, AppId::Materials,
                           AppId::Platformer, AppId::ArDemo};
    for (int i = 0; i < 4; ++i) {
        XrApplication app(apps[i], cfg);
        app.renderFrame(head, 0.1);
        shaded[i] = app.stats().triangles_submitted;
    }
    EXPECT_GT(shaded[0], shaded[1]);
    EXPECT_GT(shaded[1], shaded[2]);
    EXPECT_GT(shaded[2], shaded[3]);
}

// ------------------------------------------ Batched draw-list oracle

/**
 * The per-draw rasterizer the batched draw list replaced, kept as the
 * bit-identity reference: each mesh is transformed, set up, binned and
 * rasterized on its own, band after band, exactly as one draw call
 * used to be (its kernel tiles replayed serially, which the kernel
 * determinism contract makes equal to any width).
 */
struct PerDrawReference
{
    struct ShadedVertex
    {
        Vec3 ndc;
        double inv_w = 0.0;
        Vec3 color;
        Vec3 normal;
        Vec3 world;
    };

    struct SetupTriangle
    {
        const ShadedVertex *a = nullptr;
        const ShadedVertex *b = nullptr;
        const ShadedVertex *c = nullptr;
        double ax, ay, bx, by, cx, cy;
        double inv_area;
        int x0, x1, y0, y1;
    };

    static constexpr int kBandRows = 16;

    RgbImage color;
    ImageF depth;
    RasterStats stats;
    std::size_t behind_near_plane = 0; ///< Vertices with clip.w <= 1e-6.

    PerDrawReference(int width, int height, const Vec3 &background)
        : color(width, height, background), depth(width, height, 1e30f)
    {
    }

    static double edgeFunction(double ax, double ay, double bx, double by,
                               double cx, double cy)
    {
        return (cx - ax) * (by - ay) - (cy - ay) * (bx - ax);
    }

    void draw(const Mesh &mesh, const Mat4 &model, const Mat4 &view,
              const Mat4 &proj, const DirectionalLight &light,
              ShadingModel shading)
    {
        ++stats.draw_calls;
        stats.triangles_submitted += mesh.triangleCount();

        const Mat4 mv = view * model;
        const Mat4 mvp = proj * mv;
        const Vec3 light_dir = light.direction.normalized();
        const Mat4 view_inv = view.inverse();
        const Vec3 eye(view_inv(0, 3), view_inv(1, 3), view_inv(2, 3));

        std::vector<ShadedVertex> tv(mesh.vertices.size());
        std::vector<char> valid(mesh.vertices.size(), 1);
        for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
            const Vertex &v = mesh.vertices[i];
            const Vec3 world = model.transformPoint(v.position);
            const Vec4 clip = mvp * Vec4(v.position, 1.0);
            if (clip.w <= 1e-6) {
                valid[i] = 0;
                ++behind_near_plane;
                continue;
            }
            ShadedVertex &out = tv[i];
            out.inv_w = 1.0 / clip.w;
            out.ndc = Vec3(clip.x, clip.y, clip.z) * out.inv_w;
            const Vec3 n = model.transformDirection(v.normal).normalized();
            if (shading == ShadingModel::Gouraud) {
                const double diffuse =
                    std::max(0.0, n.dot(light_dir)) * light.intensity;
                out.color = v.color * (light.ambient + diffuse);
            } else {
                out.color = v.color;
            }
            out.normal = n;
            out.world = world;
        }

        const int w = color.width();
        const int h = color.height();
        const double half_w = w / 2.0;
        const double half_h = h / 2.0;

        std::vector<SetupTriangle> tris;
        for (std::size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
            const std::uint32_t ia = mesh.indices[t];
            const std::uint32_t ib = mesh.indices[t + 1];
            const std::uint32_t ic = mesh.indices[t + 2];
            if (!valid[ia] || !valid[ib] || !valid[ic])
                continue;
            const ShadedVertex &a = tv[ia];
            const ShadedVertex &b = tv[ib];
            const ShadedVertex &c = tv[ic];
            const double ax = (a.ndc.x + 1.0) * half_w;
            const double ay = (1.0 - a.ndc.y) * half_h;
            const double bx = (b.ndc.x + 1.0) * half_w;
            const double by = (1.0 - b.ndc.y) * half_h;
            const double cx = (c.ndc.x + 1.0) * half_w;
            const double cy = (1.0 - c.ndc.y) * half_h;
            const double area = edgeFunction(ax, ay, bx, by, cx, cy);
            if (area <= 0.0)
                continue;
            const int x0 = std::max(
                0, static_cast<int>(std::floor(std::min({ax, bx, cx}))));
            const int x1 = std::min(
                w - 1,
                static_cast<int>(std::ceil(std::max({ax, bx, cx}))));
            const int y0 = std::max(
                0, static_cast<int>(std::floor(std::min({ay, by, cy}))));
            const int y1 = std::min(
                h - 1,
                static_cast<int>(std::ceil(std::max({ay, by, cy}))));
            if (x0 > x1 || y0 > y1)
                continue;
            ++stats.triangles_rasterized;
            tris.push_back({&a, &b, &c, ax, ay, bx, by, cx, cy,
                            1.0 / area, x0, x1, y0, y1});
        }

        const std::size_t bands =
            (static_cast<std::size_t>(h) + kBandRows - 1) / kBandRows;
        std::vector<std::vector<std::size_t>> bins(bands);
        for (std::size_t i = 0; i < tris.size(); ++i)
            for (int band = tris[i].y0 / kBandRows;
                 band <= tris[i].y1 / kBandRows; ++band)
                bins[static_cast<std::size_t>(band)].push_back(i);

        for (std::size_t band = 0; band < bands; ++band) {
            const int band_y0 = static_cast<int>(band) * kBandRows;
            const int band_y1 = std::min(h - 1, band_y0 + kBandRows - 1);
            for (const std::size_t ti : bins[band]) {
                const SetupTriangle &s = tris[ti];
                const ShadedVertex &a = *s.a;
                const ShadedVertex &b = *s.b;
                const ShadedVertex &c = *s.c;
                for (int py = std::max(s.y0, band_y0);
                     py <= std::min(s.y1, band_y1); ++py) {
                    for (int px = s.x0; px <= s.x1; ++px) {
                        const double sx = px + 0.5;
                        const double sy = py + 0.5;
                        double w0 =
                            edgeFunction(s.bx, s.by, s.cx, s.cy, sx, sy);
                        double w1 =
                            edgeFunction(s.cx, s.cy, s.ax, s.ay, sx, sy);
                        double w2 =
                            edgeFunction(s.ax, s.ay, s.bx, s.by, sx, sy);
                        if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0)
                            continue;
                        w0 *= s.inv_area;
                        w1 *= s.inv_area;
                        w2 *= s.inv_area;
                        const double z =
                            w0 * a.ndc.z + w1 * b.ndc.z + w2 * c.ndc.z;
                        if (z < -1.0 || z > 1.0)
                            continue;
                        if (z >= depth.at(px, py))
                            continue;
                        const double iw =
                            w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
                        const double pa = w0 * a.inv_w / iw;
                        const double pb = w1 * b.inv_w / iw;
                        const double pc = w2 * c.inv_w / iw;
                        Vec3 rgb;
                        if (shading == ShadingModel::Gouraud) {
                            rgb = a.color * pa + b.color * pb +
                                  c.color * pc;
                        } else {
                            const Vec3 base = a.color * pa +
                                              b.color * pb + c.color * pc;
                            const Vec3 n = (a.normal * pa +
                                            b.normal * pb + c.normal * pc)
                                               .normalized();
                            const Vec3 world = a.world * pa +
                                               b.world * pb + c.world * pc;
                            const double diffuse =
                                std::max(0.0, n.dot(light_dir)) *
                                light.intensity;
                            const Vec3 view_dir =
                                (eye - world).normalized();
                            const Vec3 half_vec =
                                (view_dir + light_dir).normalized();
                            const double spec =
                                0.6 * std::pow(std::max(0.0,
                                                        n.dot(half_vec)),
                                               24.0);
                            rgb = base * (light.ambient + diffuse) +
                                  Vec3(spec, spec, spec);
                        }
                        depth.at(px, py) = static_cast<float>(z);
                        color.setPixel(
                            px, py,
                            Vec3(std::clamp(rgb.x, 0.0, 1.0),
                                 std::clamp(rgb.y, 0.0, 1.0),
                                 std::clamp(rgb.z, 0.0, 1.0)));
                        ++stats.fragments_shaded;
                    }
                }
            }
        }
    }
};

bool
sameBytes(const ImageF &a, const ImageF &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.width()) * a.height() *
                           sizeof(float)) == 0;
}

bool
sameBytes(const RgbImage &a, const RgbImage &b)
{
    return sameBytes(a.r, b.r) && sameBytes(a.g, b.g) &&
           sameBytes(a.b, b.b);
}

bool
sameStats(const RasterStats &a, const RasterStats &b)
{
    return a.triangles_submitted == b.triangles_submitted &&
           a.triangles_rasterized == b.triangles_rasterized &&
           a.fragments_shaded == b.fragments_shaded &&
           a.draw_calls == b.draw_calls;
}

/** RAII kernel-pool width override (restores serial on exit). */
class KernelWidth
{
  public:
    explicit KernelWidth(std::size_t width)
    {
        KernelPool::instance().setWidth(width);
    }
    ~KernelWidth() { KernelPool::instance().setWidth(1); }
};

TEST(KernelEquivalence, RasterizerDrawListMatchesPerDrawCalls)
{
    // 72 rows: four full 16-row bands and a partial fifth one.
    AppConfig cfg;
    cfg.eye_width = 72;
    cfg.eye_height = 72;
    const Mat4 proj =
        Mat4::perspective(cfg.fov_y_rad, 1.0, cfg.near_z, cfg.far_z);
    const DirectionalLight light;
    // Facing the centerpiece with floor behind the eye (vertices
    // behind the near plane), turned and tilted, and sideways from the
    // end of the colonnade.
    const Pose heads[3] = {
        Pose(Quat::identity(), Vec3(0, 1.6, 3.0)),
        Pose(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.6) *
                 Quat::fromAxisAngle(Vec3(1, 0, 0), -0.25),
             Vec3(0.4, 1.2, 4.0)),
        Pose(Quat::fromAxisAngle(Vec3(0, 1, 0), -1.2),
             Vec3(-5.0, 2.0, 0.5)),
    };
    const double times[3] = {0.0, 0.37, 1.1};
    const AppId apps[4] = {AppId::Sponza, AppId::Materials,
                           AppId::Platformer, AppId::ArDemo};

    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
        KernelWidth guard(width);
        std::size_t per_pixel_draws = 0;
        for (const AppId id : apps) {
            std::size_t behind = 0;
            for (int p = 0; p < 3; ++p) {
                SCOPED_TRACE(std::string(appName(id)) + " width " +
                             std::to_string(width) + " pose " +
                             std::to_string(p));
                XrApplication app(id, cfg);
                const StereoFrame frame =
                    app.renderFrame(heads[p], times[p]);
                Scene scene(id);
                scene.update(times[p]);

                RasterStats both_eyes;
                for (const bool left : {true, false}) {
                    const Mat4 view = viewMatrixFromPose(
                        eyePose(heads[p], cfg.ipd_m, left));

                    PerDrawReference ref(72, 72, scene.backgroundColor());
                    std::vector<DrawCall> calls;
                    for (std::size_t i = 0; i < scene.objects().size();
                         ++i) {
                        const SceneObject &obj = scene.objects()[i];
                        ref.draw(obj.mesh, scene.objectTransform(i), view,
                                 proj, light, obj.shading);
                        calls.push_back({&obj.mesh,
                                         scene.objectTransform(i),
                                         obj.shading});
                        if (obj.shading == ShadingModel::PerPixel)
                            ++per_pixel_draws;
                    }
                    behind += ref.behind_near_plane;

                    Rasterizer batched(72, 72);
                    batched.clear(scene.backgroundColor());
                    batched.draw(calls, view, proj, light);
                    EXPECT_TRUE(sameBytes(batched.color(), ref.color));
                    EXPECT_TRUE(sameBytes(batched.depth(), ref.depth));
                    EXPECT_TRUE(sameStats(batched.stats(), ref.stats));
                    EXPECT_TRUE(
                        sameBytes(left ? frame.left : frame.right,
                                  ref.color));

                    both_eyes.triangles_submitted +=
                        ref.stats.triangles_submitted;
                    both_eyes.triangles_rasterized +=
                        ref.stats.triangles_rasterized;
                    both_eyes.fragments_shaded += ref.stats.fragments_shaded;
                    both_eyes.draw_calls += ref.stats.draw_calls;
                    EXPECT_GT(ref.stats.fragments_shaded, 0u);
                }
                EXPECT_TRUE(sameStats(app.stats(), both_eyes));
            }
            if (id == AppId::Sponza) {
                EXPECT_GT(behind, 0u) << "near-plane rejection untested";
            }
        }
        EXPECT_GT(per_pixel_draws, 0u) << "PerPixel shading untested";
    }
}

TEST(KernelEquivalence, RasterizerLaunchesTwoKernelsPerEye)
{
    // A regression to per-draw launches would make this 4 x 45.
    AppConfig cfg;
    cfg.eye_width = 80;
    cfg.eye_height = 80;
    XrApplication app(AppId::Sponza, cfg);
    ASSERT_EQ(app.scene().objects().size(), 45u);
    MetricsRegistry metrics;
    TraceSink sink;
    {
        KernelPool::MetricsScope scope(&metrics, &sink);
        app.renderFrame(Pose(Quat::identity(), Vec3(0, 1.6, 3.0)), 0.0);
    }
    std::size_t xform = 0, tiles = 0, other_raster = 0;
    for (const Span &span : sink.spans()) {
        if (span.task == "kernel.raster_xform")
            ++xform;
        else if (span.task == "kernel.raster_tiles")
            ++tiles;
        else if (span.task.rfind("kernel.raster_", 0) == 0)
            ++other_raster;
    }
    EXPECT_EQ(xform, 2u);
    EXPECT_EQ(tiles, 2u);
    EXPECT_EQ(other_raster, 0u);
    EXPECT_EQ(app.stats().draw_calls, 90u);
}

TEST(EyePoseTest, IpdSeparatesEyes)
{
    const Pose head(Quat::identity(), Vec3(0, 1.6, 0));
    const Pose left = eyePose(head, 0.064, true);
    const Pose right = eyePose(head, 0.064, false);
    EXPECT_NEAR((left.position - right.position).norm(), 0.064, 1e-9);
    // Rotated head: separation still equals the IPD.
    const Pose head2(Quat::fromAxisAngle(Vec3(0, 1, 0), 1.0),
                     Vec3(0, 1.6, 0));
    const Pose l2 = eyePose(head2, 0.064, true);
    const Pose r2 = eyePose(head2, 0.064, false);
    EXPECT_NEAR((l2.position - r2.position).norm(), 0.064, 1e-9);
}

} // namespace
} // namespace illixr
