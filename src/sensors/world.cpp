#include "sensors/world.hpp"

#include "foundation/rng.hpp"

#include <algorithm>
#include <cmath>

namespace illixr {

namespace {

/** Integer lattice hash to [0, 1) (deterministic value noise basis). */
double
hash3(int x, int y, int z, unsigned seed)
{
    std::uint32_t h = static_cast<std::uint32_t>(seed) * 0x9e3779b9u;
    h ^= static_cast<std::uint32_t>(x) * 0x85ebca6bu;
    h ^= static_cast<std::uint32_t>(y) * 0xc2b2ae35u;
    h ^= static_cast<std::uint32_t>(z) * 0x27d4eb2fu;
    h ^= h >> 16;
    h *= 0x7feb352du;
    h ^= h >> 15;
    h *= 0x846ca68bu;
    h ^= h >> 16;
    return static_cast<double>(h) / 4294967296.0;
}

double
smoothstep(double t)
{
    return t * t * (3.0 - 2.0 * t);
}

/** Trilinear value noise on a lattice of the given cell size. */
double
valueNoise(const Vec3 &p, double cell, unsigned seed)
{
    const double fx = p.x / cell, fy = p.y / cell, fz = p.z / cell;
    const int x0 = static_cast<int>(std::floor(fx));
    const int y0 = static_cast<int>(std::floor(fy));
    const int z0 = static_cast<int>(std::floor(fz));
    const double tx = smoothstep(fx - x0);
    const double ty = smoothstep(fy - y0);
    const double tz = smoothstep(fz - z0);

    double acc = 0.0;
    for (int dz = 0; dz <= 1; ++dz) {
        for (int dy = 0; dy <= 1; ++dy) {
            for (int dx = 0; dx <= 1; ++dx) {
                const double w = (dx ? tx : 1.0 - tx) *
                                 (dy ? ty : 1.0 - ty) *
                                 (dz ? tz : 1.0 - tz);
                acc += w * hash3(x0 + dx, y0 + dy, z0 + dz, seed);
            }
        }
    }
    return acc;
}

} // namespace

SyntheticWorld
SyntheticWorld::fromSpec(const WorldSpec &spec, unsigned seed)
{
    SyntheticWorld w;
    w.spec_ = spec;
    w.textureSeed_ = seed;
    if (spec.wall_spheres) {
        // Spheres along the walls, out of the trajectory's wander range.
        w.spheres_.push_back({Vec3(-3.5, 1.0, -2.5), 0.8, 0.15});
        w.spheres_.push_back({Vec3(3.2, 0.7, 2.8), 0.7, -0.1});
        w.spheres_.push_back({Vec3(-2.8, 2.5, 3.0), 0.6, 0.2});
        w.spheres_.push_back({Vec3(3.8, 2.2, -3.0), 0.9, -0.2});
    }
    // Occluder pillars: a deterministic ring through the wander area
    // at head height, so a moving camera repeatedly passes close to
    // (and loses wall texture behind) nearby geometry.
    const Vec3 room_center = (spec.room_min + spec.room_max) * 0.5;
    for (int i = 0; i < spec.occluders; ++i) {
        const double a =
            2.0 * M_PI * static_cast<double>(i) /
            static_cast<double>(std::max(1, spec.occluders));
        const Vec3 c(room_center.x + spec.occluder_ring_m * std::cos(a),
                     1.4,
                     room_center.z + spec.occluder_ring_m * std::sin(a));
        w.spheres_.push_back(
            {c, spec.occluder_radius_m, (i & 1) ? -0.12 : 0.12});
    }
    return w;
}

SyntheticWorld
SyntheticWorld::labRoom(unsigned seed)
{
    return fromSpec(WorldSpec{}, seed);
}

double
SyntheticWorld::textureAt(const Vec3 &p, const Vec3 &normal) const
{
    // Multi-octave value noise plus a checker component. The checker
    // provides strong gradient corners for FAST; the noise decorates
    // every scale so KLT windows are never textureless. Every
    // contrast term scales with feature_density; the term order (and
    // thus rounding) matches the pre-spec texture exactly when the
    // spec is default.
    const double density = spec_.feature_density;
    const double n1 = valueNoise(p, 0.40, textureSeed_);
    const double n2 = valueNoise(p, 0.13, textureSeed_ + 1);
    const double n3 = valueNoise(p, 0.045, textureSeed_ + 2);

    // Checker in the dominant surface plane.
    const Vec3 an(std::fabs(normal.x), std::fabs(normal.y),
                  std::fabs(normal.z));
    double u, v;
    if (an.x >= an.y && an.x >= an.z) {
        u = p.y;
        v = p.z;
    } else if (an.y >= an.z) {
        u = p.x;
        v = p.z;
    } else {
        u = p.x;
        v = p.y;
    }
    const int cu = static_cast<int>(std::floor(u / spec_.checker_cell_m));
    const int cv = static_cast<int>(std::floor(v / spec_.checker_cell_m));
    const double checker =
        ((cu + cv) & 1) ? spec_.checker_contrast * density : 0.0;

    const double value = spec_.base_albedo + checker +
                         spec_.noise_weight_coarse * density * n1 +
                         spec_.noise_weight_mid * density * n2 +
                         spec_.noise_weight_fine * density * n3;
    return std::clamp(value, 0.0, 1.0);
}

std::optional<RayHit>
SyntheticWorld::castRay(const Vec3 &origin, const Vec3 &direction) const
{
    double best_t = 1e30;
    Vec3 best_normal;
    bool hit = false;
    double albedo_offset = 0.0;

    // Room interior: for each axis, the ray exits through the face in
    // the direction of travel.
    const double o[3] = {origin.x, origin.y, origin.z};
    const double d[3] = {direction.x, direction.y, direction.z};
    const double lo[3] = {spec_.room_min.x, spec_.room_min.y,
                          spec_.room_min.z};
    const double hi[3] = {spec_.room_max.x, spec_.room_max.y,
                          spec_.room_max.z};
    for (int axis = 0; axis < 3; ++axis) {
        if (std::fabs(d[axis]) < 1e-12)
            continue;
        const double plane = (d[axis] > 0.0) ? hi[axis] : lo[axis];
        const double t = (plane - o[axis]) / d[axis];
        if (t <= 1e-9 || t >= best_t)
            continue;
        // Check the hit lies within the face rectangle.
        const Vec3 p = origin + direction * t;
        const double pc[3] = {p.x, p.y, p.z};
        bool inside = true;
        for (int other = 0; other < 3; ++other) {
            if (other == axis)
                continue;
            if (pc[other] < lo[other] - 1e-9 ||
                pc[other] > hi[other] + 1e-9)
                inside = false;
        }
        if (!inside)
            continue;
        best_t = t;
        Vec3 n(0, 0, 0);
        // Inward-facing normal of the wall.
        if (axis == 0)
            n.x = (d[0] > 0.0) ? -1.0 : 1.0;
        else if (axis == 1)
            n.y = (d[1] > 0.0) ? -1.0 : 1.0;
        else
            n.z = (d[2] > 0.0) ? -1.0 : 1.0;
        best_normal = n;
        hit = true;
        albedo_offset = 0.0;
    }

    // Spheres.
    for (const Sphere &s : spheres_) {
        const Vec3 oc = origin - s.center;
        const double b = oc.dot(direction);
        const double c = oc.squaredNorm() - s.radius * s.radius;
        const double disc = b * b - c;
        if (disc < 0.0)
            continue;
        const double sq = std::sqrt(disc);
        double t = -b - sq;
        if (t <= 1e-9)
            t = -b + sq;
        if (t <= 1e-9 || t >= best_t)
            continue;
        best_t = t;
        const Vec3 p = origin + direction * t;
        best_normal = (p - s.center).normalized();
        hit = true;
        albedo_offset = s.albedo_offset;
    }

    if (!hit)
        return std::nullopt;

    RayHit result;
    result.distance = best_t;
    result.point = origin + direction * best_t;
    result.normal = best_normal;
    result.albedo = std::clamp(
        textureAt(result.point, best_normal) + albedo_offset, 0.0, 1.0);
    return result;
}

ImageF
SyntheticWorld::renderGray(const CameraIntrinsics &intr,
                           const Pose &world_to_camera) const
{
    ImageF img(intr.width, intr.height);
    renderGrayInto(intr, world_to_camera, img);
    return img;
}

void
SyntheticWorld::renderGrayInto(const CameraIntrinsics &intr,
                               const Pose &world_to_camera,
                               ImageF &img) const
{
    const Pose camera_to_world = world_to_camera.inverse();
    const Vec3 origin = camera_to_world.position;
    // Fixed distant light plus ambient: static shading so image
    // intensity at a world point is view-independent (good for KLT).
    const Vec3 light = Vec3(0.3, 1.0, 0.45).normalized();

    for (int y = 0; y < intr.height; ++y) {
        for (int x = 0; x < intr.width; ++x) {
            const Vec3 ray_cam = intr.unproject(Vec2(x + 0.5, y + 0.5));
            const Vec3 ray_world =
                camera_to_world.orientation.rotate(ray_cam);
            const auto h = castRay(origin, ray_world);
            if (!h) {
                img.at(x, y) = 0.0f;
                continue;
            }
            const double diffuse =
                std::max(0.0, h->normal.dot(light));
            const double shade =
                h->albedo * (0.35 + 0.65 * diffuse) * spec_.lighting;
            img.at(x, y) = static_cast<float>(std::clamp(shade, 0.0, 1.0));
        }
    }
}

DepthImage
SyntheticWorld::renderDepth(const CameraIntrinsics &intr,
                            const Pose &world_to_camera,
                            double dropout_fraction, unsigned seed) const
{
    const Pose camera_to_world = world_to_camera.inverse();
    const Vec3 origin = camera_to_world.position;
    Rng rng(seed);

    DepthImage depth(intr.width, intr.height);
    for (int y = 0; y < intr.height; ++y) {
        for (int x = 0; x < intr.width; ++x) {
            if (dropout_fraction > 0.0 &&
                rng.uniform() < dropout_fraction) {
                depth.at(x, y) = 0.0f;
                continue;
            }
            const Vec3 ray_cam = intr.unproject(Vec2(x + 0.5, y + 0.5));
            const Vec3 ray_world =
                camera_to_world.orientation.rotate(ray_cam);
            const auto h = castRay(origin, ray_world);
            if (!h) {
                depth.at(x, y) = 0.0f;
                continue;
            }
            // Depth along the optical axis (z in the camera frame).
            depth.at(x, y) =
                static_cast<float>(h->distance * ray_cam.z);
        }
    }
    return depth;
}

} // namespace illixr
