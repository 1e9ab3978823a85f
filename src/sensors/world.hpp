/**
 * @file
 * Synthetic 3-D world used to render camera and depth frames.
 *
 * The world is a textured axis-aligned room containing a few solid
 * spheres. Camera frames are raycast per pixel against this geometry
 * and shaded with a static procedural texture, so that the frames a
 * moving camera sees are photometrically consistent over time — the
 * property FAST/KLT feature tracking (and therefore the whole VIO
 * substitute for the live ZED camera) relies on.
 *
 * Every constant of the room lives in WorldSpec: the scenario layer
 * (sensors/scenario.hpp) maps feature-density / lighting / occluder
 * profiles onto it, and the default-constructed spec IS the legacy
 * lab room — same geometry, same texture, same pixels.
 */

#pragma once

#include "image/image.hpp"
#include "sensors/camera.hpp"

#include <optional>
#include <vector>

namespace illixr {

/** Result of a ray cast against the world. */
struct RayHit
{
    double distance = 0.0; ///< Along the (unit) ray, meters.
    Vec3 point;            ///< World-space hit point.
    Vec3 normal;           ///< Outward surface normal at the hit.
    double albedo = 0.5;   ///< Procedural texture value in [0, 1].
};

/**
 * Declarative description of a SyntheticWorld. The defaults below
 * reproduce the legacy labRoom() world exactly.
 */
struct WorldSpec
{
    Vec3 room_min{-5.0, 0.0, -4.0};
    Vec3 room_max{5.0, 4.0, 4.0};

    // ---- procedural texture ----
    double base_albedo = 0.25;
    double checker_contrast = 0.22;
    double checker_cell_m = 0.5;
    double noise_weight_coarse = 0.30; ///< cell 0.40 m
    double noise_weight_mid = 0.18;    ///< cell 0.13 m
    double noise_weight_fine = 0.10;   ///< cell 0.045 m

    /**
     * Scales every texture contrast term (checker + noise octaves).
     * 1 = legacy texture; < 1 starves FAST/KLT of corners, > 1
     * enriches them. The base albedo is untouched.
     */
    double feature_density = 1.0;

    /**
     * Scene illumination scale applied to rendered shading. 1 =
     * legacy lighting; < 1 darkens and compresses image contrast.
     */
    double lighting = 1.0;

    /** Include the four legacy wall spheres. */
    bool wall_spheres = true;

    /**
     * Number of large occluder pillars (spheres) placed on a ring
     * through the trajectory's wander area, so a walking camera
     * repeatedly loses wall texture behind nearby geometry — the
     * "walk-through-occlusion" stressor.
     */
    int occluders = 0;
    double occluder_radius_m = 0.9;
    double occluder_ring_m = 1.8; ///< Ring radius around room center.
};

/**
 * Textured room with interior spheres.
 */
class SyntheticWorld
{
  public:
    /** Build a world from an explicit spec. */
    static SyntheticWorld fromSpec(const WorldSpec &spec,
                                   unsigned seed = 5);

    /** Standard lab-sized room (10 x 4 x 8 m) with four spheres:
     *  fromSpec(WorldSpec{}, seed). */
    static SyntheticWorld labRoom(unsigned seed = 5);

    /**
     * Cast a ray from @p origin along (unit) @p direction.
     * @return The nearest hit, or nullopt when the ray escapes
     *         (cannot happen for origins inside the room).
     */
    std::optional<RayHit> castRay(const Vec3 &origin,
                                  const Vec3 &direction) const;

    /**
     * Render a grayscale camera frame from the given world-to-camera
     * pose (see CameraRig::worldToCamera).
     */
    ImageF renderGray(const CameraIntrinsics &intr,
                      const Pose &world_to_camera) const;

    /**
     * renderGray into @p img, which must already be intr.width x
     * intr.height: writes pixels only and allocates nothing, so
     * concurrent calls into distinct images are safe.
     */
    void renderGrayInto(const CameraIntrinsics &intr,
                        const Pose &world_to_camera, ImageF &img) const;

    /**
     * Render a depth frame (meters along the optical axis; 0 where
     * invalid). @p dropout_fraction randomly invalidates pixels to
     * emulate depth-sensor holes.
     */
    DepthImage renderDepth(const CameraIntrinsics &intr,
                           const Pose &world_to_camera,
                           double dropout_fraction = 0.0,
                           unsigned seed = 9) const;

    /** Room bounds (min corner / max corner). */
    Vec3 roomMin() const { return spec_.room_min; }
    Vec3 roomMax() const { return spec_.room_max; }

    /** The spec this world was built from. */
    const WorldSpec &spec() const { return spec_; }

    /** Procedural albedo at a world point on a surface with normal n. */
    double textureAt(const Vec3 &point, const Vec3 &normal) const;

  private:
    struct Sphere
    {
        Vec3 center;
        double radius = 0.0;
        double albedo_offset = 0.0;
    };

    WorldSpec spec_;
    std::vector<Sphere> spheres_;
    unsigned textureSeed_ = 5;
};

} // namespace illixr
