/**
 * @file
 * Truncated signed distance function (TSDF) volume — the map
 * representation of the scene-reconstruction component
 * (KinectFusion-style dense fusion; paper Table II lists
 * ElasticFusion and KinectFusion as the two implementations).
 */

#pragma once

#include "foundation/pose.hpp"
#include "image/image.hpp"
#include "sensors/camera.hpp"

#include <cstdint>
#include <vector>

namespace illixr {

/** Volume configuration. */
struct TsdfParams
{
    int resolution = 96;       ///< Voxels per side.
    double side_meters = 8.0;  ///< Cube edge length.
    Vec3 origin{-4.0, -1.0, -4.0}; ///< World position of voxel (0,0,0).
    double truncation = 0.25;  ///< Truncation band, meters.
    float max_weight = 64.0f;  ///< Weight saturation.
};

/**
 * Dense TSDF voxel grid with depth-map integration and raycasting.
 */
class TsdfVolume
{
  public:
    explicit TsdfVolume(const TsdfParams &params = {});

    const TsdfParams &params() const { return params_; }
    double voxelSize() const { return voxelSize_; }

    /**
     * Fuse one depth frame taken from @p camera_to_world into the
     * volume (projective TSDF update with weighted averaging).
     */
    void integrate(const DepthImage &depth, const CameraIntrinsics &intr,
                   const Pose &camera_to_world);

    /**
     * Raycast the zero crossing from @p camera_to_world, producing a
     * predicted vertex map and normal map in *world* coordinates
     * (0/NaN-free: invalid entries have zero normal).
     */
    void raycast(const CameraIntrinsics &intr, const Pose &camera_to_world,
                 std::vector<Vec3> &vertices, std::vector<Vec3> &normals,
                 int step_divisor = 2) const;

    /** Trilinear TSDF value at a world point (+1 if unobserved). */
    float sdfAt(const Vec3 &world) const;

    /** Weight at a world point (0 if unobserved / outside). */
    float weightAt(const Vec3 &world) const;

    /** SDF gradient (central differences), the surface normal. */
    Vec3 gradientAt(const Vec3 &world) const;

    /** Number of voxels carrying any observation. */
    std::size_t observedVoxelCount() const;

    /**
     * Extract a surface point cloud: centers of voxels whose SDF
     * crosses zero against a +x/+y/+z neighbor.
     */
    std::vector<Vec3> extractSurfacePoints() const;

  private:
    std::size_t index(int x, int y, int z) const
    {
        return (static_cast<std::size_t>(z) * params_.resolution + y) *
                   params_.resolution +
               x;
    }
    bool inGrid(int x, int y, int z) const
    {
        return x >= 0 && y >= 0 && z >= 0 && x < params_.resolution &&
               y < params_.resolution && z < params_.resolution;
    }
    /** Voxel-center grid coordinate of a world point. */
    Vec3 gridCoord(const Vec3 &world) const
    {
        return (world - params_.origin) / voxelSize_ - Vec3(0.5, 0.5, 0.5);
    }
    /**
     * Trilinear SDF of the cell whose lower corner is (x0, y0, z0), at
     * fractions (fx, fy, fz); +1 if the cell leaves the grid.
     */
    float trilinear(int x0, int y0, int z0, double fx, double fy,
                    double fz) const;

    TsdfParams params_;
    double voxelSize_;
    std::vector<float> sdf_;    ///< Truncated SDF in [-1, 1] (scaled).
    std::vector<float> weight_;
};

} // namespace illixr
