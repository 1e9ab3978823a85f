/**
 * @file
 * Asynchronous reprojection (TimeWarp) with mesh-based radial lens
 * distortion and chromatic aberration correction — the visual
 * pipeline of the paper (Table II: "VP-matrix reprojection with
 * pose", "Mesh-based radial distortion" [39]).
 *
 * Rotational reprojection: the application's rendered frame (drawn at
 * render_pose) is re-sampled from the perspective of the fresh pose
 * available just before vsync, hiding the application's render
 * latency. The warp, the barrel pre-distortion for the HMD optics,
 * and per-channel chromatic correction are evaluated on a coarse mesh
 * and interpolated per pixel, exactly as GPU implementations do.
 * Translational reprojection (the paper's follow-up feature) is also
 * provided, using the rendered depth as a proxy geometry.
 */

#pragma once

#include "foundation/pose.hpp"
#include "foundation/profile.hpp"
#include "image/image.hpp"

namespace illixr {

/** Reprojection configuration. */
struct TimewarpParams
{
    int mesh_cols = 16;     ///< Distortion-mesh resolution.
    int mesh_rows = 16;
    double fov_y_rad = 1.5; ///< Must match the application's FoV.
    double k1 = 0.18;       ///< Radial distortion r^2 coefficient.
    double k2 = 0.045;      ///< Radial distortion r^4 coefficient.
    /** Per-channel chromatic scale (R slightly outward, B inward). */
    double chroma_scale[3] = {1.015, 1.0, 0.985};
    bool chromatic_correction = true;
    bool lens_distortion = true;
};

/**
 * The reprojection component.
 */
class Timewarp
{
  public:
    explicit Timewarp(const TimewarpParams &params = TimewarpParams());

    /**
     * Rotational reprojection of one eye image.
     *
     * @param rendered    The application's frame for this eye.
     * @param render_pose Head pose the frame was rendered at.
     * @param fresh_pose  Latest head pose (from the IMU integrator).
     * @return The corrected, reprojected display image.
     */
    RgbImage reproject(const RgbImage &rendered, const Pose &render_pose,
                       const Pose &fresh_pose);

    /**
     * Translational (positional) reprojection using the rendered
     * depth buffer as proxy geometry (post-paper extension).
     *
     * @param depth_ndc   NDC depth buffer from the rasterizer.
     * @param near_z/far_z Projection depths used by the application.
     */
    RgbImage reprojectPositional(const RgbImage &rendered,
                                 const ImageF &depth_ndc,
                                 const Pose &render_pose,
                                 const Pose &fresh_pose, double near_z,
                                 double far_z);

    const TimewarpParams &params() const { return params_; }

    /** Table VII task timings (fbo / state update / reprojection). */
    const TaskProfile &profile() const { return profile_; }
    TaskProfile &profile() { return profile_; }

  private:
    /**
     * Compute per-channel source UVs on the warp mesh for the given
     * rotation delta; the per-pixel pass interpolates these.
     */
    void buildMesh(const Mat3 &delta_rotation, int width, int height);

    TimewarpParams params_;
    TaskProfile profile_;

    // Mesh buffers: (mesh_rows+1) x (mesh_cols+1) UVs per channel.
    std::vector<Vec2> meshUv_[3];
    // 1 where all four corners of a mesh cell are valid in all three
    // channels; mesh_rows x mesh_cols, rebuilt with the mesh.
    std::vector<unsigned char> cellValid_;

    // Per-frame reprojection tables, kept to reuse the allocations.
    // The row tables are padded to a multiple of 4 pixels.
    std::vector<int> colCell_;     ///< Mesh column of each pixel column.
    std::vector<double> colFx_;    ///< Its weight within that cell.
    std::vector<double> rowU_[3];  ///< Mesh row UVs lerped to each
    std::vector<double> rowV_[3];  ///< pixel column (SoA per channel).
    std::vector<double> pixValid_; ///< Cell validity mask per cell row
                                   ///< and pixel column.
};

/** Barrel distortion of normalized coordinates (r in [0, ~1.5]). */
Vec2 distortRadial(const Vec2 &ndc, double k1, double k2, double scale);

} // namespace illixr
