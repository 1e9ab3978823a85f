/**
 * @file
 * Computational holography: weighted Gerchberg–Saxton (GS) phase
 * retrieval for multi-focal-plane displays — the adaptive-display
 * component (paper Table II: "Weighted Gerchberg–Saxton" [40]).
 *
 * The optimizer finds a single phase-only hologram whose propagation
 * to each depth plane reproduces that plane's target amplitude. The
 * per-plane propagation is a Fourier transform with a depth-dependent
 * quadratic lens phase; the weighted update boosts planes that are
 * reproduced poorly (Persson et al. 2011). Task names match the rows
 * of paper Table VII.
 */

#pragma once

#include "foundation/profile.hpp"
#include "image/image.hpp"
#include "signal/fft.hpp"

#include <vector>

namespace illixr {

/** Hologram generator configuration. */
struct HologramParams
{
    int resolution = 128;  ///< Square, power of two (SLM pixels).
    int depth_planes = 3;
    int iterations = 5;
    /** Lens-phase curvature per plane (dimensionless focal powers). */
    double min_focus = -1.0;
    double max_focus = 1.0;
};

/** Result of one hologram computation. */
struct HologramResult
{
    ImageF phase;        ///< Optimized hologram phase in [-pi, pi].
    double rms_error = 0.0;    ///< Final amplitude reproduction error.
    std::vector<double> plane_weights;
    std::vector<double> error_history; ///< RMS error per iteration.
};

/**
 * Weighted-GS hologram generator.
 */
class HologramGenerator
{
  public:
    explicit HologramGenerator(const HologramParams &params = {});

    /**
     * Compute a hologram reproducing @p frame across the configured
     * focal stack. The frame's luminance is resampled to the SLM
     * resolution; each depth plane targets a band of the depth
     * buffer when @p depth is provided, otherwise all planes target
     * the full image.
     */
    HologramResult compute(const RgbImage &frame,
                           const ImageF *depth = nullptr);

    const HologramParams &params() const { return params_; }

    /** Table VII task timings. */
    const TaskProfile &profile() const { return profile_; }
    TaskProfile &profile() { return profile_; }

  private:
    /** Propagate @p hologram to plane @p d (forward) into @p field. */
    void propagateToPlane(const std::vector<Complex> &hologram, int d,
                          std::vector<Complex> &field) const;

    /** Propagate a plane field back to the hologram (inverse), in place. */
    void propagateFromPlane(std::vector<Complex> &field, int d) const;

    /** Depth-dependent quadratic lens phase for plane @p d. */
    double lensPhaseAt(int x, int y, int d) const;

    /** Build the cached per-plane phase tables on first use. */
    void ensurePhaseTables() const;

    HologramParams params_;
    TaskProfile profile_;

    // Lazily built caches, pure functions of params_: per-plane lens
    // phase factors as interleaved (re, im) — forward cis(phi), and
    // backward cis(-phi) with the inverse-FFT renormalization baked
    // in — plus the deterministic Rng(2718) initial phase field that
    // compute() previously rebuilt identically on every call.
    mutable std::vector<std::vector<double>> phase_fwd_;
    mutable std::vector<std::vector<double>> phase_bwd_;
    mutable std::vector<Complex> init_phase_;
};

} // namespace illixr
