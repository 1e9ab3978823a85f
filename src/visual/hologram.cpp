#include "visual/hologram.hpp"

#include "foundation/rng.hpp"
#include "foundation/simd.hpp"
#include "image/filter.hpp"

#include <algorithm>
#include <cmath>

namespace illixr {

HologramGenerator::HologramGenerator(const HologramParams &params)
    : params_(params)
{
}

double
HologramGenerator::lensPhaseAt(int x, int y, int d) const
{
    const int n = params_.resolution;
    const double focus =
        params_.min_focus +
        (params_.max_focus - params_.min_focus) *
            (params_.depth_planes > 1
                 ? static_cast<double>(d) / (params_.depth_planes - 1)
                 : 0.5);
    const double nx = (2.0 * x / n) - 1.0;
    const double ny = (2.0 * y / n) - 1.0;
    return M_PI * focus * (nx * nx + ny * ny) * n / 8.0;
}

void
HologramGenerator::ensurePhaseTables() const
{
    const int n = params_.resolution;
    const int planes = params_.depth_planes;
    const std::size_t count = static_cast<std::size_t>(n) * n;
    if (phase_fwd_.size() == static_cast<std::size_t>(planes) &&
        (planes == 0 || phase_fwd_[0].size() == 2 * count))
        return;
    phase_fwd_.assign(planes, {});
    phase_bwd_.assign(planes, {});
    const double scale = n; // Undo the forward 1/n normalization.
    for (int d = 0; d < planes; ++d) {
        phase_fwd_[d].resize(2 * count);
        phase_bwd_[d].resize(2 * count);
        for (int y = 0; y < n; ++y) {
            for (int x = 0; x < n; ++x) {
                const std::size_t i = static_cast<std::size_t>(y) * n + x;
                const double phi = lensPhaseAt(x, y, d);
                phase_fwd_[d][2 * i] = std::cos(phi);
                phase_fwd_[d][2 * i + 1] = std::sin(phi);
                // Exactly the pre-SIMD Complex(cos(-phi), sin(-phi))
                // * scale operand.
                phase_bwd_[d][2 * i] = std::cos(-phi) * scale;
                phase_bwd_[d][2 * i + 1] = std::sin(-phi) * scale;
            }
        }
    }
}

namespace {

// dst = src * tab per complex pixel over interleaved (re, im) doubles,
// two pixels per Vec<double, 4> via complexMul (bit-identical to the
// per-pixel std::complex multiply). dst may alias src.
void
applyPhase(const double *src, const double *tab, double *dst,
           std::size_t len)
{
    using simd::VecD4;
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4)
        simd::complexMul(VecD4::load(src + j), VecD4::load(tab + j))
            .store(dst + j);
    for (; j < len; j += 2) {
        const Complex r =
            Complex(src[j], src[j + 1]) * Complex(tab[j], tab[j + 1]);
        dst[j] = r.real();
        dst[j + 1] = r.imag();
    }
}

} // namespace

void
HologramGenerator::propagateToPlane(const std::vector<Complex> &hologram,
                                    int d,
                                    std::vector<Complex> &field) const
{
    const int n = params_.resolution;
    ensurePhaseTables();
    double *dst = reinterpret_cast<double *>(field.data());
    applyPhase(reinterpret_cast<const double *>(hologram.data()),
               phase_fwd_[d].data(), dst, 2 * field.size());
    fft2d(field, n, n, false);
    // Normalize so amplitudes are resolution-independent.
    using simd::VecD4;
    const VecD4 scale = VecD4::broadcast(1.0 / n);
    const std::size_t end = 2 * field.size();
    std::size_t j = 0;
    for (; j + 4 <= end; j += 4)
        (VecD4::load(dst + j) * scale).store(dst + j);
    for (; j < end; ++j)
        dst[j] *= 1.0 / n;
}

void
HologramGenerator::propagateFromPlane(std::vector<Complex> &field,
                                      int d) const
{
    const int n = params_.resolution;
    fft2d(field, n, n, true);
    ensurePhaseTables();
    double *dst = reinterpret_cast<double *>(field.data());
    applyPhase(dst, phase_bwd_[d].data(), dst, 2 * field.size());
}

HologramResult
HologramGenerator::compute(const RgbImage &frame, const ImageF *depth)
{
    const int n = params_.resolution;
    const int planes = params_.depth_planes;
    const std::size_t count = static_cast<std::size_t>(n) * n;

    // Build per-plane target amplitudes from the frame luminance.
    std::vector<std::vector<double>> targets(planes);
    {
        ScopedTask timer(profile_, "sum");
        const ImageF lum = resizeBilinear(frame.luminance(), n, n);
        ImageF depth_r;
        if (depth)
            depth_r = resizeBilinear(*depth, n, n);
        for (int d = 0; d < planes; ++d) {
            targets[d].assign(count, 0.0);
            const double band_lo =
                static_cast<double>(d) / planes;
            const double band_hi =
                static_cast<double>(d + 1) / planes;
            double energy = 0.0;
            for (int y = 0; y < n; ++y) {
                for (int x = 0; x < n; ++x) {
                    double a = std::sqrt(
                        std::max(0.0f, lum.at(x, y)) + 1e-6);
                    if (depth) {
                        // Assign pixels to their depth band.
                        const double zn =
                            (depth_r.at(x, y) + 1.0) / 2.0;
                        if (zn < band_lo || zn >= band_hi)
                            a = 0.0;
                    }
                    targets[d][static_cast<std::size_t>(y) * n + x] = a;
                    energy += a * a;
                }
            }
            // Normalize plane energy to n^2 / planes: a phase-only
            // hologram carries unit amplitude per pixel, so its
            // propagated field energy is n^2 split across planes.
            if (energy > 0.0) {
                const double s = static_cast<double>(n) /
                                 std::sqrt(energy * planes);
                for (double &a : targets[d])
                    a *= s;
            }
        }
    }

    // Initialize with a deterministic pseudo-random phase (random
    // initial phase is standard for GS). The Rng(2718) field is a pure
    // function of `count`, so it is built once and reused across
    // compute() calls.
    {
        ScopedTask timer(profile_, "sum");
        if (init_phase_.size() != count) {
            init_phase_.resize(count);
            Rng rng(2718);
            for (Complex &c : init_phase_) {
                const double phi = rng.uniform(0.0, 2.0 * M_PI);
                c = Complex(std::cos(phi), std::sin(phi));
            }
        }
    }
    std::vector<Complex> hologram = init_phase_;

    HologramResult result;
    result.plane_weights.assign(planes, 1.0);

    // Per-plane fields and their amplitudes, the back-propagation
    // buffer and the weighted sum, reused across planes and iterations.
    std::vector<std::vector<Complex>> plane_fields(
        planes, std::vector<Complex>(count));
    std::vector<std::vector<double>> plane_amps(
        planes, std::vector<double>(count));
    std::vector<Complex> back(count);
    std::vector<Complex> combined(count);

    for (int iter = 0; iter < params_.iterations; ++iter) {
        // --- Hologram-to-depth: propagate to every plane. ---
        {
            ScopedTask timer(profile_, "hologram_to_depth");
            for (int d = 0; d < planes; ++d)
                propagateToPlane(hologram, d, plane_fields[d]);
        }

        // --- Sum: per-plane amplitude errors and weight update. ---
        double total_err = 0.0;
        {
            ScopedTask timer(profile_, "sum");
            for (int d = 0; d < planes; ++d) {
                double err = 0.0, norm = 0.0;
                // Amplitude via sqrt(re^2 + im^2) rather than the
                // former std::abs/hypot (pinned: identical across
                // backends and widths, not vs the pre-SIMD code; the
                // GS error is tolerance-tested only). Kept for the
                // amplitude constraint below.
                const double *f = reinterpret_cast<const double *>(
                    plane_fields[d].data());
                double *amp = plane_amps[d].data();
                for (std::size_t i = 0; i < count; ++i) {
                    const double a = std::sqrt(f[2 * i] * f[2 * i] +
                                               f[2 * i + 1] *
                                                   f[2 * i + 1]);
                    amp[i] = a;
                    const double t = targets[d][i];
                    err += (a - t) * (a - t);
                    norm += t * t;
                }
                const double plane_err =
                    norm > 0.0 ? std::sqrt(err / norm) : 0.0;
                total_err += plane_err;
                // Weighted GS: boost badly reproduced planes.
                result.plane_weights[d] *= (1.0 + 0.5 * plane_err);
            }
            result.error_history.push_back(total_err / planes);
        }

        // --- Depth-to-hologram: constrain amplitudes, back-propagate,
        //     and combine. ---
        {
            ScopedTask timer(profile_, "depth_to_hologram");
            std::fill(combined.begin(), combined.end(), Complex(0.0, 0.0));
            for (int d = 0; d < planes; ++d) {
                // Keep the phase, impose the target amplitude.
                const double *f = reinterpret_cast<const double *>(
                    plane_fields[d].data());
                const double *amp = plane_amps[d].data();
                for (std::size_t i = 0; i < count; ++i) {
                    const double mag = amp[i];
                    const double t = targets[d][i];
                    back[i] = (mag > 1e-12)
                                  ? Complex(f[2 * i] * (t / mag),
                                            f[2 * i + 1] * (t / mag))
                                  : Complex(t, 0.0);
                }
                propagateFromPlane(back, d);
                const double w = result.plane_weights[d];
                using simd::VecD4;
                const VecD4 wv = VecD4::broadcast(w);
                double *cb = reinterpret_cast<double *>(combined.data());
                const double *bk =
                    reinterpret_cast<const double *>(back.data());
                std::size_t j = 0;
                for (; j + 4 <= 2 * count; j += 4)
                    simd::madd(VecD4::load(cb + j), VecD4::load(bk + j),
                               wv)
                        .store(cb + j);
                for (; j < 2 * count; ++j)
                    cb[j] += bk[j] * w;
            }
            // Phase-only constraint at the SLM (mag pinned as above).
            const double *cb =
                reinterpret_cast<const double *>(combined.data());
            for (std::size_t i = 0; i < count; ++i) {
                const double re = cb[2 * i];
                const double im = cb[2 * i + 1];
                const double mag = std::sqrt(re * re + im * im);
                hologram[i] = (mag > 1e-12)
                                  ? Complex(re * (1.0 / mag),
                                            im * (1.0 / mag))
                                  : Complex(1.0, 0.0);
            }
        }
    }

    result.rms_error = result.error_history.empty()
                           ? 0.0
                           : result.error_history.back();
    result.phase = ImageF(n, n);
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            const Complex &c =
                hologram[static_cast<std::size_t>(y) * n + x];
            result.phase.at(x, y) =
                static_cast<float>(std::atan2(c.imag(), c.real()));
        }
    }
    return result;
}

} // namespace illixr
