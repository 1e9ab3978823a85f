#include "slam/klt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace illixr {

namespace {

/** Windows up to this radius live on the stack; larger ones on the heap. */
constexpr int kStackWindowRadius = 8;
constexpr std::size_t kStackWindowValues =
    3 * (2 * kStackWindowRadius + 1) * (2 * kStackWindowRadius + 1);

/**
 * ImageF::sampleBilinear. A caller that knows 0 <= x < w-1 and
 * 0 <= y < h-1 passes @p interior: the clamps are then no-ops and are
 * skipped, with the same operations on the same pixels.
 */
inline float
sample(const ImageF &img, double x, double y, bool interior)
{
    if (!interior)
        return img.sampleBilinear(x, y);
    const int x0 = static_cast<int>(x);
    const int y0 = static_cast<int>(y);
    const double fx = x - x0;
    const double fy = y - y0;
    const float *p =
        img.data() + static_cast<std::size_t>(y0) * img.width() + x0;
    const float *q = p + img.width();
    const double top = p[0] * (1.0 - fx) + p[1] * fx;
    const double bot = q[0] * (1.0 - fx) + q[1] * fx;
    return static_cast<float>(top * (1.0 - fy) + bot * fy);
}

/**
 * True when every coordinate in [x_lo, x_hi] x [y_lo, y_hi] samples
 * @p img without clamping (false for NaN bounds).
 */
inline bool
interior(const ImageF &img, double x_lo, double x_hi, double y_lo,
         double y_hi)
{
    return x_lo >= 0.0 && y_lo >= 0.0 && x_hi < img.width() - 1 &&
           y_hi < img.height() - 1;
}

/**
 * Single-level LK refinement of the displacement @p d for @p point.
 * @return false when the structure tensor is degenerate or the
 *         window leaves the image.
 */
bool
trackLevel(const ImageF &prev, const ImageF &next, const Vec2 &point,
           Vec2 &d, double &residual_out, const KltParams &p)
{
    const int r = p.window_radius;
    const int n = (2 * r + 1) * (2 * r + 1);

    // The spatial gradient matrix is evaluated once in the previous
    // image (standard inverse-compositional-style optimization).
    std::array<double, kStackWindowValues> stack_window;
    std::vector<double> heap_window;
    double *gx = stack_window.data();
    if (r > kStackWindowRadius) {
        heap_window.resize(3 * static_cast<std::size_t>(n));
        gx = heap_window.data();
    }
    double *gy = gx + n;
    double *tmpl = gy + n;
    double gxx = 0.0, gxy = 0.0, gyy = 0.0;
    // Rounding is monotone, so every window sample lies between the
    // extreme coordinates.
    const bool prev_inside =
        interior(prev, (point.x + -r) - 1.0, (point.x + r) + 1.0,
                 (point.y + -r) - 1.0, (point.y + r) + 1.0);
    int idx = 0;
    for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx, ++idx) {
            const double px = point.x + dx;
            const double py = point.y + dy;
            tmpl[idx] = sample(prev, px, py, prev_inside);
            gx[idx] = 0.5 * (sample(prev, px + 1.0, py, prev_inside) -
                             sample(prev, px - 1.0, py, prev_inside));
            gy[idx] = 0.5 * (sample(prev, px, py + 1.0, prev_inside) -
                             sample(prev, px, py - 1.0, prev_inside));
            gxx += gx[idx] * gx[idx];
            gxy += gx[idx] * gy[idx];
            gyy += gy[idx] * gy[idx];
        }
    }
    // Minimum eigenvalue of the 2x2 structure tensor.
    const double tr = gxx + gyy;
    const double det = gxx * gyy - gxy * gxy;
    const double disc = std::sqrt(std::max(0.0, tr * tr / 4.0 - det));
    const double min_eig = (tr / 2.0 - disc) / n;
    if (min_eig < p.min_eigenvalue)
        return false;

    const double inv_det = 1.0 / (gxx * gyy - gxy * gxy);

    for (int iter = 0; iter < p.max_iterations; ++iter) {
        // Photometric error over the window at the current estimate.
        double bx = 0.0, by = 0.0, res = 0.0;
        const double cx = point.x + d.x;
        const double cy = point.y + d.y;
        const bool next_inside =
            interior(next, cx + -r, cx + r, cy + -r, cy + r);
        idx = 0;
        for (int dy = -r; dy <= r; ++dy) {
            for (int dx = -r; dx <= r; ++dx, ++idx) {
                const double nx = point.x + d.x + dx;
                const double ny = point.y + d.y + dy;
                const double diff =
                    sample(next, nx, ny, next_inside) - tmpl[idx];
                bx += diff * gx[idx];
                by += diff * gy[idx];
                res += std::fabs(diff);
            }
        }
        residual_out = res / n;
        // Solve the 2x2 normal equations.
        const double ux = -(gyy * bx - gxy * by) * inv_det;
        const double uy = -(-gxy * bx + gxx * by) * inv_det;
        d.x += ux;
        d.y += uy;
        if (std::sqrt(ux * ux + uy * uy) < p.epsilon)
            break;
        // Window out of bounds: fail the track.
        if (point.x + d.x < r + 1 || point.y + d.y < r + 1 ||
            point.x + d.x >= next.width() - r - 1 ||
            point.y + d.y >= next.height() - r - 1)
            return false;
    }
    return true;
}

} // namespace

KltResult
trackPointPyramidal(const ImagePyramid &prev, const ImagePyramid &next,
                    const Vec2 &point, const KltParams &params)
{
    KltResult result;
    const int levels = std::min(prev.levels(), next.levels());

    // Displacement propagated coarse to fine.
    Vec2 d(0.0, 0.0);
    double residual = 1e9;
    for (int level = levels - 1; level >= 0; --level) {
        const double scale = std::pow(2.0, level);
        const Vec2 pt(point.x / scale, point.y / scale);
        if (!trackLevel(prev.level(level), next.level(level), pt, d,
                        residual, params)) {
            return result; // ok = false
        }
        if (level > 0) {
            d.x *= 2.0;
            d.y *= 2.0;
        }
    }

    result.position = point + d;
    result.residual = residual;
    const int r = params.window_radius;
    const bool in_bounds = result.position.x >= r + 1 &&
                           result.position.y >= r + 1 &&
                           result.position.x < next.level(0).width() - r - 1 &&
                           result.position.y < next.level(0).height() - r - 1;
    result.ok = in_bounds && residual <= params.max_residual;
    return result;
}

std::vector<KltResult>
trackPoints(const ImagePyramid &prev, const ImagePyramid &next,
            const std::vector<Vec2> &points, const KltParams &params)
{
    // Serial: per-frame feature batches are tens of points at ~10 us
    // each, below what a kernel-pool launch pays for itself.
    std::vector<KltResult> results;
    results.reserve(points.size());
    for (const Vec2 &p : points)
        results.push_back(trackPointPyramidal(prev, next, p, params));
    return results;
}

} // namespace illixr
