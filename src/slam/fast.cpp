#include "slam/fast.hpp"

#include "foundation/simd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

namespace illixr {

namespace {

/** Bresenham circle of radius 3 (the 16 FAST offsets, clockwise). */
constexpr int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},  {2, 2},  {1, 3},
    {0, 3},  {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};

/**
 * Classify pixel (x, y); returns the corner score (> 0) when it is a
 * corner, else 0.
 */
float
cornerScore(const ImageF &img, int x, int y, const FastParams &p)
{
    const float center = img.at(x, y);
    const float hi = center + p.threshold;
    const float lo = center - p.threshold;

    // States per arc pixel: +1 brighter, -1 darker, 0 similar.
    int state[16];
    int n_bright = 0, n_dark = 0;
    for (int i = 0; i < 16; ++i) {
        const float v = img.at(x + kCircle[i][0], y + kCircle[i][1]);
        if (v > hi) {
            state[i] = 1;
            ++n_bright;
        } else if (v < lo) {
            state[i] = -1;
            ++n_dark;
        } else {
            state[i] = 0;
        }
    }
    // Quick reject: need at least min_contiguous of one polarity.
    if (n_bright < p.min_contiguous && n_dark < p.min_contiguous)
        return 0.0f;

    // Longest contiguous run (wrapping) of each polarity.
    auto longest_run = [&state](int polarity) {
        int best = 0, run = 0;
        for (int i = 0; i < 32; ++i) { // Doubled for wraparound.
            if (state[i & 15] == polarity) {
                ++run;
                best = std::max(best, run);
                if (best >= 16)
                    break;
            } else {
                run = 0;
            }
        }
        return std::min(best, 16);
    };

    const bool is_corner = longest_run(1) >= p.min_contiguous ||
                           longest_run(-1) >= p.min_contiguous;
    if (!is_corner)
        return 0.0f;

    // Score: total absolute contrast beyond the threshold on the arc.
    float score = 0.0f;
    for (int i = 0; i < 16; ++i) {
        const float v = img.at(x + kCircle[i][0], y + kCircle[i][1]);
        const float d = std::fabs(v - center);
        if (d > p.threshold)
            score += d - p.threshold;
    }
    return score;
}

} // namespace

std::vector<Corner>
detectFast(const ImageF &image, const FastParams &params)
{
    const int w = image.width();
    const int h = image.height();
    const int border = std::max(params.border, 3);

    if (h - border <= border || w - border <= border)
        return {};

    // Score map for non-maximum suppression.
    std::vector<float> scores(static_cast<std::size_t>(w) * h, 0.0f);
    auto score_at = [&](int x, int y) -> float & {
        return scores[static_cast<std::size_t>(y) * w + x];
    };

    // Row-vectorized scoring (DESIGN.md "SIMD & data layout"): the
    // quick-reject test (count arc pixels beyond center +- threshold,
    // compare against min_contiguous) runs 8 candidate centers at a
    // time; only surviving lanes pay for the full scalar cornerScore,
    // whose result — and therefore the whole corner list — is
    // bit-identical to the pre-SIMD detector. Full 8-wide blocks read
    // at most x + 10 < w in-row (xb <= w - border - 8 and the circle
    // radius is 3); the x tail stays scalar.
    const float *img_data = image.data();
    {
        using simd::VecF8;
        const VecF8 thr = VecF8::broadcast(params.threshold);
        const VecF8 min_run = VecF8::broadcast(
            static_cast<float>(params.min_contiguous));
        const VecF8 one = VecF8::broadcast(1.0f);
        for (int y = border; y < h - border; ++y) {
            const float *row = img_data + static_cast<std::size_t>(y) * w;
            int x = border;
            for (; x + 8 <= w - border; x += 8) {
                const VecF8 center = VecF8::load(row + x);
                const VecF8 hi = center + thr;
                const VecF8 lo = center - thr;
                VecF8 n_bright = VecF8::zero();
                VecF8 n_dark = VecF8::zero();
                for (const auto &off : kCircle) {
                    const VecF8 v = VecF8::load(
                        img_data +
                        static_cast<std::size_t>(y + off[1]) * w + x +
                        off[0]);
                    n_bright = n_bright +
                               simd::bitAnd(simd::cmpGT(v, hi), one);
                    n_dark = n_dark +
                             simd::bitAnd(simd::cmpLT(v, lo), one);
                }
                const VecF8 candidate =
                    simd::bitOr(simd::cmpGE(n_bright, min_run),
                                simd::cmpGE(n_dark, min_run));
                int bits = simd::maskBits(candidate);
                while (bits) {
                    const int l = std::countr_zero(
                        static_cast<unsigned>(bits));
                    bits &= bits - 1;
                    score_at(x + l, y) =
                        cornerScore(image, x + l, y, params);
                }
            }
            for (; x < w - border; ++x)
                score_at(x, y) = cornerScore(image, x, y, params);
        }
    }

    // NMS over the fully materialized score map, in y-major scan order.
    std::vector<Corner> corners;
    for (int y = border; y < h - border; ++y) {
        for (int x = border; x < w - border; ++x) {
            const float s = score_at(x, y);
            if (s <= 0.0f)
                continue;
            bool is_max = true;
            for (int dy = -1; dy <= 1 && is_max; ++dy)
                for (int dx = -1; dx <= 1; ++dx) {
                    const int nx = std::clamp(x + dx, 0, w - 1);
                    const int ny = std::clamp(y + dy, 0, h - 1);
                    if ((dx || dy) && score_at(nx, ny) > s) {
                        is_max = false;
                        break;
                    }
                }
            if (is_max)
                corners.push_back({Vec2(x, y), s});
        }
    }
    return corners;
}

std::vector<Corner>
detectFastGrid(const ImageF &image, int grid_x, int grid_y,
               int max_per_cell, const std::vector<Vec2> &occupied,
               const FastParams &params)
{
    const auto all = detectFast(image, params);
    const double cell_w =
        static_cast<double>(image.width()) / static_cast<double>(grid_x);
    const double cell_h =
        static_cast<double>(image.height()) / static_cast<double>(grid_y);

    auto cell_of = [&](const Vec2 &p) {
        const int cx = std::clamp(static_cast<int>(p.x / cell_w), 0,
                                  grid_x - 1);
        const int cy = std::clamp(static_cast<int>(p.y / cell_h), 0,
                                  grid_y - 1);
        return cy * grid_x + cx;
    };

    std::vector<int> occupancy(static_cast<std::size_t>(grid_x) * grid_y,
                               0);
    for (const Vec2 &p : occupied)
        ++occupancy[cell_of(p)];

    // Best corners first.
    std::vector<Corner> sorted = all;
    std::sort(sorted.begin(), sorted.end(),
              [](const Corner &a, const Corner &b) {
                  return a.score > b.score;
              });

    std::vector<Corner> selected;
    for (const Corner &c : sorted) {
        int &count = occupancy[cell_of(c.position)];
        if (count >= max_per_cell)
            continue;
        ++count;
        selected.push_back(c);
    }
    return selected;
}

} // namespace illixr
