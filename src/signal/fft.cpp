#include "signal/fft.hpp"

#include "foundation/simd.hpp"

#include <cassert>
#include <cmath>
#include <map>
#include <utility>

namespace illixr {

bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

std::size_t
nextPowerOfTwo(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

namespace {

// Per-size plan, built once per thread: the bit-reversal permutation
// as its list of (i, j) swaps, and the stage-contiguous twiddle
// tables. The per-size master table (twiddles[k] = cis(-2*pi*k/n)) is
// expanded into one contiguous run per stage — values copied, so they
// are exactly the `twiddles[k * stride]` lookups — with forward and
// inverse (conjugated) variants built separately to hoist the
// per-butterfly conj branch.
struct FftPlan
{
    std::size_t n = 0;
    std::vector<std::pair<std::size_t, std::size_t>> swaps;
    std::vector<Complex> fwd, inv; // n - 1 entries, stage-major.
};

const FftPlan &
planFor(std::size_t n)
{
    static thread_local std::map<std::size_t, FftPlan> cache;
    // Runs of calls share one size (fft2d rows and columns, audio
    // blocks), so the previous call's plan is tried before the map.
    static thread_local const FftPlan *last = nullptr;
    if (last != nullptr && last->n == n)
        return *last;
    FftPlan &plan = cache[n];
    if (plan.n != n) {
        for (std::size_t i = 1, j = 0; i < n; ++i) {
            std::size_t bit = n >> 1;
            for (; j & bit; bit >>= 1)
                j ^= bit;
            j ^= bit;
            if (i < j)
                plan.swaps.emplace_back(i, j);
        }
        std::vector<Complex> master(n / 2);
        for (std::size_t k = 0; k < n / 2; ++k) {
            const double angle = -2.0 * M_PI * static_cast<double>(k) /
                                 static_cast<double>(n);
            master[k] = Complex(std::cos(angle), std::sin(angle));
        }
        plan.fwd.resize(n - 1);
        plan.inv.resize(n - 1);
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const std::size_t stride = n / len;
            const std::size_t off = len / 2 - 1;
            for (std::size_t k = 0; k < len / 2; ++k) {
                plan.fwd[off + k] = master[k * stride];
                plan.inv[off + k] = std::conj(master[k * stride]);
            }
        }
        plan.n = n;
    }
    last = &plan;
    return plan;
}

// In-place radix-2 FFT of n contiguous values. Danielson–Lanczos
// butterflies with len >= 4 run two complex butterflies per
// Vec<double, 4> (interleaved re, im); complexMul performs the exact
// std::complex operation sequence, so the transform is bit-identical
// to the scalar original on every backend.
void
fftInPlace(Complex *data, std::size_t n, bool inverse)
{
    assert(isPowerOfTwo(n));
    const FftPlan &plan = planFor(n);
    for (const auto &[i, j] : plan.swaps)
        std::swap(data[i], data[j]);

    const Complex *stage_tw = inverse ? plan.inv.data() : plan.fwd.data();
    double *raw = reinterpret_cast<double *>(data);
    using simd::VecD4;
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const Complex *tw = stage_tw + (half - 1);
        if (half < 2) {
            // len == 2: w = (1, 0); keep the scalar generic multiply.
            for (std::size_t i = 0; i < n; i += len) {
                const Complex even = data[i];
                const Complex odd = data[i + 1] * tw[0];
                data[i] = even + odd;
                data[i + 1] = even - odd;
            }
            continue;
        }
        const double *tw_raw = reinterpret_cast<const double *>(tw);
        for (std::size_t i = 0; i < n; i += len) {
            double *even_p = raw + 2 * i;
            double *odd_p = raw + 2 * (i + half);
            for (std::size_t k = 0; k < half; k += 2) {
                const VecD4 even = VecD4::load(even_p + 2 * k);
                const VecD4 odd = simd::complexMul(
                    VecD4::load(odd_p + 2 * k),
                    VecD4::load(tw_raw + 2 * k));
                (even + odd).store(even_p + 2 * k);
                (even - odd).store(odd_p + 2 * k);
            }
        }
    }

    if (inverse) {
        const VecD4 scale =
            VecD4::broadcast(1.0 / static_cast<double>(n));
        std::size_t i = 0;
        for (; i + 2 <= n; i += 2)
            (VecD4::load(raw + 2 * i) * scale).store(raw + 2 * i);
        for (; i < n; ++i)
            data[i] *= 1.0 / static_cast<double>(n);
    }
}

} // namespace

void
fft(std::vector<Complex> &data, bool inverse)
{
    fftInPlace(data.data(), data.size(), inverse);
}

std::vector<Complex>
fftReal(const std::vector<double> &signal)
{
    std::vector<Complex> data(signal.size());
    for (std::size_t i = 0; i < signal.size(); ++i)
        data[i] = Complex(signal[i], 0.0);
    fft(data, false);
    return data;
}

std::vector<double>
ifftToReal(std::vector<Complex> spectrum)
{
    fft(spectrum, true);
    std::vector<double> out(spectrum.size());
    for (std::size_t i = 0; i < spectrum.size(); ++i)
        out[i] = spectrum[i].real();
    return out;
}

void
fft2d(std::vector<Complex> &grid, std::size_t width, std::size_t height,
      bool inverse)
{
    assert(grid.size() == width * height);
    assert(isPowerOfTwo(width) && isPowerOfTwo(height));

    // Rows are contiguous: transform them in place. Columns are
    // gathered through one staging buffer.
    for (std::size_t y = 0; y < height; ++y)
        fftInPlace(grid.data() + y * width, width, inverse);
    std::vector<Complex> col(height);
    for (std::size_t x = 0; x < width; ++x) {
        for (std::size_t y = 0; y < height; ++y)
            col[y] = grid[y * width + x];
        fftInPlace(col.data(), height, inverse);
        for (std::size_t y = 0; y < height; ++y)
            grid[y * width + x] = col[y];
    }
}

std::vector<double>
hannWindow(std::size_t n)
{
    std::vector<double> w(n);
    if (n == 1) {
        w[0] = 1.0;
        return w;
    }
    for (std::size_t i = 0; i < n; ++i) {
        w[i] = 0.5 *
               (1.0 - std::cos(2.0 * M_PI * static_cast<double>(i) /
                               static_cast<double>(n - 1)));
    }
    return w;
}

} // namespace illixr
