#include "audio/binaural.hpp"

#include "foundation/simd.hpp"

#include <cassert>
#include <cmath>

namespace illixr {

namespace {
/** Channels covered by the psychoacoustic filter: degrees 0 and 1. */
constexpr int kPsychoChannels = 4;
} // namespace

void
synthesizeHrir(const Vec3 &direction, double sample_rate_hz,
               std::size_t length, std::vector<double> &left,
               std::vector<double> &right)
{
    left.assign(length, 0.0);
    right.assign(length, 0.0);
    const Vec3 d = direction.normalized();

    // Interaural time difference (Woodworth): head radius ~8.75 cm.
    // Left ear at -y, right ear at +y in the ambisonic frame
    // (x forward, y left, z up) -> positive d.y means source on the
    // LEFT, reaching the left ear first.
    constexpr double head_radius = 0.0875;
    constexpr double speed_of_sound = 343.0;
    const double azimuth_sin = d.y; // Lateral component.
    const double itd =
        head_radius / speed_of_sound *
        (std::asin(std::max(-1.0, std::min(1.0, azimuth_sin))) +
         azimuth_sin);

    const double delay_left =
        0.5e-3 + (itd < 0.0 ? -itd : 0.0); // Contralateral delay.
    const double delay_right = 0.5e-3 + (itd > 0.0 ? itd : 0.0);

    // Head shadow: the far ear receives a low-passed, attenuated
    // signal. Model each ear as delayed impulse + exponential decay
    // whose time constant grows with shadowing.
    auto build = [&](std::vector<double> &h, double delay_s,
                     double shadow) {
        const double gain = 1.0 - 0.45 * shadow;
        const auto delay_taps = static_cast<std::size_t>(
            delay_s * sample_rate_hz);
        const double decay = 0.25 + 0.55 * shadow; // Smoothing factor.
        double state = 0.0;
        for (std::size_t i = 0; i < length; ++i) {
            const double impulse =
                (i == delay_taps) ? gain : 0.0;
            state = decay * state + (1.0 - decay) * impulse;
            // Direct + diffused tail.
            h[i] = (1.0 - shadow * 0.65) * impulse + shadow * state;
        }
    };
    const double shadow_left = std::max(0.0, -azimuth_sin);
    const double shadow_right = std::max(0.0, azimuth_sin);
    build(left, delay_left, shadow_left);
    build(right, delay_right, shadow_right);
}

std::array<Vec3, Binauralizer::kSpeakers>
Binauralizer::speakerDirections()
{
    const double inv = 1.0 / std::sqrt(3.0);
    std::array<Vec3, kSpeakers> dirs;
    int i = 0;
    for (int sx = -1; sx <= 1; sx += 2)
        for (int sy = -1; sy <= 1; sy += 2)
            for (int sz = -1; sz <= 1; sz += 2)
                dirs[i++] = Vec3(sx * inv, sy * inv, sz * inv);
    return dirs;
}

Binauralizer::Binauralizer(std::size_t block_size, double sample_rate_hz)
    : blockSize_(block_size)
{
    constexpr std::size_t hrir_len = 64;
    fftSize_ = nextPowerOfTwo(block_size + hrir_len - 1);

    const auto dirs = speakerDirections();
    for (int c = 0; c < kAmbisonicChannels; ++c) {
        filterLeft_[c].assign(fftSize_, Complex(0.0, 0.0));
        filterRight_[c].assign(fftSize_, Complex(0.0, 0.0));
    }

    // Fold the projection decode (gain = Y_c(speaker) / N) and the
    // per-speaker HRIRs into per-(channel, ear) time-domain filters,
    // then transform them once.
    std::array<std::vector<double>, kAmbisonicChannels> time_left;
    std::array<std::vector<double>, kAmbisonicChannels> time_right;
    for (int c = 0; c < kAmbisonicChannels; ++c) {
        time_left[c].assign(hrir_len, 0.0);
        time_right[c].assign(hrir_len, 0.0);
    }
    for (int s = 0; s < kSpeakers; ++s) {
        std::vector<double> hl, hr;
        synthesizeHrir(dirs[s], sample_rate_hz, hrir_len, hl, hr);
        const auto y = shEvaluate(dirs[s]);
        for (int c = 0; c < kAmbisonicChannels; ++c) {
            const double g = y[c] / kSpeakers;
            for (std::size_t i = 0; i < hrir_len; ++i) {
                time_left[c][i] += g * hl[i];
                time_right[c][i] += g * hr[i];
            }
        }
    }
    for (int c = 0; c < kAmbisonicChannels; ++c) {
        for (std::size_t i = 0; i < hrir_len; ++i) {
            filterLeft_[c][i] = Complex(time_left[c][i], 0.0);
            filterRight_[c][i] = Complex(time_right[c][i], 0.0);
        }
        fft(filterLeft_[c], false);
        fft(filterRight_[c], false);
    }

    overlapLeft_.assign(fftSize_ - block_size, 0.0);
    overlapRight_.assign(fftSize_ - block_size, 0.0);
}

StereoBlock
Binauralizer::process(const Soundfield &field)
{
    assert(field.block_size == blockSize_);

    std::vector<Complex> acc_left(fftSize_, Complex(0.0, 0.0));
    std::vector<Complex> acc_right(fftSize_, Complex(0.0, 0.0));

    // Per channel: one shared forward transform, then the spectral FIR
    // products accumulate in fixed channel order per bin. Two complex
    // bins ride one Vec<double, 4>; complexMul matches std::complex
    // bit-for-bit (fftSize_ is a power of two >= 2, so there is no odd
    // tail).
    using simd::VecD4;
    std::vector<Complex> buf(fftSize_);
    double *al = reinterpret_cast<double *>(acc_left.data());
    double *ar = reinterpret_cast<double *>(acc_right.data());
    for (int c = 0; c < kAmbisonicChannels; ++c) {
        for (std::size_t i = 0; i < blockSize_; ++i)
            buf[i] = Complex(field.channels[c][i], 0.0);
        for (std::size_t i = blockSize_; i < fftSize_; ++i)
            buf[i] = Complex(0.0, 0.0);
        fft(buf, false);
        const double *b = reinterpret_cast<const double *>(buf.data());
        const double *fl =
            reinterpret_cast<const double *>(filterLeft_[c].data());
        const double *fr =
            reinterpret_cast<const double *>(filterRight_[c].data());
        for (std::size_t i = 0; i + 2 <= fftSize_; i += 2) {
            const VecD4 s = VecD4::load(b + 2 * i);
            (VecD4::load(al + 2 * i) +
             simd::complexMul(s, VecD4::load(fl + 2 * i)))
                .store(al + 2 * i);
            (VecD4::load(ar + 2 * i) +
             simd::complexMul(s, VecD4::load(fr + 2 * i)))
                .store(ar + 2 * i);
        }
    }
    fft(acc_left, true);
    fft(acc_right, true);

    StereoBlock out;
    out.left.assign(blockSize_, 0.0);
    out.right.assign(blockSize_, 0.0);
    for (std::size_t i = 0; i < blockSize_; ++i) {
        out.left[i] = acc_left[i].real() +
                      (i < overlapLeft_.size() ? overlapLeft_[i] : 0.0);
        out.right[i] =
            acc_right[i].real() +
            (i < overlapRight_.size() ? overlapRight_[i] : 0.0);
    }
    // Carry the convolution tails.
    const std::size_t tail = fftSize_ - blockSize_;
    std::vector<double> next_left(tail, 0.0), next_right(tail, 0.0);
    for (std::size_t i = 0; i < tail; ++i) {
        next_left[i] = acc_left[blockSize_ + i].real() +
                       (blockSize_ + i < overlapLeft_.size()
                            ? overlapLeft_[blockSize_ + i]
                            : 0.0);
        next_right[i] = acc_right[blockSize_ + i].real() +
                        (blockSize_ + i < overlapRight_.size()
                             ? overlapRight_[blockSize_ + i]
                             : 0.0);
    }
    overlapLeft_ = std::move(next_left);
    overlapRight_ = std::move(next_right);
    return out;
}

PsychoacousticFilter::PsychoacousticFilter(std::size_t block_size,
                                           double sample_rate_hz)
    : blockSize_(block_size)
{
    // Loudness-style equalizer: gentle low-shelf cut and presence
    // boost built as a 48-tap FIR via frequency sampling.
    const std::size_t taps = 48;
    const std::size_t nfft = 128;
    std::vector<Complex> response(nfft);
    for (std::size_t k = 0; k < nfft; ++k) {
        const double f =
            (k <= nfft / 2 ? k : nfft - k) * sample_rate_hz /
            static_cast<double>(nfft);
        // Equal-loudness-inspired: mild bass cut, 2-5 kHz emphasis.
        double gain = 1.0;
        if (f < 250.0)
            gain = 0.7 + 0.3 * (f / 250.0);
        else if (f > 2000.0 && f < 5000.0)
            gain = 1.2;
        else if (f > 12000.0)
            gain = 0.85;
        response[k] = Complex(gain, 0.0);
    }
    fft(response, true); // Back to time domain.
    std::vector<double> fir(taps);
    // Window the (circularly shifted) impulse response.
    const auto window = hannWindow(taps);
    for (std::size_t i = 0; i < taps; ++i) {
        const std::size_t src =
            (nfft - taps / 2 + i) % nfft; // Center the linear phase.
        fir[i] = response[src].real() * window[i];
    }
    // The optimization filter is applied to the omni and first-order
    // channels (the perceptually dominant ones); filtering the full
    // second-order set doubles the cost for marginal audible benefit.
    for (int c = 0; c < kPsychoChannels; ++c) {
        filters_.push_back(
            std::make_unique<FrequencyDomainFilter>(fir, block_size));
    }
}

void
PsychoacousticFilter::process(Soundfield &field)
{
    assert(field.block_size == blockSize_);
    for (int c = 0; c < kPsychoChannels; ++c)
        field.channels[c] = filters_[c]->process(field.channels[c]);
}

} // namespace illixr
