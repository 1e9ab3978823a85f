#include "eyetrack/layers.hpp"

#include "foundation/simd.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

namespace illixr {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel_size)
    : inChannels_(in_channels), outChannels_(out_channels),
      kernelSize_(kernel_size),
      weights_(static_cast<std::size_t>(out_channels) * in_channels *
                   kernel_size * kernel_size,
               0.0f),
      bias_(out_channels, 0.0f)
{
    assert(kernel_size == 1 || kernel_size == 3);
}

void
Conv2d::initializeHe(Rng &rng)
{
    const double fan_in =
        static_cast<double>(inChannels_) * kernelSize_ * kernelSize_;
    const double stddev = std::sqrt(2.0 / fan_in);
    for (float &w : weights_)
        w = static_cast<float>(rng.gaussian(0.0, stddev));
    for (float &b : bias_)
        b = 0.0f;
}

float &
Conv2d::weight(int oc, int ic, int ky, int kx)
{
    return weights_[((static_cast<std::size_t>(oc) * inChannels_ + ic) *
                         kernelSize_ +
                     ky) *
                        kernelSize_ +
                    kx];
}

float
Conv2d::weight(int oc, int ic, int ky, int kx) const
{
    return weights_[((static_cast<std::size_t>(oc) * inChannels_ + ic) *
                         kernelSize_ +
                     ky) *
                        kernelSize_ +
                    kx];
}

Tensor
Conv2d::forward(const Tensor &input) const
{
    assert(input.channels() == inChannels_);
    const int h = input.height();
    const int w = input.width();
    const int k = kernelSize_;
    const int pad = k / 2;
    Tensor out(outChannels_, h, w);

    // NCHWc blocked-channel layout (DESIGN.md "SIMD & data layout"):
    // 8 output channels ride one Vec<float, 8> lane set, weights are
    // packed [ic][ky][kx][8] per block, and the input is repacked
    // once into zero-padded planes so the inner loop is a pure
    // broadcast * packed-load madd chain, 4 output pixels at a time.
    // Per lane the accumulation is bias then ic->ky->kx serial — the
    // exact op sequence of the scalar original, so results are
    // bit-identical to it (and across backends). Leftover channels
    // (< 8) take the original scalar path.
    constexpr int kBlock = 8;
    const int blocks = outChannels_ / kBlock;
    const int ph = h + 2 * pad;
    const int pw = w + 2 * pad;

    const float *src = input.data();
    const float *padded = src;
    std::vector<float> pbuf;
    if (pad > 0) {
        const std::size_t plane =
            static_cast<std::size_t>(ph) * static_cast<std::size_t>(pw);
        pbuf.assign(static_cast<std::size_t>(inChannels_) * plane, 0.0f);
        for (int ic = 0; ic < inChannels_; ++ic)
            for (int y = 0; y < h; ++y)
                std::memcpy(pbuf.data() + ic * plane +
                                (static_cast<std::size_t>(y) + pad) * pw +
                                pad,
                            src + (static_cast<std::size_t>(ic) * h + y) *
                                      w,
                            static_cast<std::size_t>(w) * sizeof(float));
        padded = pbuf.data();
    }
    const int src_ph = pad > 0 ? ph : h;
    const int src_pw = pad > 0 ? pw : w;

    using simd::VecF8;
    std::vector<float> wp(static_cast<std::size_t>(inChannels_) * k * k *
                          kBlock);
    std::vector<float> orow(static_cast<std::size_t>(w) * kBlock);
    for (int blk = 0; blk < blocks; ++blk) {
        const int oc0 = blk * kBlock;
        for (int ic = 0; ic < inChannels_; ++ic)
            for (int ky = 0; ky < k; ++ky)
                for (int kx = 0; kx < k; ++kx)
                    for (int l = 0; l < kBlock; ++l)
                        wp[(((static_cast<std::size_t>(ic) * k + ky) * k +
                             kx) *
                            kBlock) +
                           l] = weight(oc0 + l, ic, ky, kx);
        alignas(32) float bias8[kBlock];
        for (int l = 0; l < kBlock; ++l)
            bias8[l] = bias_[oc0 + l];
        const VecF8 bias_v = VecF8::load(bias8);

        for (int y = 0; y < h; ++y) {
            // 4 output pixels per step, in 4 independent accumulators
            // that share each packed weight load; the x tail runs one
            // pixel at a time.
            int x = 0;
            for (; x + 4 <= w; x += 4) {
                VecF8 acc0 = bias_v, acc1 = bias_v, acc2 = bias_v,
                      acc3 = bias_v;
                const float *wq = wp.data();
                for (int ic = 0; ic < inChannels_; ++ic) {
                    const float *plane =
                        padded + static_cast<std::size_t>(ic) * src_ph *
                                     src_pw;
                    for (int ky = 0; ky < k; ++ky) {
                        const float *row =
                            plane +
                            static_cast<std::size_t>(y + ky) * src_pw + x;
                        for (int kx = 0; kx < k; ++kx) {
                            const VecF8 wv = VecF8::load(wq);
                            acc0 = simd::madd(
                                acc0, VecF8::broadcast(row[kx]), wv);
                            acc1 = simd::madd(
                                acc1, VecF8::broadcast(row[kx + 1]), wv);
                            acc2 = simd::madd(
                                acc2, VecF8::broadcast(row[kx + 2]), wv);
                            acc3 = simd::madd(
                                acc3, VecF8::broadcast(row[kx + 3]), wv);
                            wq += kBlock;
                        }
                    }
                }
                float *o = orow.data() + static_cast<std::size_t>(x) * kBlock;
                acc0.store(o);
                acc1.store(o + kBlock);
                acc2.store(o + 2 * kBlock);
                acc3.store(o + 3 * kBlock);
            }
            for (; x < w; ++x) {
                VecF8 acc = bias_v;
                const float *wq = wp.data();
                for (int ic = 0; ic < inChannels_; ++ic) {
                    const float *plane =
                        padded + static_cast<std::size_t>(ic) * src_ph *
                                     src_pw;
                    for (int ky = 0; ky < k; ++ky) {
                        const float *row =
                            plane +
                            static_cast<std::size_t>(y + ky) * src_pw + x;
                        for (int kx = 0; kx < k; ++kx) {
                            acc = simd::madd(acc,
                                             VecF8::broadcast(row[kx]),
                                             VecF8::load(wq));
                            wq += kBlock;
                        }
                    }
                }
                acc.store(orow.data() + static_cast<std::size_t>(x) * kBlock);
            }
            for (int l = 0; l < kBlock; ++l) {
                float *dst = out.data() +
                             (static_cast<std::size_t>(oc0 + l) * h + y) *
                                 w;
                for (int x = 0; x < w; ++x)
                    dst[x] = orow[static_cast<std::size_t>(x) * kBlock + l];
            }
        }
    }

    // Channel tail: original scalar path, untouched.
    for (int oc = blocks * kBlock; oc < outChannels_; ++oc) {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                float acc = bias_[oc];
                for (int ic = 0; ic < inChannels_; ++ic)
                    for (int ky = 0; ky < k; ++ky)
                        for (int kx = 0; kx < k; ++kx)
                            acc += weight(oc, ic, ky, kx) *
                                   input.atPadded(ic, y + ky - pad,
                                                  x + kx - pad);
                out.at(oc, y, x) = acc;
            }
        }
    }
    return out;
}

std::size_t
Conv2d::macCount(int height, int width) const
{
    return static_cast<std::size_t>(height) * width * outChannels_ *
           inChannels_ * kernelSize_ * kernelSize_;
}

BatchNorm::BatchNorm(int channels)
    : scale_(channels, 1.0f), shift_(channels, 0.0f)
{
}

void
BatchNorm::initialize(Rng &rng)
{
    for (float &s : scale_)
        s = static_cast<float>(rng.uniform(0.8, 1.2));
    for (float &s : shift_)
        s = static_cast<float>(rng.uniform(-0.05, 0.05));
}

Tensor
BatchNorm::forward(const Tensor &input) const
{
    assert(static_cast<std::size_t>(input.channels()) == scale_.size());
    Tensor out(input.channels(), input.height(), input.width());
    using simd::VecF8;
    const std::size_t plane = static_cast<std::size_t>(input.height()) *
                              input.width();
    for (int c = 0; c < input.channels(); ++c) {
        const float *src = input.data() + c * plane;
        float *dst = out.data() + c * plane;
        const VecF8 s = VecF8::broadcast(scale_[c]);
        const VecF8 b = VecF8::broadcast(shift_[c]);
        std::size_t i = 0;
        for (; i + 8 <= plane; i += 8)
            simd::madd(b, s, VecF8::load(src + i)).store(dst + i);
        for (; i < plane; ++i)
            dst[i] = scale_[c] * src[i] + shift_[c];
    }
    return out;
}

void
relu(Tensor &t)
{
    using simd::VecF8;
    float *d = t.data();
    const std::size_t n = t.size();
    const VecF8 zero = VecF8::zero();
    std::size_t i = 0;
    // vmax(v, 0) is exactly (v > 0) ? v : 0 per lane.
    for (; i + 8 <= n; i += 8)
        simd::vmax(VecF8::load(d + i), zero).store(d + i);
    for (; i < n; ++i)
        d[i] = d[i] > 0.0f ? d[i] : 0.0f;
}

Tensor
maxPool2(const Tensor &input)
{
    const int h = input.height() / 2;
    const int w = input.width() / 2;
    Tensor out(input.channels(), h, w);
    for (int c = 0; c < input.channels(); ++c) {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                const float a = input.at(c, 2 * y, 2 * x);
                const float b = input.at(c, 2 * y, 2 * x + 1);
                const float d = input.at(c, 2 * y + 1, 2 * x);
                const float e = input.at(c, 2 * y + 1, 2 * x + 1);
                out.at(c, y, x) = std::max(std::max(a, b), std::max(d, e));
            }
        }
    }
    return out;
}

Tensor
upsample2(const Tensor &input)
{
    Tensor out(input.channels(), input.height() * 2, input.width() * 2);
    for (int c = 0; c < input.channels(); ++c) {
        for (int y = 0; y < out.height(); ++y)
            for (int x = 0; x < out.width(); ++x)
                out.at(c, y, x) = input.at(c, y / 2, x / 2);
    }
    return out;
}

Tensor
concatChannels(const Tensor &a, const Tensor &b)
{
    assert(a.height() == b.height() && a.width() == b.width());
    Tensor out(a.channels() + b.channels(), a.height(), a.width());
    for (int c = 0; c < a.channels(); ++c)
        for (int y = 0; y < a.height(); ++y)
            for (int x = 0; x < a.width(); ++x)
                out.at(c, y, x) = a.at(c, y, x);
    for (int c = 0; c < b.channels(); ++c)
        for (int y = 0; y < a.height(); ++y)
            for (int x = 0; x < a.width(); ++x)
                out.at(a.channels() + c, y, x) = b.at(c, y, x);
    return out;
}

Tensor
softmaxChannels(const Tensor &logits)
{
    Tensor out(logits.channels(), logits.height(), logits.width());
    for (int y = 0; y < logits.height(); ++y) {
        for (int x = 0; x < logits.width(); ++x) {
            float max_logit = logits.at(0, y, x);
            for (int c = 1; c < logits.channels(); ++c)
                max_logit = std::max(max_logit, logits.at(c, y, x));
            float sum = 0.0f;
            for (int c = 0; c < logits.channels(); ++c) {
                const float e = std::exp(logits.at(c, y, x) - max_logit);
                out.at(c, y, x) = e;
                sum += e;
            }
            for (int c = 0; c < logits.channels(); ++c)
                out.at(c, y, x) /= sum;
        }
    }
    return out;
}

} // namespace illixr
