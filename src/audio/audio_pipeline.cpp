#include "audio/audio_pipeline.hpp"

#include <algorithm>
#include <cmath>

namespace illixr {

std::vector<std::int16_t>
toPcm16(const std::vector<double> &clip)
{
    std::vector<std::int16_t> out(clip.size());
    for (std::size_t i = 0; i < clip.size(); ++i) {
        const double v = std::clamp(clip[i], -1.0, 1.0);
        out[i] = static_cast<std::int16_t>(std::lround(v * 32767.0));
    }
    return out;
}

AudioEncoder::AudioEncoder(std::size_t block_size)
    : blockSize_(block_size)
{
}

void
AudioEncoder::addSource(AudioSource source)
{
    sources_.push_back(std::move(source));
}

Soundfield
AudioEncoder::encodeBlock(std::size_t index)
{
    Soundfield field(blockSize_);
    std::vector<double> mono(blockSize_);

    for (const AudioSource &src : sources_) {
        // --- Normalization: INT16 -> FP. ---
        {
            ScopedTask timer(profile_, "normalization");
            const std::size_t n = src.pcm->size();
            std::size_t s = (index * blockSize_) % n;
            for (std::size_t i = 0; i < blockSize_; ++i) {
                mono[i] = static_cast<double>((*src.pcm)[s]) / 32768.0;
                if (++s == n)
                    s = 0;
            }
        }
        // --- Encoding: sample-to-soundfield mapping. ---
        Soundfield encoded(blockSize_);
        {
            ScopedTask timer(profile_, "encoding");
            encodeSource(mono, src.direction, encoded);
        }
        // --- Summation: accumulate into the HOA soundfield. ---
        {
            ScopedTask timer(profile_, "summation");
            field.add(encoded);
        }
    }
    return field;
}

AudioPlayback::AudioPlayback(std::size_t block_size, double sample_rate_hz)
    : blockSize_(block_size), psycho_(block_size, sample_rate_hz),
      binaural_(block_size, sample_rate_hz)
{
}

StereoBlock
AudioPlayback::processBlock(const Soundfield &field,
                            const Quat &head_orientation,
                            double zoom_amount)
{
    Soundfield working = field;

    // --- Psychoacoustic optimization filter. ---
    {
        ScopedTask timer(profile_, "psychoacoustic_filter");
        psycho_.process(working);
    }
    // --- Rotation: counter-rotate by the head orientation. ---
    {
        ScopedTask timer(profile_, "rotation");
        SoundfieldRotator rotator(head_orientation.conjugate());
        rotator.apply(working);
    }
    // --- Zoom. ---
    {
        ScopedTask timer(profile_, "zoom");
        zoomSoundfield(working, zoom_amount);
    }
    // --- Binauralization. ---
    StereoBlock out;
    {
        ScopedTask timer(profile_, "binauralization");
        out = binaural_.process(working);
    }
    return out;
}

} // namespace illixr
