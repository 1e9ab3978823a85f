/**
 * @file
 * The audio pipeline components: encoding and playback, with task
 * timings matching paper Table VII.
 *
 * Encoding: int16 normalization, per-source ambisonic encoding, and
 * HOA soundfield summation. Playback: psychoacoustic filter,
 * pose-driven soundfield rotation, zoom, and binauralization.
 */

#pragma once

#include "audio/ambisonics.hpp"
#include "audio/binaural.hpp"
#include "foundation/pose.hpp"
#include "foundation/profile.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace illixr {

/**
 * A positioned mono sound source with int16 PCM (sensor format). The
 * PCM is immutable and may be shared by any number of encoders.
 */
struct AudioSource
{
    std::shared_ptr<const std::vector<std::int16_t>> pcm;
    Vec3 direction{1.0, 0.0, 0.0}; ///< Ambisonic frame: x fwd, y left.
};

/** Convert a float clip in [-1,1] to int16 PCM. */
std::vector<std::int16_t> toPcm16(const std::vector<double> &clip);

/**
 * Audio encoding component (Table VII: normalization, encoding,
 * summation).
 */
class AudioEncoder
{
  public:
    explicit AudioEncoder(std::size_t block_size);

    /** Add a source; all sources must be at least one block long. */
    void addSource(AudioSource source);

    std::size_t sourceCount() const { return sources_.size(); }
    std::size_t blockSize() const { return blockSize_; }

    /**
     * Encode block @p index (sources loop when exhausted) into an HOA
     * soundfield.
     */
    Soundfield encodeBlock(std::size_t index);

    const TaskProfile &profile() const { return profile_; }
    TaskProfile &profile() { return profile_; }

  private:
    std::size_t blockSize_;
    std::vector<AudioSource> sources_;
    TaskProfile profile_;
};

/**
 * Audio playback component (Table VII: psychoacoustic filter,
 * rotation, zoom, binauralization).
 */
class AudioPlayback
{
  public:
    AudioPlayback(std::size_t block_size, double sample_rate_hz = 48000.0);

    /**
     * Produce one stereo block from a soundfield given the listener's
     * head orientation.
     *
     * @param zoom_amount Forward-zoom control in [-1, 1].
     */
    StereoBlock processBlock(const Soundfield &field,
                             const Quat &head_orientation,
                             double zoom_amount = 0.0);

    std::size_t blockSize() const { return blockSize_; }

    const TaskProfile &profile() const { return profile_; }
    TaskProfile &profile() { return profile_; }

  private:
    std::size_t blockSize_;
    PsychoacousticFilter psycho_;
    Binauralizer binaural_;
    TaskProfile profile_;
};

} // namespace illixr
