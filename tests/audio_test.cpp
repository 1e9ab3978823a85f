/**
 * @file
 * Unit tests for the audio pipeline: spherical harmonics, ambisonic
 * encoding, soundfield rotation/zoom, HRTFs, binauralization, and the
 * encoder/playback components.
 */

#include "audio/ambisonics.hpp"
#include "audio/audio_pipeline.hpp"
#include "audio/binaural.hpp"
#include "audio/clips.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace illixr {
namespace {

double
rms(const std::vector<double> &x)
{
    double acc = 0.0;
    for (double v : x)
        acc += v * v;
    return std::sqrt(acc / x.size());
}

TEST(ShTest, OmniChannelIsConstant)
{
    for (const Vec3 &d : {Vec3(1, 0, 0), Vec3(0, 1, 0),
                          Vec3(0.5, -0.5, 0.7)}) {
        const auto y = shEvaluate(d);
        EXPECT_DOUBLE_EQ(y[0], 1.0);
    }
}

TEST(ShTest, FirstOrderMatchesDirection)
{
    const Vec3 d = Vec3(0.3, -0.8, 0.5).normalized();
    const auto y = shEvaluate(d);
    EXPECT_NEAR(y[1], d.y, 1e-12);
    EXPECT_NEAR(y[2], d.z, 1e-12);
    EXPECT_NEAR(y[3], d.x, 1e-12);
}

TEST(ShTest, SecondOrderValuesAtAxes)
{
    const auto yx = shEvaluate(Vec3(1, 0, 0));
    EXPECT_NEAR(yx[6], -0.5, 1e-12);              // (3z^2-1)/2 at z=0.
    EXPECT_NEAR(yx[8], std::sqrt(3.0) / 2, 1e-12); // (x^2-y^2).
    const auto yz = shEvaluate(Vec3(0, 0, 1));
    EXPECT_NEAR(yz[6], 1.0, 1e-12);
    EXPECT_NEAR(yz[4], 0.0, 1e-12);
}

TEST(EncodeTest, SourceEnergyScalesWithShGains)
{
    const std::size_t block = 256;
    const auto mono = synthesizeClip(ClipKind::Tone, block, 48000.0);
    Soundfield field(block);
    const Vec3 dir = Vec3(1.0, 0.5, -0.2).normalized();
    encodeSource(mono, dir, field);
    const auto y = shEvaluate(dir);
    for (int c = 0; c < kAmbisonicChannels; ++c) {
        EXPECT_NEAR(rms(field.channels[c]),
                    std::fabs(y[c]) * rms(mono), 1e-9)
            << "channel " << c;
    }
}

TEST(RotationTest, MatrixIsOrthogonalBlockDiagonal)
{
    const Quat q = Quat::fromAxisAngle(Vec3(0.2, 1.0, -0.4).normalized(),
                                       1.1);
    SoundfieldRotator rot(q);
    const MatX &m = rot.matrix();
    // Orthogonality: M M^T = I.
    const MatX mmt = m.timesTranspose(m);
    EXPECT_NEAR((mmt - MatX::identity(kAmbisonicChannels)).maxAbs(), 0.0,
                1e-9);
    // Degree blocks only: cross-degree entries are zero.
    EXPECT_NEAR(m(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(m(2, 5), 0.0, 1e-9);
}

TEST(RotationTest, RotatedEncodingMatchesEncodedRotation)
{
    // Rotating an encoded soundfield == encoding from the rotated
    // direction (the defining property of SH rotation).
    const std::size_t block = 128;
    const auto mono = synthesizeClip(ClipKind::Noise, block, 48000.0);
    const Vec3 dir = Vec3(0.8, 0.1, 0.6).normalized();
    const Quat q = Quat::fromAxisAngle(Vec3(0, 0, 1), 0.7);

    Soundfield encoded(block);
    encodeSource(mono, dir, encoded);
    SoundfieldRotator rot(q);
    rot.apply(encoded);

    Soundfield reference(block);
    encodeSource(mono, q.rotate(dir), reference);

    for (int c = 0; c < kAmbisonicChannels; ++c)
        for (std::size_t i = 0; i < block; i += 16)
            EXPECT_NEAR(encoded.channels[c][i],
                        reference.channels[c][i], 1e-9)
                << "channel " << c;
}

TEST(RotationTest, YawRotationPreservesEnergy)
{
    const std::size_t block = 128;
    const auto mono = synthesizeClip(ClipKind::Music, block, 48000.0);
    Soundfield field(block);
    encodeSource(mono, Vec3(0.6, 0.6, 0.5).normalized(), field);
    const double before = field.energy();
    SoundfieldRotator rot(Quat::fromAxisAngle(Vec3(0, 0, 1), 2.1));
    rot.apply(field);
    EXPECT_NEAR(field.energy(), before, 1e-6 * before);
}

TEST(ZoomTest, ForwardZoomBoostsFrontSource)
{
    const std::size_t block = 128;
    const auto mono = synthesizeClip(ClipKind::Tone, block, 48000.0);

    Soundfield front(block), back(block);
    encodeSource(mono, Vec3(1, 0, 0), front);  // Ahead (+x).
    encodeSource(mono, Vec3(-1, 0, 0), back);  // Behind.

    zoomSoundfield(front, 0.5);
    zoomSoundfield(back, 0.5);
    // The omni channel of the front source grows relative to back.
    EXPECT_GT(rms(front.channels[0]), rms(back.channels[0]));
    // Zero zoom is identity.
    Soundfield copy(block);
    encodeSource(mono, Vec3(1, 0, 0), copy);
    Soundfield copy2 = copy;
    zoomSoundfield(copy2, 0.0);
    EXPECT_NEAR(rms(copy2.channels[0]), rms(copy.channels[0]), 1e-12);
}

TEST(HrirTest, LateralSourceHasItdAndLevelDifference)
{
    std::vector<double> left, right;
    // Source on the left (+y in the ambisonic frame).
    synthesizeHrir(Vec3(0, 1, 0), 48000.0, 64, left, right);
    // Left ear: earlier, stronger onset.
    std::size_t first_left = 0, first_right = 0;
    for (std::size_t i = 0; i < 64; ++i) {
        if (std::fabs(left[i]) > 1e-6) {
            first_left = i;
            break;
        }
    }
    for (std::size_t i = 0; i < 64; ++i) {
        if (std::fabs(right[i]) > 1e-6) {
            first_right = i;
            break;
        }
    }
    EXPECT_LT(first_left, first_right);
    EXPECT_GT(rms(left), rms(right));
}

TEST(BinauralizerTest, LeftSourceIsLouderInLeftEar)
{
    const std::size_t block = 512;
    Binauralizer binaural(block);
    const auto mono = synthesizeClip(ClipKind::Noise, block, 48000.0);
    Soundfield field(block);
    encodeSource(mono, Vec3(0, 1, 0), field); // Left.
    // Process two blocks so the filter tail settles.
    binaural.process(field);
    const StereoBlock out = binaural.process(field);
    EXPECT_GT(rms(out.left), 1.3 * rms(out.right));
}

TEST(BinauralizerTest, OutputEnergyTracksInput)
{
    const std::size_t block = 512;
    Binauralizer binaural(block);
    Soundfield silent(block);
    const StereoBlock out = binaural.process(silent);
    EXPECT_NEAR(rms(out.left), 0.0, 1e-12);
}

TEST(EncoderComponentTest, TaskProfileAndOutput)
{
    const std::size_t block = 1024; // Table III block size.
    AudioEncoder encoder(block);
    AudioSource src1;
    src1.pcm = std::make_shared<const std::vector<std::int16_t>>(
        toPcm16(synthesizeClip(ClipKind::SpeechLike, 48000, 48000.0)));
    src1.direction = Vec3(1, 0, 0);
    AudioSource src2;
    src2.pcm = std::make_shared<const std::vector<std::int16_t>>(
        toPcm16(synthesizeClip(ClipKind::Music, 48000, 48000.0)));
    src2.direction = Vec3(0, 1, 0);
    encoder.addSource(std::move(src1));
    encoder.addSource(std::move(src2));

    const Soundfield field = encoder.encodeBlock(0);
    EXPECT_GT(field.energy(), 0.0);
    EXPECT_GT(encoder.profile().taskSeconds("normalization"), 0.0);
    EXPECT_GT(encoder.profile().taskSeconds("encoding"), 0.0);
    EXPECT_GT(encoder.profile().taskSeconds("summation"), 0.0);
    // The tasks and their order are fixed; their shares of host time
    // are not (they move with the build and the load), so only their
    // sum is exact.
    const std::vector<std::string> want = {"normalization", "encoding",
                                           "summation"};
    EXPECT_EQ(encoder.profile().taskNames(), want);
    double share_sum = 0.0;
    for (const std::string &task : encoder.profile().taskNames())
        share_sum += encoder.profile().taskShare(task);
    EXPECT_NEAR(share_sum, 1.0, 1e-12);
}

TEST(PlaybackComponentTest, TaskProfileAndRotationConsistency)
{
    const std::size_t block = 1024;
    AudioEncoder encoder(block);
    AudioSource src;
    src.pcm = std::make_shared<const std::vector<std::int16_t>>(
        toPcm16(synthesizeClip(ClipKind::Noise, 48000, 48000.0)));
    src.direction = Vec3(1, 0, 0); // Straight ahead.
    encoder.addSource(std::move(src));
    const Soundfield field = encoder.encodeBlock(0);

    AudioPlayback playback(block);
    // Head turned right by 90 degrees about up (+z in the ambisonic
    // frame): a world-front source ends up on the listener's LEFT.
    const Quat head = Quat::fromAxisAngle(Vec3(0, 0, 1), -M_PI / 2.0);
    playback.processBlock(field, head);
    const StereoBlock out = playback.processBlock(field, head);
    EXPECT_GT(rms(out.left), 1.2 * rms(out.right));

    for (const char *task : {"psychoacoustic_filter", "rotation", "zoom",
                             "binauralization"}) {
        EXPECT_GT(playback.profile().taskSeconds(task), 0.0) << task;
    }
}

TEST(ClipsTest, DeterministicAndBounded)
{
    const auto a = synthesizeClip(ClipKind::SpeechLike, 4800, 48000.0);
    const auto b = synthesizeClip(ClipKind::SpeechLike, 4800, 48000.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i], b[i]);
        EXPECT_LE(std::fabs(a[i]), 1.5);
    }
    EXPECT_GT(rms(a), 0.01);
}

TEST(Pcm16Test, RoundTripWithinQuantization)
{
    const auto clip = synthesizeClip(ClipKind::Music, 1000, 48000.0);
    const auto pcm = toPcm16(clip);
    for (std::size_t i = 0; i < clip.size(); ++i) {
        const double back = pcm[i] / 32768.0;
        EXPECT_NEAR(back, std::clamp(clip[i], -1.0, 1.0), 6.0e-5);
    }
}

} // namespace
} // namespace illixr
