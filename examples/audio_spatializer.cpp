/**
 * @file
 * Audio-pipeline example: spatializes two synthesized sound sources
 * around a listener whose head slowly turns, and writes the
 * binauralized result as a stereo WAV — the audio pipeline of the
 * paper (§II-A) as a standalone tool.
 */

#include "audio/audio_pipeline.hpp"
#include "audio/clips.hpp"
#include "audio/wav.hpp"

#include <cstdio>

using namespace illixr;

int
main()
{
    constexpr std::size_t kBlock = 1024;
    constexpr double kRate = 48000.0;
    constexpr int kBlocks = 96; // ~2 s.

    std::printf("Audio spatializer: 2 sources, %d blocks of %zu samples "
                "at %.0f kHz\n",
                kBlocks, kBlock, kRate / 1000.0);

    AudioEncoder encoder(kBlock);
    AudioSource lecture;
    lecture.pcm = std::make_shared<const std::vector<std::int16_t>>(
        toPcm16(synthesizeClip(ClipKind::SpeechLike, 48000 * 3, kRate, 11)));
    lecture.direction = Vec3(1.0, 0.4, 0.0).normalized(); // Front-left.
    encoder.addSource(std::move(lecture));
    AudioSource radio;
    radio.pcm = std::make_shared<const std::vector<std::int16_t>>(
        toPcm16(synthesizeClip(ClipKind::Music, 48000 * 3, kRate, 12)));
    radio.direction = Vec3(-0.5, -0.8, 0.1).normalized(); // Back-right.
    encoder.addSource(std::move(radio));

    AudioPlayback playback(kBlock, kRate);

    std::vector<double> left, right;
    left.reserve(kBlocks * kBlock);
    right.reserve(kBlocks * kBlock);
    for (int b = 0; b < kBlocks; ++b) {
        const Soundfield field = encoder.encodeBlock(b);
        // The listener turns a full circle over the clip.
        const double yaw =
            2.0 * M_PI * static_cast<double>(b) / kBlocks;
        const Quat head = Quat::fromAxisAngle(Vec3(0, 0, 1), yaw);
        const StereoBlock out = playback.processBlock(field, head, 0.2);
        left.insert(left.end(), out.left.begin(), out.left.end());
        right.insert(right.end(), out.right.begin(), out.right.end());
    }

    const char *path = "/tmp/illixr_spatial_audio.wav";
    if (writeWavStereo(left, right, kRate, path))
        std::printf("Wrote %s (%zu samples per ear)\n", path,
                    left.size());

    std::printf("\nTask profile of the playback component:\n");
    const TaskProfile &p = playback.profile();
    for (const std::string &task : p.taskNames())
        std::printf("  %-24s %.0f%%\n", task.c_str(),
                    100.0 * p.taskShare(task));
    return 0;
}
