/**
 * @file
 * Shared helpers for the benchmark harnesses: `figures` regenerates
 * every figure and table of the paper (see DESIGN.md §3 for the
 * experiment index); the other benches run ablations and scale-out
 * experiments around it.
 */

#pragma once

#include "metrics/telemetry.hpp"
#include "render/scenes.hpp"
#include "xr/illixr_system.hpp"
#include "xr/session.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace illixr::bench {

/** All four applications in the paper's order. */
inline const std::vector<AppId> kApps = {
    AppId::Sponza, AppId::Materials, AppId::Platformer, AppId::ArDemo};

/** All three platforms in the paper's order. */
inline const std::vector<PlatformId> kPlatforms = {
    PlatformId::Desktop, PlatformId::JetsonHP, PlatformId::JetsonLP};

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *paper_ref)
{
    std::printf("==============================================\n");
    std::printf("ILLIXR reproduction — %s\n", experiment);
    std::printf("Paper reference: %s\n", paper_ref);
    std::printf("==============================================\n\n");
}

/**
 * Exit 1 naming @p path unless @p written: a bench never reports a
 * result file it did not produce.
 */
inline void
requireWritten(bool written, const std::string &path)
{
    if (written)
        return;
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
}

} // namespace illixr::bench
