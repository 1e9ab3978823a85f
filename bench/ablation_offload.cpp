/**
 * @file
 * Offloading ablation (paper §II footnote 2 / §V-F): the VIO
 * component swapped for the edge-served client over four modeled
 * links, on the platform where local VIO struggles most (Jetson-LP,
 * Sponza). Reports the device-edge-cloud trade the paper's research
 * agenda targets: offloading restores the VIO rate and removes its
 * local CPU load, at the price of pose staleness that grows with
 * link latency. Each client has a private server that charges the
 * calibrated kEdgeVioServiceMs per frame.
 */

#include "bench_common.hpp"

#include "edge/offload_vio.hpp"

using namespace illixr;
using namespace illixr::bench;

int
main()
{
    const SessionConfig::Parse env =
        SessionConfig::fromEnvAndArgs(0, nullptr);
    if (!env.ok) {
        std::fprintf(stderr, "%s\n", env.error.c_str());
        return 2;
    }
    banner("Offloading ablation: local vs remote VIO (Jetson-LP, Sponza)",
           "§II fn.2, §V-F");

    SessionConfig cfg = env.config;
    cfg.platform = PlatformId::JetsonLP;
    cfg.app = AppId::Sponza;
    cfg.duration = 5 * kSecond;

    TextTable table;
    table.setHeader({"configuration", "VIO Hz", "VIO CPU share (%)",
                     "pose RTT (ms)", "MTP (ms)", "app Hz"});

    const IntegratedResult local = runIntegrated(cfg);
    // Local "round trip": the VIO's own mean execution time.
    const double local_rtt = local.tasks.at("vio").exec_ms.mean();
    table.addRow({"local", TextTable::num(local.achievedHz("vio"), 1),
                  TextTable::num(100.0 * local.cpu_share.at("vio"), 1),
                  TextTable::num(local_rtt, 1),
                  TextTable::meanStd(local.mtp.latency_ms.mean(),
                                     local.mtp.latency_ms.stddev()),
                  TextTable::num(local.achievedHz("application"), 1)});

    for (const NetworkLink &link :
         {NetworkLink::edgeEthernet(), NetworkLink::wifi6(),
          NetworkLink::fiveG(), NetworkLink::lteCloud()}) {
        OffloadConfig offload;
        offload.link = link;
        // A pose older than 150 ms counts as stale, so that LTE's
        // ~65 ms round trip stays on the remote path.
        offload.deadline_slo_ms = 150.0;
        SessionConfig offloaded = cfg;
        attachEdgeClient(offloaded, offload);
        const IntegratedResult r = runSession(std::move(offloaded));
        table.addRow(
            {"offload/" + link.name,
             TextTable::num(r.achievedHz("vio"), 1),
             TextTable::num(100.0 * r.cpu_share.at("vio"), 1),
             TextTable::num(r.extra.at("pose_round_trip_ms"), 1),
             TextTable::meanStd(r.mtp.latency_ms.mean(),
                                r.mtp.latency_ms.stddev()),
             TextTable::num(r.achievedHz("application"), 1)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf(
        "Reading: local Jetson-LP VIO burns about a third of the CPU;\n"
        "any edge link keeps the 15 Hz camera rate and frees the CPU,\n"
        "while pose corrections arrive later as the link gets slower\n"
        "— the freshness/energy trade-off that motivates the paper's\n"
        "edge-offloading research direction.\n");
    return 0;
}
