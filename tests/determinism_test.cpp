/**
 * @file
 * Golden-trace determinism test: the integrated system run twice
 * on a seeded SimScheduler with the same seed must produce
 * byte-identical pose and frame-lineage CSVs (the determinism
 * contract of DESIGN.md §4c). A different seed must not.
 */

#include "failover_oracle.hpp"

#include "edge/offload_vio.hpp"
#include "metrics/telemetry.hpp"
#include "runtime/parallel.hpp"
#include "xr/events.hpp"
#include "xr/illixr_system.hpp"
#include "xr/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

namespace illixr {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

struct RunFiles
{
    std::string pose;
    std::string lineage;
};

/** Serialize one run's pose + lineage CSVs and slurp them back. */
RunFiles
filesFor(const IntegratedResult &result, const std::string &tag)
{
    EXPECT_GT(result.tasks.size(), 0u);
    EXPECT_GT(result.vio_trajectory.size(), 0u);

    const std::string pose_path =
        "/tmp/illixr_det_pose_" + tag + ".csv";
    const std::string lineage_path =
        "/tmp/illixr_det_lineage_" + tag + ".csv";
    EXPECT_TRUE(writePoseCsv(result.vio_trajectory, pose_path));
    EXPECT_NE(result.trace, nullptr);
    EXPECT_TRUE(result.trace->writeLineageCsv(
        lineage_path, topics::kDisplayFrame, result.lineage_stages));

    RunFiles files;
    files.pose = slurp(pose_path);
    files.lineage = slurp(lineage_path);
    std::remove(pose_path.c_str());
    std::remove(lineage_path.c_str());
    EXPECT_FALSE(files.pose.empty());
    EXPECT_FALSE(files.lineage.empty());
    // More than just a CSV header in each.
    EXPECT_NE(files.pose.find('\n'), files.pose.rfind('\n'));
    EXPECT_NE(files.lineage.find('\n'), files.lineage.rfind('\n'));
    return files;
}

/** Seeded SimScheduler config shared by the solo and fleet runs. */
IntegratedConfig
detConfig(unsigned seed, const std::string &fault_spec = "",
          std::size_t kernel_threads = 0)
{
    IntegratedConfig cfg;
    cfg.executor = ExecutorKind::Sim;
    cfg.deterministic = true;
    cfg.seed = seed;
    cfg.kernel_threads = kernel_threads;
    cfg.duration = 1 * kSecond;
    if (!fault_spec.empty()) {
        EXPECT_TRUE(parseFaultPlan(fault_spec, cfg.fault_plan));
    }
    return cfg;
}

RunFiles
runOnce(unsigned seed, const std::string &tag,
        const std::string &fault_spec = "",
        std::size_t kernel_threads = 0)
{
    return filesFor(
        runIntegrated(detConfig(seed, fault_spec, kernel_threads)),
        tag);
}

TEST(DeterminismTest, SameSeedIsByteIdentical)
{
    const RunFiles a = runOnce(11, "a");
    const RunFiles b = runOnce(11, "b");
    EXPECT_EQ(a.pose, b.pose);
    EXPECT_EQ(a.lineage, b.lineage);
}

TEST(DeterminismTest, DifferentSeedDiverges)
{
    const RunFiles a = runOnce(11, "c");
    const RunFiles c = runOnce(12, "d");
    // A different seed changes the dataset and the modeled costs:
    // the trajectories must not be byte-equal.
    EXPECT_NE(a.pose, c.pose);
}

TEST(DeterminismTest, KernelWidthsAreByteIdentical)
{
    // The data-parallel kernel contract (DESIGN.md §6): tiling is a
    // pure function of (range, grain) and reductions combine in fixed
    // tile order, so the kernel-pool width must never be observable in
    // the results. The same deterministic run at kernel widths 1, 2
    // and 4 must produce byte-identical pose and lineage CSVs.
    const RunFiles w1 = runOnce(11, "k1", "", 1);
    const RunFiles w2 = runOnce(11, "k2", "", 2);
    const RunFiles w4 = runOnce(11, "k4", "", 4);
    EXPECT_EQ(w1.pose, w2.pose);
    EXPECT_EQ(w1.pose, w4.pose);
    EXPECT_EQ(w1.lineage, w2.lineage);
    EXPECT_EQ(w1.lineage, w4.lineage);
}

TEST(DeterminismTest, TailAttributionMatchesAcrossKernelWidths)
{
    // The tail harness contract (tail_bench): the outlier attribution
    // table is part of the deterministic surface. Same seed, same
    // fault plan, kernel widths 1/2/4 — the TailMonitor's CSV (frame
    // ids, per-stage millisecond decompositions, dominant stages)
    // must be byte-identical, with a ring-buffered sink small enough
    // that eviction actually happens mid-run.
    auto tailCsv = [](std::size_t kernel_threads) {
        IntegratedConfig cfg = detConfig(
            11, "crash=0.02,stall=0.03,drop=0.05,seed=7",
            kernel_threads);
        cfg.tail.enabled = true;
        cfg.tail.threshold_ms = 5.0;
        cfg.tail.ring = 1024;
        const IntegratedResult result = runIntegrated(cfg);
        EXPECT_NE(result.tail, nullptr);
        EXPECT_GT(result.tail->frames(), 0u);
        return result.tail->attributionCsv();
    };
    const std::string w1 = tailCsv(1);
    const std::string w2 = tailCsv(2);
    const std::string w4 = tailCsv(4);
    // More than a header: the chaos plan must yield real outliers.
    EXPECT_NE(w1.find('\n'), w1.rfind('\n'));
    EXPECT_EQ(w1, w2);
    EXPECT_EQ(w1, w4);
}

TEST(DeterminismTest, FaultedSameSeedIsByteIdentical)
{
    // A nonzero fault plan — injected crashes, stalls, spikes, drops
    // and corruption — must replay byte-for-byte: every fault
    // decision is a pure function of (seed, boundary, name, attempt).
    const std::string spec =
        "seed=7,crash=0.02,stall=0.03,spike=0.03,drop=0.05,corrupt=0.02";
    const RunFiles a = runOnce(11, "fa", spec);
    const RunFiles b = runOnce(11, "fb", spec);
    EXPECT_EQ(a.pose, b.pose);
    EXPECT_EQ(a.lineage, b.lineage);

    // And the faults really happened: the chaos run differs from the
    // clean run with the same executor seed.
    const RunFiles clean = runOnce(11, "fc");
    EXPECT_NE(a.pose, clean.pose);
}

TEST(DeterminismTest, PlanAimedAtMissingTaskMatchesClean)
{
    // An active plan whose every fault is aimed at a task that does
    // not exist installs the injector on both boundaries but never
    // fires: the run must be byte-identical to the clean one.
    const RunFiles clean = runOnce(11, "mc");
    const RunFiles missed =
        runOnce(11, "mm", "tasks=nonexistent,crash=1,stall=1");
    EXPECT_EQ(clean.pose, missed.pose);
    EXPECT_EQ(clean.lineage, missed.lineage);
}

TEST(DeterminismTest, FaultedKernelWidthsAreByteIdentical)
{
    // The two contracts composed: a chaos run (injected crashes,
    // stalls, drops, corruption) must STILL be invariant to the
    // kernel-pool width.
    // This pins the transport data plane too — publish fan-out, ring
    // eviction and slab recycling all happen under fault churn here,
    // and none of it may leak into the recorded pose or lineage.
    const std::string spec =
        "seed=7,crash=0.02,stall=0.03,spike=0.03,drop=0.05,corrupt=0.02";
    const RunFiles w1 = runOnce(11, "fk1", spec, 1);
    const RunFiles w2 = runOnce(11, "fk2", spec, 2);
    const RunFiles w4 = runOnce(11, "fk4", spec, 4);
    EXPECT_EQ(w1.pose, w2.pose);
    EXPECT_EQ(w1.pose, w4.pose);
    EXPECT_EQ(w1.lineage, w2.lineage);
    EXPECT_EQ(w1.lineage, w4.lineage);
}

TEST(DeterminismTest, ScenarioRunsAreByteIdentical)
{
    // The scenario determinism contract (ISSUE: same seed + same
    // scenario file => byte-identical runs across kernel widths).
    // Every non-legacy path family, under a faulted plan, run at
    // kernel widths 1 (twice), 2 and 4.
    const std::string spec =
        "seed=7,crash=0.02,stall=0.03,spike=0.03,drop=0.05,corrupt=0.02";
    const PathFamily families[] = {
        PathFamily::Circular, PathFamily::FigureEight,
        PathFamily::RapidRotation, PathFamily::StopAndStare,
        PathFamily::OcclusionWalk};
    for (PathFamily family : families) {
        auto scenarioConfig = [&](std::size_t kernel_threads) {
            IntegratedConfig cfg = detConfig(11, spec, kernel_threads);
            cfg.duration = 600 * kMillisecond;
            // Through the parse path, as a file-driven run would go.
            Scenario s;
            std::string error;
            EXPECT_TRUE(Scenario::parse(
                Scenario::fromFamily(family).serialize(), s, error))
                << error;
            cfg.scenario = s;
            return cfg;
        };
        const std::string tag = pathFamilyName(family);
        const RunFiles w1a =
            filesFor(runIntegrated(scenarioConfig(1)), tag + "_w1a");
        const RunFiles w1b =
            filesFor(runIntegrated(scenarioConfig(1)), tag + "_w1b");
        const RunFiles w2 =
            filesFor(runIntegrated(scenarioConfig(2)), tag + "_w2");
        const RunFiles w4 =
            filesFor(runIntegrated(scenarioConfig(4)), tag + "_w4");
        EXPECT_EQ(w1a.pose, w1b.pose) << tag;
        EXPECT_EQ(w1a.lineage, w1b.lineage) << tag;
        EXPECT_EQ(w1a.pose, w2.pose) << tag;
        EXPECT_EQ(w1a.pose, w4.pose) << tag;
        EXPECT_EQ(w1a.lineage, w2.lineage) << tag;
        EXPECT_EQ(w1a.lineage, w4.lineage) << tag;
    }
    // Different scenarios under the same seed must diverge: the
    // scenario really reaches the dataset.
    IntegratedConfig circ = detConfig(11, "", 1);
    circ.duration = 600 * kMillisecond;
    circ.scenario = Scenario::fromFamily(PathFamily::Circular);
    IntegratedConfig spin = circ;
    spin.scenario = Scenario::fromFamily(PathFamily::RapidRotation);
    const RunFiles a = filesFor(runIntegrated(circ), "scn_circ");
    const RunFiles b = filesFor(runIntegrated(spin), "scn_spin");
    EXPECT_NE(a.pose, b.pose);
}

TEST(DeterminismTest, ConcurrentSessionsMatchSolo)
{
    // The multi-tenant contract (DESIGN.md §8): a session's results
    // are a function of its own config only. Two sessions with
    // different seeds running concurrently in one SessionManager must
    // each be byte-identical to the same config run alone.
    const RunFiles solo11 = runOnce(11, "cs_solo11");
    const RunFiles solo12 = runOnce(12, "cs_solo12");

    SessionManager manager(2);
    SessionConfig cfg11(detConfig(11));
    cfg11.name = "cs11";
    SessionConfig cfg12(detConfig(12));
    cfg12.name = "cs12";
    auto s11 = manager.submit(std::move(cfg11));
    auto s12 = manager.submit(std::move(cfg12));
    manager.drain();

    const RunFiles fleet11 = filesFor(s11->result(), "cs_fleet11");
    const RunFiles fleet12 = filesFor(s12->result(), "cs_fleet12");
    EXPECT_EQ(solo11.pose, fleet11.pose);
    EXPECT_EQ(solo11.lineage, fleet11.lineage);
    EXPECT_EQ(solo12.pose, fleet12.pose);
    EXPECT_EQ(solo12.lineage, fleet12.lineage);
    // Different seeds really produced different sessions.
    EXPECT_NE(fleet11.pose, fleet12.pose);
}

/** Every extra at full precision, one per line. */
std::string
extrasText(const IntegratedResult &r)
{
    std::string out;
    char line[128];
    for (const auto &[key, value] : r.extra) {
        std::snprintf(line, sizeof line, "%s=%a\n", key.c_str(), value);
        out += line;
    }
    return out;
}

/** The lineage MTP series at full precision, one frame per line. */
std::string
lineageMtpText(const IntegratedResult &r)
{
    std::string out;
    char line[64];
    for (double ms : r.lineage_mtp.mtp.latency_ms.samples()) {
        std::snprintf(line, sizeof line, "%a\n", ms);
        out += line;
    }
    return out;
}

TEST(DeterminismTest, SeededOffloadIsByteIdentical)
{
    // A seeded offloaded run charges only modeled costs: the link's
    // seeded delays and the server's calibrated service time, never
    // the host's VIO time. Kernel widths 1 and 4 must agree on the
    // trajectory, the lineage, every extra (pose_round_trip_ms
    // included) and the lineage MTP, bit for bit.
    auto run = [](std::size_t width, const std::string &tag) {
        SessionConfig cfg(detConfig(5, "", width));
        cfg.app = AppId::Sponza;
        cfg.duration = 2 * kSecond;
        OffloadConfig offload;
        offload.link = NetworkLink::edgeEthernet();
        attachEdgeClient(cfg, offload);
        const IntegratedResult r = runSession(std::move(cfg));
        expectFailoverAccounting(r, tag);
        return std::make_tuple(filesFor(r, tag), extrasText(r),
                               lineageMtpText(r));
    };
    const auto [w1, extras1, mtp1] = run(1, "off1");
    const auto [w4, extras4, mtp4] = run(4, "off4");
    EXPECT_NE(extras1.find("pose_round_trip_ms"), std::string::npos);
    EXPECT_FALSE(mtp1.empty());
    EXPECT_EQ(w1.pose, w4.pose);
    EXPECT_EQ(w1.lineage, w4.lineage);
    EXPECT_EQ(extras1, extras4);
    EXPECT_EQ(mtp1, mtp4);
}

TEST(DeterminismTest, EdgeFleetIsByteIdentical)
{
    // The edge determinism contract on real sessions: four seeded
    // AR-demo sessions share one wifi6 edge server, each on its own
    // thread. Lockstep keeps the server causally ordered, so every
    // session's pose, lineage and extras are byte-identical at kernel
    // widths 1 and 4, and when the fleet connects and is submitted in
    // a permuted order. Every frame that reaches the server is served.
    constexpr std::uint64_t kClients = 4;
    using Fingerprint = std::tuple<RunFiles, std::string>;
    auto runFleet = [](std::size_t width,
                       const std::vector<std::uint64_t> &order) {
        auto server = std::make_shared<EdgeServer>();
        std::vector<SessionConfig> configs(kClients + 1);
        for (std::uint64_t id : order) {
            SessionConfig &cfg = configs[id];
            cfg = SessionConfig(detConfig(static_cast<unsigned>(id), "",
                                          width));
            cfg.name = "edge" + std::to_string(id);
            cfg.app = AppId::ArDemo;
            cfg.duration = 2 * kSecond;
            std::string error;
            EXPECT_TRUE(attachEdgeClient(cfg, id, server, &error))
                << error;
        }
        std::map<std::uint64_t, std::shared_ptr<Session>> sessions;
        {
            SessionManager manager(kClients);
            for (std::uint64_t id : order)
                sessions[id] = manager.submit(std::move(configs[id]));
            manager.drain();
        }
        std::map<std::uint64_t, Fingerprint> out;
        for (const auto &[id, session] : sessions) {
            const IntegratedResult &r = session->result();
            EXPECT_EQ(r.extra.at("edge_shed"), 0.0) << session->name();
            EXPECT_EQ(r.extra.at("failover_poses"), 0.0)
                << session->name();
            EXPECT_GT(r.extra.at("edge_served"), 25.0) << session->name();
            expectFailoverAccounting(r, session->name());
            out[id] = {filesFor(r, session->name() + "_w" +
                                       std::to_string(width)),
                       extrasText(r)};
        }
        return out;
    };

    const auto w1 = runFleet(1, {1, 2, 3, 4});
    const auto w4 = runFleet(4, {1, 2, 3, 4});
    const auto permuted = runFleet(1, {3, 1, 4, 2});
    KernelPool::instance().setWidth(1);
    ASSERT_EQ(w1.size(), kClients);
    for (std::uint64_t id = 1; id <= kClients; ++id) {
        const auto &[files, extras] = w1.at(id);
        for (const auto *other : {&w4.at(id), &permuted.at(id)}) {
            EXPECT_EQ(files.pose, std::get<0>(*other).pose) << id;
            EXPECT_EQ(files.lineage, std::get<0>(*other).lineage) << id;
            EXPECT_EQ(extras, std::get<1>(*other)) << id;
        }
    }
    // Different seeds really produced different sessions.
    EXPECT_NE(std::get<0>(w1.at(1)).pose, std::get<0>(w1.at(2)).pose);
}

TEST(DeterminismTest, ConcurrentSessionStress)
{
    // TSan stress target: four concurrent sessions sharing the
    // process-wide KernelPool, each with its own Switchboard and
    // metrics. The assertions are light — the point is to drive the
    // shared kernel pool, per-registry metric cache and Session
    // lifecycle from four threads at once under the sanitizer.
    constexpr std::size_t kSessions = 4;
    SessionManager manager(kSessions);
    std::vector<std::shared_ptr<Session>> fleet;
    for (std::size_t i = 0; i < kSessions; ++i) {
        SessionConfig cfg(detConfig(20 + static_cast<unsigned>(i)));
        cfg.name = "stress" + std::to_string(i);
        cfg.duration = 500 * kMillisecond;
        fleet.push_back(manager.submit(std::move(cfg)));
    }
    manager.drain();
    for (const auto &session : fleet) {
        EXPECT_EQ(session->state(), Session::State::Finished);
        const IntegratedResult &r = session->result();
        EXPECT_GT(r.tasks.size(), 0u);
        EXPECT_GT(r.vio_trajectory.size(), 0u);
    }
}

} // namespace
} // namespace illixr
