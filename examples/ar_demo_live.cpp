/**
 * @file
 * Live-runtime example: runs the plugin set on the worker-pool
 * PoolExecutor in live mode (wall-clock periods) instead of the
 * discrete-event scheduler — the §II-B "live system" mode of the
 * runtime, demonstrated for two wall-clock seconds with the sparse AR
 * application. `--workers=N` selects the pool size.
 *
 * `--fault-plan=SPEC` injects faults from a parseFaultPlan() spec
 * (e.g. "seed=7,crash=0.01,stall=0.02,drop=0.05"), demonstrating
 * chaos on the live runtime: the executor contains every crash and
 * runs the plugin again at its next period.
 */

#include "runtime/pool_executor.hpp"
#include "trace/trace.hpp"
#include "trace/metrics_registry.hpp"
#include "xr/plugins.hpp"

#include <cstdio>
#include <cstring>
#include <string>

using namespace illixr;

int
main(int argc, char **argv)
{
    std::size_t workers = 4;
    FaultPlan plan;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--workers=", 0) == 0) {
            workers = static_cast<std::size_t>(
                std::strtoul(arg.c_str() + 10, nullptr, 10));
            if (workers == 0)
                workers = 1;
        } else if (arg.rfind("--fault-plan=", 0) == 0) {
            if (!parseFaultPlan(arg.substr(13), plan)) {
                std::fprintf(stderr, "bad --fault-plan spec\n");
                return 2;
            }
        } else {
            std::fprintf(stderr, "usage: ar_demo_live [--workers=N] "
                                 "[--fault-plan=SPEC]\n");
            return 2;
        }
    }

    std::printf("Live AR demo on the worker-pool runtime, %zu workers "
                "(2 s wall clock)\n\n",
                workers);

    // Services.
    Phonebook phonebook;
    auto switchboard = std::make_shared<Switchboard>();
    phonebook.registerService(switchboard);

    DatasetConfig ds_cfg;
    ds_cfg.duration_s = 3.0;
    ds_cfg.image_width = 128;
    ds_cfg.image_height = 96;
    auto data =
        std::make_shared<PreloadedDataset>(ds_cfg, 3 * kSecond);
    phonebook.registerService(data);

    // Plugins (a scaled-down set to fit one core comfortably).
    SystemTuning tuning;
    tuning.imu_hz = 250.0;
    tuning.display_hz = 30.0;

    AppConfig app_cfg;
    app_cfg.eye_width = 48;
    app_cfg.eye_height = 48;

    CameraPlugin camera(phonebook, tuning);
    ImuPlugin imu(phonebook, tuning);
    IntegratorPlugin integrator(phonebook, tuning);
    ApplicationPlugin app(phonebook, tuning, AppId::ArDemo, app_cfg);
    TimewarpPlugin timewarp(phonebook, tuning, TimewarpParams{});
    AudioEncoderPlugin audio_enc(phonebook, tuning);
    AudioPlaybackPlugin audio_play(phonebook, tuning);

    // All executors implement the Executor interface; this example
    // drives the live pool through it, with the same trace sink the
    // discrete-event scheduler uses (wall-clock spans).
    auto sink = std::make_shared<TraceSink>();
    switchboard->setTraceSink(sink);
    auto metrics = std::make_shared<MetricsRegistry>();

    // Optional chaos: the fault plan's injector.
    const std::unique_ptr<FaultInjector> injector =
        makeFaultInjector(plan, *switchboard, metrics.get());
    if (injector)
        std::printf("Fault plan: %s\n\n",
                    faultPlanSummary(injector->plan()).c_str());

    PoolExecutorConfig pool_cfg;
    pool_cfg.workers = workers;
    PoolExecutor executor(pool_cfg);
    Executor &exec = executor;
    executor.setTraceSink(sink);
    executor.setMetrics(metrics.get());
    executor.setPhonebook(&phonebook);
    exec.addPlugin(&camera);
    exec.addPlugin(&imu);
    exec.addPlugin(&integrator);
    exec.addPlugin(&app);
    exec.addPlugin(&timewarp);
    exec.addPlugin(&audio_enc);
    exec.addPlugin(&audio_play);
    executor.setInterceptor(injector.get());

    exec.run(2 * kSecond);

    std::printf("Iterations over 2 s wall clock (%s timeline):\n",
                exec.timeline());
    for (const std::string &name : exec.taskNames()) {
        const TaskStats &stats = exec.stats(name);
        std::printf("  %-16s %4zu (%.1f Hz), exec %.2f ms, %zu skips\n",
                    name.c_str(), stats.invocations,
                    stats.achievedHz(2 * kSecond), stats.execMs().mean(),
                    stats.skips);
    }
    std::printf("\nSwitchboard topics:\n");
    for (const std::string &topic : switchboard->topicNames()) {
        std::printf("  %-16s %zu events\n", topic.c_str(),
                    switchboard->publishCount(topic));
    }

    if (injector) {
        std::printf("\nInjected: %llu crashes, %llu stalls, %llu spikes, "
                    "%llu drops, %llu corruptions\n",
                    (unsigned long long)injector->injectedCrashes(),
                    (unsigned long long)injector->injectedStalls(),
                    (unsigned long long)injector->injectedSpikes(),
                    (unsigned long long)injector->injectedDrops(),
                    (unsigned long long)injector->injectedCorruptions());
        std::size_t exceptions = 0;
        for (const std::string &name : exec.taskNames())
            exceptions += exec.stats(name).exceptions;
        std::printf("Exceptions contained by the executor: %zu\n",
                    exceptions);
    }

    const char *trace_path = "/tmp/illixr_ar_live.trace.json";
    if (sink->writeChromeTrace(trace_path))
        std::printf("\nWrote %zu wall-clock spans to %s\n",
                    sink->spanCount(), trace_path);
    return 0;
}
