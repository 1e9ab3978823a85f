#include "xr/session.hpp"

#include "runtime/parallel.hpp"
#include "runtime/phonebook.hpp"
#include "runtime/pool_executor.hpp"
#include "xr/plugins.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

namespace illixr {

// ---------------------------------------------------------------------
// SessionConfig: the one config parser (env + CLI)
// ---------------------------------------------------------------------

namespace {

bool
parseUnsigned(const std::string &text, unsigned long &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoul(text.c_str(), &end, 10);
    return end && *end == '\0';
}

bool
parsePositiveDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0' && out > 0.0;
}

} // namespace

bool
SessionConfig::applyEnv(std::string &malformed)
{
    // Each read records its name, so a `return false` names the culprit.
    auto env = [&malformed](const char *name) {
        malformed = name;
        return std::getenv(name);
    };
    if (const char *v = env("ILLIXR_EXECUTOR")) {
        if (!parseExecutorKind(v, executor))
            return false;
    }
    if (const char *v = env("ILLIXR_POOL_WORKERS")) {
        unsigned long n = 0;
        if (!parseUnsigned(v, n) || n == 0)
            return false;
        pool_workers = n;
    }
    if (const char *v = env("ILLIXR_KERNEL_THREADS")) {
        unsigned long n = 0;
        if (!parseUnsigned(v, n) || n == 0)
            return false;
        kernel_threads = n;
    }
    if (const char *v = env("ILLIXR_DETERMINISTIC"))
        deterministic = std::string(v) != "0";
    if (const char *v = env("ILLIXR_SEED")) {
        unsigned long n = 0;
        if (!parseUnsigned(v, n))
            return false;
        seed = static_cast<unsigned>(n);
    }
    if (const char *v = env("ILLIXR_FAULT_PLAN")) {
        if (!parseFaultPlan(v, fault_plan))
            return false;
    }
    if (const char *v = env("ILLIXR_SCENARIO")) {
        std::string error;
        if (!applyScenarioSpec(v, error)) {
            std::fprintf(stderr, "ILLIXR_SCENARIO: %s\n", error.c_str());
            return false;
        }
    }
    if (const char *v = env("ILLIXR_EDGE"))
        edge.enabled = std::string(v) != "0";
    if (const char *v = env("ILLIXR_EDGE_LINK")) {
        if (*v == '\0')
            return false;
        edge.link = v;
    }
    if (const char *v = env("ILLIXR_EDGE_SLO_MS")) {
        if (!parsePositiveDouble(v, edge.slo_ms))
            return false;
    }
    if (const char *v = env("ILLIXR_TAIL"))
        tail.enabled = std::string(v) != "0";
    if (const char *v = env("ILLIXR_TAIL_THRESHOLD_MS")) {
        if (!parsePositiveDouble(v, tail.threshold_ms))
            return false;
        tail.enabled = true;
    }
    if (const char *v = env("ILLIXR_TAIL_RING")) {
        unsigned long n = 0;
        if (!parseUnsigned(v, n))
            return false;
        tail.ring = n;
        tail.enabled = true;
    }
    return true;
}

bool
SessionConfig::parseFlag(const std::string &arg)
{
    auto value = [&arg](const char *prefix, std::string &out) {
        const std::size_t n = std::strlen(prefix);
        if (arg.compare(0, n, prefix) != 0)
            return false;
        out = arg.substr(n);
        return true;
    };
    std::string v;
    if (value("--executor=", v))
        return parseExecutorKind(v, executor);
    if (value("--workers=", v)) {
        unsigned long n = 0;
        if (!parseUnsigned(v, n) || n == 0)
            return false;
        pool_workers = n;
        return true;
    }
    if (value("--kernel-threads=", v)) {
        unsigned long n = 0;
        if (!parseUnsigned(v, n) || n == 0)
            return false;
        kernel_threads = n;
        return true;
    }
    if (arg == "--deterministic") {
        deterministic = true;
        return true;
    }
    if (value("--seed=", v)) {
        unsigned long n = 0;
        if (!parseUnsigned(v, n))
            return false;
        seed = static_cast<unsigned>(n);
        return true;
    }
    if (value("--fault-plan=", v))
        return parseFaultPlan(v, fault_plan);
    if (value("--scenario=", v)) {
        std::string error;
        if (!applyScenarioSpec(v, error)) {
            std::fprintf(stderr, "--scenario: %s\n", error.c_str());
            return false;
        }
        return true;
    }
    if (arg == "--edge") {
        edge.enabled = true;
        return true;
    }
    if (value("--edge-link=", v)) {
        if (v.empty())
            return false;
        edge.enabled = true;
        edge.link = v;
        return true;
    }
    if (value("--edge-slo-ms=", v)) {
        if (!parsePositiveDouble(v, edge.slo_ms))
            return false;
        edge.enabled = true;
        return true;
    }
    if (arg == "--tail") {
        tail.enabled = true;
        return true;
    }
    if (value("--tail-threshold-ms=", v)) {
        if (!parsePositiveDouble(v, tail.threshold_ms))
            return false;
        tail.enabled = true;
        return true;
    }
    if (value("--tail-ring=", v)) {
        unsigned long n = 0;
        if (!parseUnsigned(v, n))
            return false;
        tail.ring = n;
        tail.enabled = true;
        return true;
    }
    return false;
}

bool
SessionConfig::applyScenario(const Scenario &s)
{
    scenario = s;
    if (s.duration_s > 0.0)
        duration = fromSeconds(s.duration_s);
    if (s.seed != 0)
        seed = s.seed;
    return s.fault_plan.empty() || parseFaultPlan(s.fault_plan, fault_plan);
}

bool
SessionConfig::applyScenarioSpec(const std::string &spec,
                                 std::string &error)
{
    Scenario s;
    if (!Scenario::byName(spec, s)) {
        if (!Scenario::loadFile(spec, s, error))
            return false;
    }
    if (!applyScenario(s)) {
        error = "scenario '" + s.name + "': malformed fault plan '" +
                s.fault_plan + "'";
        return false;
    }
    return true;
}

SessionConfig::Parse
SessionConfig::fromEnvAndArgs(int argc, const char *const *argv)
{
    Parse parse;
    std::string var;
    if (!parse.config.applyEnv(var)) {
        parse.ok = false;
        parse.error = "malformed environment variable: " + var + "=" +
                      std::getenv(var.c_str());
        return parse;
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (parse.config.parseFlag(arg))
            continue;
        // A flag the parser owns but could not parse is an error, not
        // an "unparsed" passthrough: --seed=banana must not leak into
        // the tool's own flag handling looking legitimate.
        static const char *const kOwned[] = {
            "--executor=",  "--workers=",     "--kernel-threads=",
            "--seed=",      "--fault-plan=",  "--scenario=",
            "--edge-link=", "--edge-slo-ms=",
            "--tail-threshold-ms=", "--tail-ring="};
        bool owned = false;
        for (const char *prefix : kOwned)
            owned = owned || arg.rfind(prefix, 0) == 0;
        if (owned) {
            parse.ok = false;
            parse.error = "malformed flag: " + arg;
            return parse;
        }
        parse.unparsed.push_back(arg);
    }
    if (parse.config.executor == ExecutorKind::Pool &&
        parse.config.deterministic) {
        parse.ok = false;
        parse.error = "executor=pool runs on the wall clock and cannot "
                      "be deterministic; use executor=sim";
    }
    return parse;
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

Session::Session(SessionConfig config) : config_(std::move(config)) {}

Session::~Session()
{
    requestStop();
    std::thread t;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        t = std::move(thread_);
    }
    if (t.joinable())
        t.join();
}

Session::State
Session::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

void
Session::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::Idle && state_ != State::Queued)
        throw std::logic_error("session '" + config_.name +
                               "' already started");
    state_ = State::Running;
    thread_ = std::thread([this] { runBody(); });
}

void
Session::requestStop()
{
    // Flag first, executor second; runBody() publishes the executor
    // first and re-checks the flag second. Whichever side loses the
    // race, the executor sees the stop request.
    std::lock_guard<std::mutex> lock(executor_mutex_);
    stop_requested_ = true;
    if (executor_)
        executor_->requestStop();
}

void
Session::stop()
{
    requestStop();
    wait();
}

void
Session::wait()
{
    std::thread t;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (state_ == State::Idle)
            throw std::logic_error("session '" + config_.name +
                                   "' was never started");
        cv_.wait(lock, [this] {
            return state_ == State::Finished || state_ == State::Evicted;
        });
        t = std::move(thread_);
    }
    if (t.joinable())
        t.join();
}

bool
Session::finished() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_ == State::Finished || state_ == State::Evicted;
}

const IntegratedResult &
Session::result()
{
    wait();
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_)
        std::rethrow_exception(error_);
    if (state_ == State::Evicted)
        throw std::logic_error("session '" + config_.name +
                               "' was evicted before it ran");
    return result_;
}

void
Session::setOnFinished(std::function<void(Session &)> fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    on_finished_ = std::move(fn);
}

void
Session::markQueued()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::Idle)
        throw std::logic_error("session '" + config_.name +
                               "' already started");
    state_ = State::Queued;
}

bool
Session::markEvictedIfQueued()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::Queued)
        return false;
    state_ = State::Evicted;
    cv_.notify_all();
    return true;
}

void
Session::runBody()
{
    try {
        const IntegratedConfig &config = config_;
        const SystemTuning tuning;

        // --- Kernel pool: the ONLY process-wide state a session
        // touches. Width is a shared knob (kernel results are
        // bit-identical at any width, so sessions retuning it never
        // perturb each other's determinism); accounting is NOT shared
        // — the MetricsScope below routes this thread's kernel
        // launches into this session's registry, and every executor
        // invocation installs its own scope (invokeGuarded), so the
        // per-session kernel.* metrics never mix across tenants. ---
        KernelPool &kernels = KernelPool::instance();
        if (config.kernel_threads > 0)
            kernels.setWidth(config.kernel_threads);

        // --- Services ---
        Phonebook phonebook;
        auto switchboard = std::make_shared<Switchboard>();
        phonebook.registerService(switchboard);

        auto metrics = std::make_shared<MetricsRegistry>();
        phonebook.registerService(metrics);
        switchboard->setMetrics(metrics.get());
        std::shared_ptr<TraceSink> sink;
        std::shared_ptr<TailMonitor> tail;
        if (config.trace) {
            sink = std::make_shared<TraceSink>();
            switchboard->setTraceSink(sink);
            if (config.tail.enabled) {
                TailConfig tail_cfg;
                tail_cfg.threshold_ms = config.tail.threshold_ms;
                tail_cfg.max_outliers = config.tail.max_outliers;
                tail = std::make_shared<TailMonitor>(tail_cfg,
                                                     metrics.get());
                if (config.tail.ring > 0)
                    sink->setRetention(config.tail.ring,
                                       config.tail.ring,
                                       config.tail.ring);
                sink->setTailMonitor(tail.get(),
                                     topics::kDisplayFrame);
            }
        }
        KernelPool::MetricsScope kernel_scope(metrics.get(), sink.get());

        auto data = std::make_shared<PreloadedDataset>(
            datasetConfigFor(config), config.duration);
        phonebook.registerService(data);

        // --- Plugins (Table II components in the integrated config) ---
        AppConfig app_cfg;
        app_cfg.eye_width = config.eye_size;
        app_cfg.eye_height = config.eye_size;

        TimewarpParams tw_params;
        tw_params.fov_y_rad = app_cfg.fov_y_rad;

        // Installed before any plugin publishes so the fault plan
        // sees every event from the first one.
        const std::shared_ptr<FaultInjector> injector = makeFaultInjector(
            config.fault_plan, *switchboard, metrics.get());
        // Factory-made plugins (the offloaded VIO's brownout feed)
        // find it at construction.
        if (injector)
            phonebook.registerService(injector);

        CameraPlugin camera(phonebook, tuning);
        ImuPlugin imu(phonebook, tuning);
        std::unique_ptr<Plugin> vio_owned =
            config_.vio_factory
                ? config_.vio_factory(phonebook, tuning)
                : std::make_unique<VioPlugin>(phonebook, tuning);
        Plugin &vio = *vio_owned;
        IntegratorPlugin integrator(phonebook, tuning);
        ApplicationPlugin application(phonebook, tuning, config.app,
                                      app_cfg,
                                      config.adaptive_resolution);
        TimewarpPlugin timewarp(phonebook, tuning, tw_params);
        AudioEncoderPlugin audio_enc(phonebook, tuning);
        AudioPlaybackPlugin audio_play(phonebook, tuning);

        // --- Executor ---
        const PlatformModel platform =
            PlatformModel::get(config.platform);
        std::unique_ptr<SimScheduler> sim;
        std::unique_ptr<PoolExecutor> pool;
        ExecutorBase *executor = nullptr;
        if (config.executor == ExecutorKind::Pool) {
            if (config.deterministic)
                throw std::invalid_argument(
                    "deterministic runs need executor=sim");
            PoolExecutorConfig pool_cfg;
            pool_cfg.workers = config.pool_workers;
            pool = std::make_unique<PoolExecutor>(pool_cfg);
            executor = pool.get();
        } else {
            std::optional<std::uint64_t> seed;
            if (config.deterministic)
                seed = config.seed;
            sim = std::make_unique<SimScheduler>(platform, seed);
            executor = sim.get();
        }
        executor->setMetrics(metrics.get());
        executor->setPhonebook(&phonebook);
        if (sink)
            executor->setTraceSink(sink);
        executor->addPlugin(&camera);
        executor->addPlugin(&imu);
        executor->addPlugin(&vio);
        executor->addPlugin(&integrator);
        executor->addPlugin(&application);
        const Duration vsync = periodFromHz(tuning.display_hz);
        executor->addVsyncAlignedPlugin(&timewarp, vsync);
        executor->addPlugin(&audio_enc);
        executor->addPlugin(&audio_play);
        executor->setInterceptor(injector.get());

        // Publish the executor for eviction; a stop requested before
        // this point lands now (requestStop() is one-way).
        {
            std::lock_guard<std::mutex> lock(executor_mutex_);
            executor_ = executor;
            if (stop_requested_)
                executor->requestStop();
        }

        executor->run(config.duration);

        {
            std::lock_guard<std::mutex> lock(executor_mutex_);
            executor_ = nullptr;
        }

        // --- Collect results ---
        IntegratedResult result;
        result.config = config;
        result.vsync = vsync;
        // Fig 5's work shares: measured host seconds, or in a seeded
        // run the charged (modeled) virtual durations, so the shares
        // repeat with the seed like every other seeded output.
        double total_work = 0.0;
        for (const std::string &name : executor->taskNames()) {
            const TaskStats &stats = executor->stats(name);
            result.tasks.emplace(name, stats);
            double work = 0.0;
            for (const InvocationRecord &rec : stats.records)
                work += config.deterministic
                            ? toSeconds(rec.virtual_duration)
                            : rec.host_seconds;
            result.cpu_share[name] = work;
            total_work += work;
        }
        if (total_work > 0.0) {
            for (auto &[name, work] : result.cpu_share)
                work /= total_work;
        }

        result.target_hz["camera"] = tuning.camera_hz;
        result.target_hz["vio"] = tuning.camera_hz;
        result.target_hz["imu"] = tuning.imu_hz;
        result.target_hz["integrator"] = tuning.imu_hz;
        result.target_hz["application"] = tuning.display_hz;
        result.target_hz["timewarp"] = tuning.display_hz;
        result.target_hz["audio_encoding"] = tuning.audio_hz;
        result.target_hz["audio_playback"] = tuning.audio_hz;

        result.mtp = computeMtp(executor->stats("timewarp"),
                                timewarp.imuAgesMs(), vsync);

        result.lineage_stages = {topics::kCamera, topics::kImu,
                                 topics::kSlowPose, topics::kFastPose,
                                 topics::kSubmittedFrame};
        if (sink) {
            result.trace = sink;
            result.lineage_mtp =
                computeLineageMtp(*sink, vsync, topics::kDisplayFrame,
                                  result.lineage_stages);
        }
        if (tail) {
            // Detach before hand-off: the result owns both, but the
            // sink must never call into a monitor the caller may
            // release first.
            sink->setTailMonitor(nullptr, "");
            result.tail = tail;
        }
        result.metrics = metrics;
        const double cpu_util =
            pool ? pool->cpuUtilization() : sim->cpuUtilization();
        const double gpu_util =
            pool ? pool->gpuUtilization() : sim->gpuUtilization();
        metrics->gauge("run.cpu_utilization").set(cpu_util);
        metrics->gauge("run.gpu_utilization").set(gpu_util);

        result.utilization.cpu = cpu_util;
        result.utilization.gpu = gpu_util;
        // Memory traffic proxy: display + camera traffic dominates;
        // a weighted blend of unit utilizations (see DESIGN.md).
        result.utilization.memory =
            std::min(1.0, 0.55 * result.utilization.gpu +
                              0.35 * result.utilization.cpu + 0.10);
        result.power = computePower(platform, result.utilization);

        if (const std::vector<StampedPose> *traj = vio.vioTrajectory())
            result.vio_trajectory = *traj;
        vio.exportExtras(result.extra);
        result.extra["final_eye_resolution"] =
            static_cast<double>(application.currentEyeResolution());
        result.extra["min_eye_resolution"] =
            static_cast<double>(application.minEyeResolution());
        if (injector) {
            result.extra["injected_faults"] =
                static_cast<double>(injector->injectedTotal());
            result.extra["injected_crashes"] =
                static_cast<double>(injector->injectedCrashes());
            result.extra["injected_drops"] =
                static_cast<double>(injector->injectedDrops());
        }

        // The KernelPool's handle cache holds Counter/Histogram
        // pointers into this session's registry; evict them before
        // another session's registry can land at the same address.
        kernels.forgetMetrics(metrics.get());

        {
            std::lock_guard<std::mutex> lock(mutex_);
            result_ = std::move(result);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(executor_mutex_);
        executor_ = nullptr;
        std::lock_guard<std::mutex> state_lock(mutex_);
        error_ = std::current_exception();
    }
    // The factory may hold this session's seat in a lockstep group:
    // release it with the run, also when the run failed before the
    // factory's plugin existed.
    config_.vio_factory = nullptr;

    std::function<void(Session &)> on_finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        state_ = State::Finished;
        on_finished = on_finished_;
    }
    cv_.notify_all();
    if (on_finished)
        on_finished(*this);
}

// ---------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------

SessionManager::SessionManager(std::size_t max_concurrent)
    : max_concurrent_(std::max<std::size_t>(1, max_concurrent))
{
}

SessionManager::~SessionManager()
{
    drain();
}

std::shared_ptr<Session>
SessionManager::submit(SessionConfig config)
{
    const std::size_t group =
        config.lockstep_group ? config.lockstep_group() : 0;
    auto session = std::make_shared<Session>(std::move(config));
    session->setOnFinished(
        [this](Session &s) { onSessionFinished(s); });
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_.size() < max_concurrent_ && group <= max_concurrent_) {
        startLocked(session);
    } else if (group > 0) {
        // Dropping the session releases its seat in the group, so
        // peers already running stop waiting on it.
        throw std::invalid_argument(
            "session '" + session->name() + "' runs in lockstep with " +
            std::to_string(group) + " sessions and cannot be queued: " +
            std::to_string(running_.size()) + " of max_concurrent " +
            std::to_string(max_concurrent_) + " slots are taken");
    } else {
        session->markQueued();
        queued_.push_back(session);
    }
    return session;
}

bool
SessionManager::evict(const std::shared_ptr<Session> &session)
{
    if (!session)
        return false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = std::find(queued_.begin(), queued_.end(), session);
        if (it != queued_.end()) {
            queued_.erase(it);
            session->markEvictedIfQueued();
            cv_.notify_all();
            return true;
        }
        if (std::find(running_.begin(), running_.end(), session) ==
            running_.end())
            return false;
    }
    // Cooperative: the session finishes early through the normal path
    // and onSessionFinished() pumps the queue, so no bookkeeping here.
    session->requestStop();
    return true;
}

void
SessionManager::drain()
{
    std::vector<std::shared_ptr<Session>> to_join;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] {
            return queued_.empty() && running_.empty();
        });
        to_join.swap(to_join_);
    }
    // Join outside the lock: a finishing thread's callback takes it.
    for (const auto &session : to_join)
        session->wait();
}

std::size_t
SessionManager::runningCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return running_.size();
}

std::size_t
SessionManager::queuedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queued_.size();
}

std::uint64_t
SessionManager::admittedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return admitted_;
}

void
SessionManager::startLocked(const std::shared_ptr<Session> &session)
{
    running_.push_back(session);
    to_join_.push_back(session);
    ++admitted_;
    session->start();
}

void
SessionManager::onSessionFinished(Session &session)
{
    // Runs on the finishing session's own thread.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(
        running_.begin(), running_.end(),
        [&session](const std::shared_ptr<Session> &s) {
            return s.get() == &session;
        });
    if (it != running_.end())
        running_.erase(it);
    while (running_.size() < max_concurrent_ && !queued_.empty()) {
        std::shared_ptr<Session> next = std::move(queued_.front());
        queued_.pop_front();
        startLocked(next);
    }
    cv_.notify_all();
}

// ---------------------------------------------------------------------
// runSession / runIntegrated: the thin one-session wrappers
// ---------------------------------------------------------------------

IntegratedResult
runSession(SessionConfig config)
{
    Session session{std::move(config)};
    session.start();
    return session.result();
}

IntegratedResult
runIntegrated(const IntegratedConfig &config)
{
    return runSession(SessionConfig(config));
}

} // namespace illixr
