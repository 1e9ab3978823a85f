#include "xr/illixr_system.hpp"

#include "xr/plugins.hpp"

namespace illixr {

double
IntegratedResult::achievedHz(const std::string &name) const
{
    auto it = tasks.find(name);
    if (it == tasks.end() || config.duration <= 0)
        return 0.0;
    return it->second.achievedHz(config.duration);
}

bool
parseExecutorKind(const std::string &name, ExecutorKind &out)
{
    if (name == "sim") {
        out = ExecutorKind::Sim;
        return true;
    }
    if (name == "pool") {
        out = ExecutorKind::Pool;
        return true;
    }
    return false;
}

const char *
executorKindName(ExecutorKind kind)
{
    return kind == ExecutorKind::Pool ? "pool" : "sim";
}

DatasetConfig
datasetConfigFor(const IntegratedConfig &config)
{
    const SystemTuning tuning;
    DatasetConfig ds_cfg;
    ds_cfg.duration_s = toSeconds(config.duration) + 0.5;
    ds_cfg.image_width = config.camera_width;
    ds_cfg.image_height = config.camera_height;
    ds_cfg.camera_rate_hz = tuning.camera_hz;
    ds_cfg.imu_rate_hz = tuning.imu_hz;
    ds_cfg.preset = DatasetConfig::Preset::LabWalk;
    ds_cfg.seed = config.seed;
    ds_cfg.scenario = config.scenario;
    return ds_cfg;
}

// runIntegrated() lives in session.cpp: it is the thin one-session
// wrapper over the Session lifecycle (see xr/session.hpp).

} // namespace illixr
