/**
 * @file
 * Shared `--json` support for the google-benchmark binaries: a console
 * reporter that additionally collects name -> ns/iter, and the common
 * main() body that parses `--json PATH` / `--json=PATH` before handing
 * the rest of argv to benchmark::Initialize. Used by micro_kernels to
 * emit the flat {"name": ns, ...} format that bench/compare_bench.py
 * consumes.
 *
 * `--simd=BACKEND` asserts which SIMD backend the binary was compiled
 * with (scalar | avx2) and prefixes every JSON key with
 * "BACKEND." so per-backend results land under distinct names in the
 * committed baselines. A mismatch between the flag and the compiled
 * backend is a hard error: it means the CI matrix leg ran the wrong
 * binary.
 */

#pragma once

#include <benchmark/benchmark.h>

#include "foundation/simd.hpp"

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace illixr::benchjson {

/**
 * Console reporter that additionally collects name -> ns/iter, so a
 * `--json out.json` run leaves a machine-readable result for
 * bench/compare_bench.py alongside the normal console table.
 */
class JsonCollectingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.error_occurred || run.iterations == 0)
                continue;
            results_.emplace_back(run.benchmark_name(),
                                  run.real_accumulated_time /
                                      static_cast<double>(run.iterations) *
                                      1e9);
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    /** Append a custom entry (e.g., an allocation audit result). */
    void
    add(const std::string &name, double value)
    {
        results_.emplace_back(name, value);
    }

    /** Prefix (e.g. "avx2.") applied to every key in writeJson. */
    void
    setKeyPrefix(std::string prefix)
    {
        key_prefix_ = std::move(prefix);
    }

    bool
    writeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\n");
        for (std::size_t i = 0; i < results_.size(); ++i) {
            std::fprintf(f, "  \"%s%s\": %.1f%s\n", key_prefix_.c_str(),
                         results_[i].first.c_str(), results_[i].second,
                         i + 1 < results_.size() ? "," : "");
        }
        std::fprintf(f, "}\n");
        std::fclose(f);
        return true;
    }

  private:
    std::vector<std::pair<std::string, double>> results_;
    std::string key_prefix_;
};

/**
 * The common bench main body. @p extra (optional) runs after the
 * registered benchmarks and may add() custom entries to the report
 * before the JSON is written.
 */
inline int
benchJsonMain(
    int argc, char **argv,
    const std::function<void(JsonCollectingReporter &)> &extra = nullptr)
{
    std::string json_path;
    std::string simd_flag;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--simd" && i + 1 < argc) {
            simd_flag = argv[++i];
        } else if (arg.rfind("--simd=", 0) == 0) {
            simd_flag = arg.substr(7);
        } else {
            args.push_back(argv[i]);
        }
    }
    if (!simd_flag.empty() && simd_flag != illixr::simd::backendName()) {
        std::fprintf(stderr,
                     "--simd=%s but this binary was compiled with the "
                     "'%s' backend (ILLIXR_SIMD mismatch)\n",
                     simd_flag.c_str(), illixr::simd::backendName());
        return 1;
    }
    int filtered_argc = static_cast<int>(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               args.data()))
        return 1;
    JsonCollectingReporter reporter;
    if (!simd_flag.empty())
        reporter.setKeyPrefix(simd_flag + ".");
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (extra)
        extra(reporter);
    if (!json_path.empty() && !reporter.writeJson(json_path)) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    return 0;
}

} // namespace illixr::benchjson
