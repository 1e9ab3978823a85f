#!/usr/bin/env python3
"""End-to-end benchmark of the XR stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds perfbench/xrbench.cpp
and the libraries it links into .bench_build (or $CARGO_TARGET_DIR). The
run prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. It exits nonzero when an
output check fails.

    python3 perfbench/run.py --record-references

re-records references.json, the per-seed output-check references.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import selftest  # noqa: E402

ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("sponza_desktop", "ardemo_desktop", "fleet_platformer",
             "standalone")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

END_TO_END = (
    ("frames_per_s", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p99", "ms"),
    ("cpu_ms_per_frame", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then let the build tool bring xrbench up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected src/)")
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "xrbench", "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=max(1, left))
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "xrbench")


def run_xrbench(binary, workload, seed, seconds, trace):
    proc = subprocess.run(
        [binary, workload, str(seed), str(seconds), str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
        timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("xrbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------

def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def check_session(session, refs):
    """Problems with one integrated session (empty when it passed)."""
    problems = []
    if session["error"]:
        problems.append("threw: " + session["error"])
    if session["plugin_exceptions"]:
        problems.append("%d plugin exceptions" % session["plugin_exceptions"])
    if len(session["marks_ns"]) < 2:
        problems.append("displayed no frame after set-up")
    ref = refs["ate_m"].get(str(session["seed"]))
    if ref is None:
        problems.append("no ATE reference for seed %d" % session["seed"])
    elif not metrics.matches(session["ate_m"], ref):
        problems.append("VIO ATE %.9g m, reference %.9g m"
                        % (session["ate_m"], ref))
    return problems


def check_standalone_frame(session, i, ref):
    """Problems with frame @p i of a standalone sequence."""
    if session["frame_failed"][i]:
        return ["frame %d threw: %s" % (i, session["error"])]
    problems = []
    for key in ("pupil_err_px", "icp_err_m", "holo_err"):
        if i >= len(ref[key]):
            problems.append("frame %d has no %s reference" % (i, key))
        elif not metrics.matches(session[key][i], ref[key][i]):
            problems.append("frame %d %s %.9g, reference %.9g" % (
                i, key, session[key][i], ref[key][i]))
    return problems


def check_run(raw, refs):
    """(attempted, failed, problems) over every operation of the run: a
    session, or one standalone frame."""
    attempted = failed = 0
    problems = []
    for batch in raw["batches"]:
        for session in batch["sessions"]:
            if raw["workload"] == "standalone":
                ref = refs["standalone"][str(session["seed"])]
                frames = len(session["frame_failed"])
                if frames != len(ref["holo_err"]):
                    problems.append("%d frames, reference has %d" % (
                        frames, len(ref["holo_err"])))
                for i in range(frames):
                    found = check_standalone_frame(session, i, ref)
                    attempted += 1
                    failed += 1 if found else 0
                    problems.extend(found)
            else:
                found = check_session(session, refs)
                attempted += 1
                failed += 1 if found else 0
                problems.extend(found)
    return attempted, failed, problems


def run_selftest():
    suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
    result = unittest.TextTestRunner(stream=io.StringIO(),
                                     verbosity=0).run(suite)
    return result.testsRun, len(result.failures) + len(result.errors)


# ---------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------

def fmt(value, unit):
    return "%.4f %s" % (value, unit)


def print_fingerprint(raw):
    fp = raw["fingerprint"]
    print("machine: nproc=%s simd=%s kernel_width=%s build=%s compiler=%s "
          "clock=%s" % (fp["nproc"], fp["simd"], fp["kernel_width"],
                        fp["build_type"], fp["compiler"], fp["clock"]))


def end_to_end_report(raw, attempted, failed):
    batches = [b for b in raw["batches"] if not b["traced"]]
    e2e = metrics.end_to_end(batches)
    e2e["peak_rss_mb"] = raw["peak_rss_mb"]
    standalone = raw["workload"] == "standalone"
    top = metrics.highest_supported_percentile(e2e["intervals"])
    print("load: closed loop, %d batches, %d sessions, %d frames in %.3f s "
          "of session CPU time; frame metrics are medians over %d "
          "windows of >=%d vsync intervals" % (
              len(batches), e2e["setups"], e2e["frames"], e2e["run_s"],
              e2e["windows"], metrics.WINDOW_INTERVALS))
    print("frames_per_s      %s  (%d frames)" % (
        fmt(e2e["frames_per_s"], "frames/s"), e2e["frames"]))
    for name in ("frame_ms_p50", "frame_ms_p99"):
        print("%-17s %s  (n=%d %s; highest percentile with >=10 samples "
              "beyond it: %s)" % (
                  name, fmt(e2e[name], "ms"), e2e["intervals"],
                  "frames" if standalone else "vsync intervals",
                  "p%g" % top if top else "none"))
    # Wall-clock figures are what a live user would see, but steal on a
    # shared host moves them by more than any bound, so they are
    # reported and not gated.
    wall = metrics.end_to_end(metrics.on_wall_clock(batches))
    vsync_ms = 1000.0 / 120.0
    print("wall clock        %s, p50 %s, p99 %s (reported, not gated)" % (
        fmt(wall["frames_per_s"], "frames/s"), fmt(wall["frame_ms_p50"], "ms"),
        fmt(wall["frame_ms_p99"], "ms")))
    print("vsync budget      %s" % (
        "n/a (standalone frames have no vsync)" if standalone else
        "wall-clock p50 %s the %.2f ms interval of 120 Hz" % (
            "within" if wall["frame_ms_p50"] < vsync_ms else "over",
            vsync_ms)))
    print("cpu_ms_per_frame  %s  (process user+sys over the run phase)" %
          fmt(e2e["cpu_ms_per_frame"], "ms"))
    print("setup_s           %s  (median of %d set-ups)" % (
        fmt(e2e["setup_s"], "s"), e2e["setups"]))
    print("peak_rss_mb       %s" % fmt(e2e["peak_rss_mb"], "MB"))
    print("error_rate        %.4f ratio  (%d failed / %d attempted)" % (
        failed / attempted, failed, attempted))
    return e2e


def per_layer_report(raw):
    untraced = [b for b in raw["batches"] if not b["traced"]]
    traced = [b for b in raw["batches"] if b["traced"]]
    sessions = [s for b in traced for s in b["sessions"]]
    plain = [s for b in untraced for s in b["sessions"]]
    n = len(sessions)
    fall = metrics.layer_waterfall(raw["ops"], raw["spans"])
    layers = fall["layers"]
    fps_plain = metrics.end_to_end(untraced)["frames_per_s"]
    fps_traced = metrics.end_to_end(traced)["frames_per_s"]
    standalone = raw["workload"] == "standalone"

    out = {}
    print("traced: %d traced and %d untraced sessions, traced wall %.1f ms"
          % (n, len(plain), fall["wall_ms"]))
    print("%-18s %10s %12s %8s %12s %12s %7s" % (
        "layer.op", "calls/op", "busy_ms", "busy_%", "call_ms_p50",
        "call_ms_p99", "errors"))
    # Every layer operation xrbench knows, in its order; the executor's
    # own time (runtime.run) is reported as runtime.dispatch below.
    for op in raw["ops"]:
        if op in metrics.ROOT_OPS or op == "runtime.run":
            continue
        entry = layers.get(op)
        if entry is None:
            print("%-18s %10s %12s %8s %12s %12s %7s" % (
                op, "0", "n/a", "n/a", "n/a", "n/a", "0"))
            out[op + ".calls"] = 0.0
            out[op + ".busy_pct"] = 0.0
            out[op + ".errors"] = 0
            continue
        print("%-18s %10.1f %12.3f %8.3f %12.4f %12.4f %7d" % (
            op, entry["calls"] / n, entry["busy_ms"], entry["busy_pct"],
            entry["call_ms_p50"], entry["call_ms_p99"], entry["errors"]))
        out[op + ".calls"] = entry["calls"] / n
        out[op + ".busy_pct"] = entry["busy_pct"]
        out[op + ".errors"] = entry["errors"]

    run = layers.get("runtime.run")
    out["runtime.dispatch_pct"] = run["busy_pct"] if run else 0.0
    out["runtime.invocations"] = sum(s["invocations"] for s in sessions) / n
    out["runtime.skips"] = sum(s["skips"] for s in sessions) / n
    out["trace.spans"] = sum(s["trace_spans"] for s in plain) / len(plain)
    out["bench.unaccounted_pct"] = fall["unaccounted_pct"]
    out["bench.trace_overhead_pct"] = metrics.trace_overhead_pct(
        fps_plain, fps_traced)
    if standalone:
        print("runtime.dispatch_ms n/a   runtime.invocations n/a   "
              "runtime.skips n/a   trace.spans n/a   (no executor)")
        print("xr.admission_wait_ms n/a   xr.session_wall_ms n/a   "
              "(no sessions)")
    else:
        print("runtime.dispatch_ms %.3f (%.3f%%)   runtime.invocations "
              "%.1f/session   runtime.skips %.1f/session" % (
                  run["busy_ms"], run["busy_pct"],
                  out["runtime.invocations"], out["runtime.skips"]))
        print("trace.spans %.1f/session (program TraceSink, untraced "
              "sessions)" % out["trace.spans"])
        waits = [(s["submitted_ns"] - s["submit_ns"]) / metrics.NS_PER_MS
                 for s in plain]
        walls = [(s["result_ns"] - s["submit_ns"]) / metrics.NS_PER_MS
                 for s in plain]
        print("xr.admission_wait_ms p50 %.4f p99 %.4f   xr.session_wall_ms "
              "p50 %.3f p99 %.3f   (n=%d sessions)" % (
                  metrics.percentile(waits, 50), metrics.percentile(waits, 99),
                  metrics.percentile(walls, 50), metrics.percentile(walls, 99),
                  len(plain)))
    print("bench.unaccounted_pct %.3f %%   bench.trace_overhead_pct %.3f %% "
          "(untraced %.3f vs traced %.3f frames/s)" % (
              out["bench.unaccounted_pct"], out["bench.trace_overhead_pct"],
              fps_plain, fps_traced))
    return out


def record_references(binary):
    refs = {"ate_m": {}, "standalone": {}}
    for variant in range(8):
        raw = run_xrbench(binary, "fleet_platformer", variant, 0.001, 0)
        for s in raw["batches"][0]["sessions"]:
            refs["ate_m"][str(s["seed"])] = s["ate_m"]
        raw = run_xrbench(binary, "standalone", variant, 0.001, 0)
        s = raw["batches"][0]["sessions"][0]
        refs["standalone"][str(s["seed"])] = {
            key: s[key] for key in ("pupil_err_px", "icp_err_m", "holo_err")}
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + REFERENCES)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.record_references:
        record_references(binary)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    tests_run, tests_failed = run_selftest()
    refs = load_references()
    raw = run_xrbench(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    attempted, failed, problems = check_run(raw, refs)

    print("# perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print_fingerprint(raw)
    print("selftest: %d/%d arithmetic checks passed" % (
        tests_run - tests_failed, tests_run))
    for p in problems[:20]:
        print("CHECK FAILED: " + p)
    if args.trace == 0:
        values = end_to_end_report(raw, attempted, failed)
        result = {name: {"value": values[name], "unit": unit}
                  for name, unit in END_TO_END}
    else:
        values = per_layer_report(raw)
        result = {name: {"value": value,
                         "unit": "%" if name.endswith("_pct") else "count"}
                  for name, value in values.items()}
    correct = failed == 0 and not problems and tests_failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
