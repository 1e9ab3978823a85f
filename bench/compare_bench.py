#!/usr/bin/env python3
"""Compare benchmark --json outputs and fail on regression.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--threshold PCT]
    compare_bench.py --pair BASE.json:CUR.json[:PCT] [--pair ...]
    compare_bench.py OLD.json NEW.json --require-speedup KERNEL:FACTOR

Each file maps benchmark name -> ns/iter (the format written by
`micro_kernels --json out.json`). The positional form compares one
pair; --pair may be repeated to check several baselines in a single run
(e.g. the serial and kernel-threaded kernel runs). A pair
fails when any benchmark present in BOTH of its files is more than PCT
percent slower in CURRENT than in BASELINE (per-pair PCT, else
--threshold, default 25), and when a BASELINE name is missing from
CURRENT: a bench that stops reporting a key must not pass its gate.
Names are namespaced by the text before their first "." ("avx2.",
"tail.", none); a baseline namespace CURRENT does not report at all
belongs to another run (one baseline file holds every SIMD backend),
so its names are reported but not required. Names only in CURRENT are
reported and never fail, so adding a benchmark does not break CI.
Baseline entries with ns <= 0 are skipped. Exit status is 1 when any
pair regressed or lost a name, 2 when a pair shares no benchmark
names.

--require-speedup KERNEL:FACTOR (repeatable) additionally demands that
CURRENT is at least FACTOR times faster than BASELINE for KERNEL.
KERNEL is resolved by exact name or unique suffix in each pair (so
"CnnForward" finds both "BM_CnnForward" and "avx2.BM_CnnForward"); the
requirement must hold in every pair where it resolves and must resolve
in at least one pair. Used by the CI simd leg to enforce the vector
paths' speedup targets against the pre-SIMD baseline.

--require-max KEY:VALUE (repeatable) is an *absolute* budget, not a
ratio: CURRENT[KEY] must be <= VALUE in every pair where KEY resolves
(exact name or unique suffix, CURRENT side), and KEY must resolve in
at least one pair. Ratio gates silently absorb a slowly creeping tail
as long as each step stays under the threshold; the CI tail leg uses
--require-max to pin p99.9 latencies to fixed budgets instead.

--self-test runs the built-in unit checks (resolution rules, ratio
gate, absolute gate) and exits 0/1; no files are read. Registered as a
ctest so the gate logic itself is under regression.
"""

import argparse
import json
import subprocess
import sys


def namespace(name):
    """The text before NAME's first ".", or "" for an unprefixed name."""
    return name.split(".", 1)[0] if "." in name else ""


def compare_pair(baseline_path, current_path, threshold):
    """Print a per-benchmark delta table; return (regressions, shared,
    missing): missing are the baseline names absent from CURRENT in a
    namespace CURRENT reports."""
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(current_path) as f:
        current = json.load(f)

    print(f"== {baseline_path} vs {current_path} "
          f"(threshold {threshold:.0f}%) ==")
    regressions = []
    shared = sorted(set(baseline) & set(current))
    for name in shared:
        base_ns = float(baseline[name])
        cur_ns = float(current[name])
        if base_ns <= 0.0:
            continue
        delta_pct = (cur_ns / base_ns - 1.0) * 100.0
        marker = ""
        if delta_pct > threshold:
            marker = "  << REGRESSION"
            regressions.append((name, delta_pct))
        print(
            f"{name:32s} {base_ns:14.1f} {cur_ns:14.1f} "
            f"{delta_pct:+7.1f}%{marker}"
        )

    reported = {namespace(name) for name in current}
    missing = []
    for name in sorted(set(baseline) - set(current)):
        if namespace(name) in reported:
            missing.append(name)
            print(f"{name:32s} (only in baseline)  << MISSING")
        else:
            print(f"{name:32s} (only in baseline, another run)")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:32s} (only in current)")

    return regressions, shared, missing


def resolve_kernel(kernel, names):
    """Names matching KERNEL exactly or by dotted/word suffix.

    A suffix only counts when it starts at a name boundary ('.', '_',
    or the start), so "GsIteration64" does not accidentally match a
    hypothetical "NotGsIteration64".
    """
    if kernel in names:
        return [kernel]
    return sorted(
        n for n in names
        if n.endswith(kernel) and n[: -len(kernel)][-1:] in ("", ".", "_")
    )


def check_speedups(pairs_data, require_specs):
    """Evaluate --require-speedup specs; return a list of failures."""
    failures = []
    for kernel, factor in require_specs:
        resolved_anywhere = False
        for base_path, cur_path, baseline, current in pairs_data:
            # Resolve independently per file: the baseline may carry
            # unprefixed pre-SIMD names while the current run is
            # backend-prefixed (suffix matching bridges them).
            base_names = resolve_kernel(kernel, baseline)
            cur_names = resolve_kernel(kernel, current)
            if not base_names or not cur_names:
                continue
            if len(base_names) > 1 or len(cur_names) > 1:
                failures.append(
                    f"[{base_path}] {kernel!r} is ambiguous: "
                    f"{', '.join(sorted(set(base_names + cur_names)))}"
                )
                continue
            resolved_anywhere = True
            base_ns = float(baseline[base_names[0]])
            cur_ns = float(current[cur_names[0]])
            if cur_ns <= 0.0:
                failures.append(
                    f"[{cur_path}] {cur_names[0]}: non-positive ns"
                )
                continue
            speedup = base_ns / cur_ns
            ok = speedup >= factor
            print(
                f"require-speedup {cur_names[0]:32s} {base_ns:14.1f} -> "
                f"{cur_ns:14.1f}  {speedup:5.2f}x "
                f"(need {factor:.2f}x){'' if ok else '  << TOO SLOW'}"
            )
            if not ok:
                failures.append(
                    f"[{base_path}] {cur_names[0]}: {speedup:.2f}x < "
                    f"required {factor:.2f}x"
                )
        if not resolved_anywhere:
            failures.append(
                f"{kernel!r} not found in any compared pair"
            )
    return failures


def check_maxima(pairs_data, require_max_specs):
    """Evaluate --require-max specs; return a list of failures."""
    failures = []
    for key, limit in require_max_specs:
        resolved_anywhere = False
        for _base_path, cur_path, _baseline, current in pairs_data:
            names = resolve_kernel(key, current)
            if not names:
                continue
            if len(names) > 1:
                resolved_anywhere = True
                failures.append(
                    f"[{cur_path}] {key!r} is ambiguous: "
                    f"{', '.join(names)}"
                )
                continue
            resolved_anywhere = True
            cur = float(current[names[0]])
            ok = cur <= limit
            print(
                f"require-max {names[0]:40s} {cur:14.3f} "
                f"(budget {limit:.3f})"
                f"{'' if ok else '  << OVER BUDGET'}"
            )
            if not ok:
                failures.append(
                    f"[{cur_path}] {names[0]}: {cur:.3f} > "
                    f"budget {limit:.3f}"
                )
        if not resolved_anywhere:
            failures.append(
                f"{key!r} not found in any compared CURRENT file"
            )
    return failures


def parse_require(spec):
    kernel, sep, factor = spec.rpartition(":")
    if not sep or not kernel:
        raise argparse.ArgumentTypeError(
            f"--require-speedup wants KERNEL:FACTOR, got {spec!r}"
        )
    return kernel, float(factor)


def parse_require_max(spec):
    key, sep, value = spec.rpartition(":")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"--require-max wants KEY:VALUE, got {spec!r}"
        )
    return key, float(value)


def parse_pair(spec, default_threshold):
    parts = spec.split(":")
    if len(parts) == 2:
        return parts[0], parts[1], default_threshold
    if len(parts) == 3:
        return parts[0], parts[1], float(parts[2])
    raise argparse.ArgumentTypeError(
        f"--pair wants BASE.json:CUR.json[:PCT], got {spec!r}"
    )


def self_test() -> int:
    """Unit checks for the gate logic; returns a process exit code."""
    failed = []

    def check(name, cond):
        print(f"self-test {name}: {'ok' if cond else 'FAIL'}")
        if not cond:
            failed.append(name)

    names = {"BM_CnnForward", "avx2.BM_CnnForward",
             "NotGsIteration64", "sse2.BM_GsIteration64"}
    check("resolve exact",
          resolve_kernel("BM_CnnForward", names) == ["BM_CnnForward"])
    check("resolve suffix",
          resolve_kernel("GsIteration64", names) ==
          ["sse2.BM_GsIteration64"])
    check("resolve boundary rejects mid-word",
          "NotGsIteration64" not in
          resolve_kernel("GsIteration64", names))
    check("resolve ambiguous returns all",
          len(resolve_kernel("CnnForward", names)) == 2)

    pairs = [("b.json", "c.json",
              {"tail.fleet.e2e_p999_ms": 20.0},
              {"tail.fleet.e2e_p999_ms": 18.5,
               "tail.fleet.sched_p999_ms": 9.1})]
    check("require-max pass",
          check_maxima(pairs, [("e2e_p999_ms", 20.0)]) == [])
    check("require-max over budget",
          len(check_maxima(pairs, [("sched_p999_ms", 9.0)])) == 1)
    check("require-max missing key",
          len(check_maxima(pairs, [("nope_ms", 1.0)])) == 1)
    ambiguous = [("b.json", "c.json", {},
                  {"a.p999_ms": 1.0, "b.p999_ms": 2.0})]
    check("require-max ambiguous key",
          len(check_maxima(ambiguous, [("p999_ms", 5.0)])) == 1)

    check("require-speedup pass",
          check_speedups(
              [("b.json", "c.json", {"BM_K": 100.0}, {"BM_K": 25.0})],
              [("BM_K", 4.0)]) == [])
    check("require-speedup too slow",
          len(check_speedups(
              [("b.json", "c.json", {"BM_K": 100.0}, {"BM_K": 60.0})],
              [("BM_K", 2.0)])) == 1)

    import tempfile
    import os
    with tempfile.TemporaryDirectory() as d:
        base = os.path.join(d, "base.json")
        cur = os.path.join(d, "cur.json")
        with open(base, "w") as f:
            json.dump({"k1": 100.0, "k2": 100.0}, f)
        with open(cur, "w") as f:
            json.dump({"k1": 110.0, "k2": 200.0}, f)
        regressions, shared, _missing = compare_pair(base, cur, 25.0)
        check("compare_pair shares names", len(shared) == 2)
        check("compare_pair flags only the regression",
              [name for name, _pct in regressions] == ["k2"])

        # A key the current run stopped reporting fails the pair; a
        # namespace it never reports (another backend's) does not.
        with open(base, "w") as f:
            json.dump({"k1": 100.0, "k2": 100.0,
                       "avx2.k1": 50.0, "avx2.k2": 50.0}, f)
        with open(cur, "w") as f:
            json.dump({"k1": 100.0}, f)
        rc = subprocess.call(
            [sys.executable, __file__, "--pair", f"{base}:{cur}"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        check("pair fails on a baseline key missing from current",
              rc == 1)
        with open(cur, "w") as f:
            json.dump({"k1": 100.0, "k2": 100.0}, f)
        rc = subprocess.call(
            [sys.executable, __file__, "--pair", f"{base}:{cur}"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        check("pair ignores a namespace current never reports", rc == 0)

    if failed:
        print(f"self-test: {len(failed)} check(s) failed", file=sys.stderr)
        return 1
    print("self-test: all checks passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?",
                        help="baseline JSON (name -> ns/iter)")
    parser.add_argument("current", nargs="?",
                        help="current JSON (name -> ns/iter)")
    parser.add_argument(
        "--pair",
        action="append",
        default=[],
        metavar="BASE:CUR[:PCT]",
        help="compare BASE.json against CUR.json with an optional "
        "per-pair threshold; repeatable",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="allowed slowdown in percent (default: 25)",
    )
    parser.add_argument(
        "--require-speedup",
        action="append",
        default=[],
        type=parse_require,
        metavar="KERNEL:FACTOR",
        help="require CURRENT >= FACTOR times faster than BASELINE for "
        "KERNEL (exact name or unique suffix); repeatable",
    )
    parser.add_argument(
        "--require-max",
        action="append",
        default=[],
        type=parse_require_max,
        metavar="KEY:VALUE",
        help="require CURRENT[KEY] <= VALUE (absolute budget; exact "
        "name or unique suffix); repeatable",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in unit checks and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    pairs = []
    if args.baseline is not None:
        if args.current is None:
            parser.error("positional usage needs BASELINE and CURRENT")
        pairs.append((args.baseline, args.current, args.threshold))
    for spec in args.pair:
        pairs.append(parse_pair(spec, args.threshold))
    if not pairs:
        parser.error("give BASELINE CURRENT or at least one --pair")

    all_regressions = []
    all_missing = []
    status = 0
    empty_pairs = []
    for i, (base, cur, threshold) in enumerate(pairs):
        if i:
            print()
        regressions, shared, missing = compare_pair(base, cur, threshold)
        if not shared:
            empty_pairs.append((base, cur))
        all_regressions.extend(
            (base, name, pct, threshold) for name, pct in regressions
        )
        all_missing.extend((cur, name) for name in missing)

    resolved_pairs = set()
    if args.require_speedup or args.require_max:
        print()
        pairs_data = []
        for base, cur, _threshold in pairs:
            with open(base) as f:
                baseline = json.load(f)
            with open(cur) as f:
                current = json.load(f)
            pairs_data.append((base, cur, baseline, current))
            for kernel, _factor in args.require_speedup:
                if resolve_kernel(kernel, baseline) and \
                        resolve_kernel(kernel, current):
                    resolved_pairs.add((base, cur))
            for key, _value in args.require_max:
                if resolve_kernel(key, current):
                    resolved_pairs.add((base, cur))
        failures = check_speedups(pairs_data, args.require_speedup)
        failures += check_maxima(pairs_data, args.require_max)
        if failures:
            print(f"\n{len(failures)} requirement(s) failed:",
                  file=sys.stderr)
            for msg in failures:
                print(f"  {msg}", file=sys.stderr)
            return 1

    # A pair with no shared names is an error unless a speedup spec
    # resolved in it (e.g. unprefixed pre-SIMD baseline vs a
    # backend-prefixed current run, bridged by suffix matching).
    for base, cur in empty_pairs:
        if (base, cur) not in resolved_pairs:
            print(f"error: no shared benchmark names in {base} vs {cur}",
                  file=sys.stderr)
            status = max(status, 2)

    if all_missing:
        print(f"\n{len(all_missing)} baseline key(s) missing:",
              file=sys.stderr)
        for cur, name in all_missing:
            print(f"  [{cur}] {name}", file=sys.stderr)
    if all_regressions:
        print(f"\n{len(all_regressions)} regression(s):", file=sys.stderr)
        for base, name, pct, threshold in all_regressions:
            print(f"  [{base}] {name}: +{pct:.1f}% (limit {threshold:.0f}%)",
                  file=sys.stderr)
    if all_missing or all_regressions:
        return 1
    if status:
        return status
    print("\nOK: no regression in any pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
