"""The benchmark's arithmetic: raw xrbench measurements in, metrics out.

Everything here is a pure function of its arguments, so selftest.py can
check it against synthetic inputs whose answers are known exactly.
"""

import math
import statistics
from fractions import Fraction

NS_PER_MS = 1e6
NS_PER_S = 1e9
VSYNC_NS = NS_PER_S / 120.0  # the display rate of the integrated system

# Percentiles considered when reporting the highest supported one.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

# Root spans: one per assembled session or standalone sequence. Their self
# time is the part of the traced wall time no layer span covers.
ROOT_OPS = ("bench.session", "bench.sequence")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Percentile p in [0, 100] by linear interpolation of the sorted
    values (the definition of SampleSeries::percentile)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    rank = p / 100.0 * (len(s) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def support_floor(p):
    """Samples needed for percentile p to have at least ten samples
    beyond it: ceil(10 / (1 - q)) (quantileSupportFloor in stats.hpp),
    in exact decimal arithmetic so that p99.9 needs 10000, not 10001."""
    return math.ceil(1000 / (100 - Fraction(str(p))))


def highest_supported_percentile(n):
    """The highest ladder percentile with at least ten samples beyond it,
    or None when even the median is unsupported."""
    best = None
    for p in PERCENTILE_LADDER:
        if n >= support_floor(p):
            best = p
    return best


def frame_intervals_ms(marks_ns, virtual_ns=()):
    """Cost of advancing one vsync interval, in ms, from the marks of one
    session (times on any one clock). The first mark ends set-up; every
    later mark completes one frame. When the frames' virtual times show that an
    interval between two displayed frames spans k vsync intervals (the
    virtual timeline skipped a vsync), it counts as k intervals of a
    k-th of its host time each. Without virtual times (standalone
    frames) every interval counts once."""
    if virtual_ns and len(virtual_ns) != len(marks_ns):
        raise ValueError("a displayed frame has no virtual time")
    out = []
    for i in range(1, len(marks_ns)):
        host_ms = (marks_ns[i] - marks_ns[i - 1]) / NS_PER_MS
        k = 1
        if virtual_ns:
            k = max(1, round((virtual_ns[i] - virtual_ns[i - 1]) / VSYNC_NS))
        out.extend([host_ms / k] * k)
    return out


# A p99 needs 1000 samples to have ten beyond it, so the frame metrics
# are taken over windows of at least this many vsync intervals.
WINDOW_INTERVALS = 1000


def batch_frames(batch):
    """(frames, run_ns, cpu_ns, vsync intervals, set-ups) of one batch of
    concurrent sessions.

    The run time is the mean over the sessions of their CPU clock
    (cpu_ns: the process's for a lone session, the session thread's for
    concurrent ones) from the first to the last mark, so concurrent
    sessions add their rates and time the host did not run them is left
    out. Frame intervals are on the same clock, except the vsync
    intervals of a lone integrated session: a few ms long, they are too
    short for the process clock, which folds in another thread's running
    time only when that thread is next accounted, and the session's own
    thread shares its kernels with the helpers in a proportion that
    depends on timing, so they are on the wall clock. Process CPU time
    counts from the batch's first mark to its end; set-up is wall time
    from a session's submission to its first mark.
    """
    sessions = [s for s in batch["sessions"] if s["marks_ns"]]
    if not sessions:
        return 0, 0, 0, [], []
    intervals = []
    for s in sessions:
        lone_vsync = len(batch["sessions"]) == 1 and s.get("virtual_ns")
        clock = s["marks_ns"] if lone_vsync else s["cpu_ns"]
        intervals.extend(frame_intervals_ms(clock, s.get("virtual_ns")))
    run_ns = sum(s["cpu_ns"][-1] - s["cpu_ns"][0]
                 for s in sessions) / len(sessions)
    return (sum(len(s["marks_ns"]) - 1 for s in sessions),
            run_ns,
            batch["cpu_end_ns"] - batch["cpu_first_ns"],
            intervals,
            [(s["marks_ns"][0] - s["submit_ns"]) / NS_PER_S for s in sessions])


def windows(parts):
    """Consecutive batch results grouped into windows of at least
    WINDOW_INTERVALS vsync intervals; a shorter remainder joins the last
    window."""
    groups = [[]]
    count = 0
    for part in parts:
        if count >= WINDOW_INTERVALS:
            groups.append([])
            count = 0
        groups[-1].append(part)
        count += len(part[3])
    if len(groups) > 1 and count < WINDOW_INTERVALS:
        groups[-2].extend(groups.pop())
    return groups


def end_to_end(batches):
    """End-to-end metrics over a list of raw batches (sessions that ran
    together). Rates, percentiles and CPU per frame are the median over
    windows of the window's value, so a burst of host interference moves
    at most one window; set-up is the median over sessions."""
    parts = [p for p in map(batch_frames, batches) if p[0] > 0]
    if not parts:
        raise ValueError("no frame completed in the run phase")
    per_window = []
    for group in windows(parts):
        frames = sum(p[0] for p in group)
        intervals = [x for p in group for x in p[3]]
        per_window.append({
            "frames_per_s": frames / (sum(p[1] for p in group) / NS_PER_S),
            "frame_ms_p50": percentile(intervals, 50.0),
            "frame_ms_p99": percentile(intervals, 99.0),
            "cpu_ms_per_frame": sum(p[2] for p in group) / NS_PER_MS / frames,
        })
    out = {name: median([w[name] for w in per_window])
           for name in per_window[0]}
    setups = [x for p in parts for x in p[4]]
    out.update({
        "frames": sum(p[0] for p in parts),
        "run_s": sum(p[1] for p in parts) / NS_PER_S,
        "intervals": sum(len(p[3]) for p in parts),
        "windows": len(per_window),
        "setup_s": median(setups),
        "setups": len(setups),
    })
    return out


def on_wall_clock(batches):
    """The same batches with every session's frames timed on the wall
    clock instead of its CPU clock."""
    return [dict(b, sessions=[dict(s, cpu_ns=s["marks_ns"])
                              for s in b["sessions"]])
            for b in batches]


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its direct children cover. Spans are (op, thread, start, end, ...)
    and nest properly within one thread. Returns a list aligned with
    @p spans."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][1], spans[i][2], -spans[i][3]))
    child = [0] * len(spans)
    stack = []
    thread = None
    for i in order:
        _, t, start, end = spans[i][:4]
        if t != thread:
            stack, thread = [], t
        while stack and spans[stack[-1]][3] <= start:
            stack.pop()
        if stack:
            parent = stack[-1]
            if end > spans[parent][3]:
                raise ValueError("spans overlap without nesting")
            child[parent] += end - start
        stack.append(i)
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def layer_waterfall(ops, spans):
    """Per-operation calls, self (busy) time, call-time percentiles and
    errors, plus the traced wall time (sum of root spans) and the share
    of it no layer span accounts for."""
    selfs = self_times(spans)
    per_op = {}
    for span, own in zip(spans, selfs):
        name = ops[span[0]]
        entry = per_op.setdefault(
            name, {"calls": 0, "busy_ns": 0, "errors": 0, "durations": []})
        entry["calls"] += 1
        entry["busy_ns"] += own
        entry["errors"] += span[4] if len(span) > 4 else 0
        entry["durations"].append((span[3] - span[2]) / NS_PER_MS)
    wall_ns = sum(s[3] - s[2] for s in spans if ops[s[0]] in ROOT_OPS)
    unaccounted_ns = sum(per_op[name]["busy_ns"]
                         for name in ROOT_OPS if name in per_op)
    layers = {}
    for name, entry in per_op.items():
        layers[name] = {
            "calls": entry["calls"],
            "busy_ms": entry["busy_ns"] / NS_PER_MS,
            "busy_pct": 100.0 * entry["busy_ns"] / wall_ns if wall_ns else 0.0,
            "call_ms_p50": percentile(entry["durations"], 50.0),
            "call_ms_p99": percentile(entry["durations"], 99.0),
            "errors": entry["errors"],
        }
    return {
        "layers": layers,
        "wall_ms": wall_ns / NS_PER_MS,
        "unaccounted_pct":
            100.0 * unaccounted_ns / wall_ns if wall_ns else 0.0,
    }


def trace_overhead_pct(untraced_fps, traced_fps):
    """How much longer a frame takes with spans recorded, in percent."""
    return 100.0 * (untraced_fps / traced_fps - 1.0)


def matches(value, reference, rel=1e-6, abs_tol=1e-12):
    return math.isclose(value, reference, rel_tol=rel, abs_tol=abs_tol)
