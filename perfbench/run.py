"""unifkit benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload sites --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
Set-up (import plus input generation) is repeated SETUP_REPEATS times and
its median reported.  Passes then run in a closed loop, each item starting
when the previous one returns, until another pass would overrun
`--seconds`.  Every item's answer is checked exactly; an item whose check
fails or that raises counts as failed, and ok_ratio is the share that
passed.  Times are in reference seconds (see ReferenceClock).

With `--trace 0` the last line of standard output carries the end-to-end
metrics.  With `--trace 1` the time is split: untraced passes first, then
one traced set-up and traced passes, and the last line carries the
per-layer metrics, each covering that one set-up plus one pass, and the
tracing overhead.  The line before the last is a run record: Python
version, git SHA, CPU count, seed, items per kind, raw times and the first
failures.  Traced runs also write their spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "unifkit"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("relations", "topology", "enumeration", "quniform", "gtop",
          "tower", "linalg", "poly", "dmod")
SETUP_REPEATS = 3
# The host's speed drifts by up to 1.7x over seconds (shared cores), so
# times are reported in reference seconds: raw seconds times REF_SECONDS
# over the calibration loop's duration sampled while they ran.  REF_SECONDS
# is a fixed constant near the loop's duration on the 2-core Xeon the
# benchmark was tuned on (Python 3.11); raw times are in the run record.
REF_SECONDS = 0.003
CALIBRATE_EVERY_S = 0.2
MAX_FAILURES_SHOWN = 20

clock = time.perf_counter


def load_library():
    """Import every layer module afresh from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "unifkit" or n.startswith("unifkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module("unifkit." + name)
            for name in LAYERS}
    found = Path(sys.modules["unifkit"].__file__).resolve().parent
    if found != PACKAGE_DIR:
        raise ImportError("unifkit imported from %s, not %s"
                          % (found, PACKAGE_DIR))
    return types.SimpleNamespace(**mods)


def calibration_loop():
    """Fixed pure-Python work (bit operations, a set, Fractions) whose
    duration tracks how fast the host runs this interpreter right now."""
    acc = 0
    seen = set()
    f = Fraction(0)
    rows = [0] * 8
    for i in range(5000):
        m = (i * 40503) & 0xFFFF
        rows[i & 7] |= m
        if m & 3 == 0:
            seen.add(m & 1023)
        acc += len(seen) ^ (rows[(i >> 3) & 7] >> 5)
        if i & 31 == 0:
            f += Fraction(i % 7 + 1, i % 5 + 1)
    return acc, f


def calibration_s():
    t0 = clock()
    calibration_loop()
    return clock() - t0


class ReferenceClock:
    """Measures intervals in reference seconds.

    While the clock is active, SIGALRM fires every CALIBRATE_EVERY_S and
    its handler times the calibration loop, between any two bytecodes, so
    an item that runs for seconds is calibrated while it runs.  The
    handler's own time is left out of every interval, and an interval is
    scaled by REF_SECONDS over the median loop time sampled within
    CALIBRATE_EVERY_S of it.  In traced runs the handler's time falls in
    the self time of whichever target it interrupts, about 2% throughout.
    """

    def __init__(self):
        self.times = []
        self.loops = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                         CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self):
        """Time the loop (best of two, with the collector paused so the
        library's garbage is not collected here) and note when."""
        self._busy = True
        collect = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            loop = min(calibration_s(), calibration_s())
            t1 = clock()
        finally:
            if collect:
                gc.enable()
            self._busy = False
        self.times.append((t0 + t1) / 2)
        self.loops.append(loop)
        self.stolen += t1 - t0

    def stamp(self):
        return clock(), self.stolen

    def measure(self, start, end):
        """(reference seconds, raw seconds) between two stamps; needs a
        sample taken after `end`."""
        raw = (end[0] - start[0]) - (end[1] - start[1])
        lo = bisect.bisect_left(self.times, start[0] - CALIBRATE_EVERY_S)
        hi = bisect.bisect_right(self.times, end[0] + CALIBRATE_EVERY_S)
        loop = statistics.median(self.loops[lo:hi] or self.loops[-1:])
        return raw * REF_SECONDS / loop, raw


def timed_setup(name, seed, ref):
    """(reference seconds, raw seconds, lib, inputs) of one set-up."""
    start = ref.stamp()
    lib = load_library()
    inputs = workloads.setup(lib, name, seed)
    end = ref.stamp()
    ref.sample()
    return ref.measure(start, end) + (lib, inputs)


def describe_exception(exc):
    """Exception type, innermost unifkit frame and message."""
    where = "outside unifkit"
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        path = Path(frame.filename).resolve()
        if path.is_relative_to(PACKAGE_DIR):
            where = "%s:%d in %s" % (path.relative_to(SRC), frame.lineno,
                                     frame.name)
            break
    return {"type": type(exc).__name__, "where": where, "message": str(exc)}


class PassResult:
    __slots__ = ("work_s", "raw_s", "wall_s", "scale", "latencies",
                 "failures")

    def __init__(self, latencies, raw_s, wall_s, failures):
        self.latencies = latencies
        self.work_s = sum(latencies)
        self.raw_s = raw_s
        self.wall_s = wall_s
        self.scale = self.work_s / raw_s if raw_s else 1.0
        self.failures = failures


def run_pass(items, ref, tracer=None):
    """One pass over items.  Only the interval of each item's `run` is
    timed, in reference seconds; its exact check runs outside it.
    `work_s`, the sum of those intervals, is the pass time reported as
    pass_s."""
    stamps = []
    failures = []
    start = clock()
    for index, item in enumerate(items):
        token = tracer.begin_item(index, item.kind) if tracer else None
        t0 = ref.stamp()
        try:
            out = item.run(item.data)
        except Exception as exc:  # an item that raises is a failure
            t1 = ref.stamp()
            failure = describe_exception(exc)
        else:
            t1 = ref.stamp()
            failure = None
            message = item.check(item.data, out)
            if message is not None:
                failure = {"type": "wrong answer", "message": message}
        if tracer:
            tracer.end_item(token)
        stamps.append((t0, t1))
        if failure is not None:
            failure["kind"] = item.kind
            failures.append(failure)
    ref.sample()
    timed = [ref.measure(t0, t1) for t0, t1 in stamps]
    return PassResult([t for t, _ in timed], sum(r for _, r in timed),
                      clock() - start, failures)


def run_passes(items, seconds, ref, tracer=None, on_pass=None):
    """At least one pass, then more while the next, expected to last as
    long as the previous one, still ends within `seconds`."""
    results = []
    start = clock()
    while True:
        if on_pass:
            on_pass(len(results))
        res = run_pass(items, ref, tracer)
        results.append(res)
        if clock() - start + res.wall_s > seconds:
            return results


def setup_failures(inputs):
    return [{"type": "wrong answer", "kind": "setup", "message": m}
            for m in inputs.problems]


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None.  Reads
    .git directly so no process is started."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def base_record(args, inputs):
    kinds = {}
    for item in inputs.items:
        kinds[item.kind] = kinds.get(item.kind, 0) + 1
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "items_per_pass": kinds,
    }


def tally(passes, extra_failures):
    attempted = sum(len(p.latencies) for p in passes) + len(extra_failures)
    failures = list(extra_failures)
    for p in passes:
        failures.extend(p.failures)
    return attempted, failures


def measure(args, ref):
    """Untraced run: set-up repeats, then timed passes."""
    setup_s, setup_raw_s = [], []
    for _ in range(SETUP_REPEATS):
        inputs = None  # freed first, so two input sets never coexist
        dt, raw, _, inputs = timed_setup(args.workload, args.seed, ref)
        setup_s.append(dt)
        setup_raw_s.append(raw)
    passes = run_passes(inputs.items, args.seconds, ref)
    attempted, failures = tally(passes, setup_failures(inputs))
    latencies = [x for p in passes for x in p.latencies]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "pass_s": (statistics.median(p.work_s for p in passes), "s"),
        "item_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "item_ms_p90": (1e3 * statistics.quantiles(latencies, n=10)[8],
                        "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
    }
    record = base_record(args, inputs)
    record.update(passes=len(passes), setup_s_runs=setup_s,
                  setup_raw_s_runs=setup_raw_s,
                  pass_s_runs=[p.work_s for p in passes],
                  pass_raw_s_runs=[p.raw_s for p in passes])
    return metrics, attempted, failures, record


def scaled_self_times(counters, factor):
    return {k: v * factor if k.endswith(".self_s") else v
            for k, v in counters.items()}


def combine_counters(setup, passes):
    """One set-up plus the median pass; maxima stay maxima."""
    out = {}
    for key, value in setup.items():
        per_pass = [p[key] for p in passes]
        if key in tracing.MAX_EXTRA:
            out[key] = max([value] + per_pass)
        else:
            out[key] = value + statistics.median(per_pass)
    return out


def traced_run(name, seed, seconds, ref, tracer):
    """Traced set-up, then traced passes for `seconds` (at least one), on
    a freshly loaded library.  Returns the per-layer counters (the set-up
    plus the median pass), the inputs and the passes."""
    lib = load_library()
    tracer.install(lib)
    counts = []

    def on_pass(done):
        if done:
            counts.append(tracer.counters())
        tracer.reset()
        tracer.keep_spans = done == 0

    try:
        tracer.keep_spans = True
        start = ref.stamp()
        inputs = workloads.setup(lib, name, seed)
        end = ref.stamp()
        ref.sample()
        setup_s, setup_raw_s = ref.measure(start, end)
        setup_counts = scaled_self_times(tracer.counters(),
                                         setup_s / setup_raw_s)
        passes = run_passes(inputs.items, seconds, ref, tracer, on_pass)
        counts.append(tracer.counters())
    finally:
        tracer.uninstall()
    combined = combine_counters(setup_counts, [
        scaled_self_times(c, p.scale) for c, p in zip(counts, passes)])
    return combined, inputs, passes


def measure_traced(args, ref):
    """Untraced passes for half the time, then a traced set-up and traced
    passes for the other half."""
    inputs = timed_setup(args.workload, args.seed, ref)[3]
    plain = run_passes(inputs.items, args.seconds / 2.0, ref)
    del inputs

    tracer = tracing.Tracer()
    combined, inputs, traced = traced_run(args.workload, args.seed,
                                          args.seconds / 2.0, ref, tracer)
    units = tracing.metric_units()
    metrics = {k: (v, units[k]) for k, v in combined.items()}
    overhead = (statistics.median(p.work_s for p in traced)
                / statistics.median(p.work_s for p in plain))
    metrics["trace.overhead"] = (overhead, "ratio")

    attempted, failures = tally(plain + traced, setup_failures(inputs))
    record = base_record(args, inputs)
    record.update(passes=len(plain), traced_passes=len(traced),
                  trace_file=write_spans(args, tracer.spans))
    return metrics, attempted, failures, record


def write_spans(args, spans):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    fields = ("id", "parent", "item", "name", "start_s", "end_s")
    with open(path, "w") as fh:
        json.dump({"fields": fields, "spans": spans}, fh)
    return str(path.relative_to(ROOT))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print("cannot import unifkit from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    measure_fn = measure_traced if args.trace else measure
    with ReferenceClock() as ref:
        metrics, attempted, failures, record = measure_fn(args, ref)
    record["attempted"] = attempted
    record["failed"] = len(failures)
    record["fail_ratio"] = len(failures) / attempted
    record["failures"] = failures[:MAX_FAILURES_SHOWN]
    for f in failures[:MAX_FAILURES_SHOWN]:
        print("FAILED %s: %s%s" % (
            f["kind"], f["message"],
            " (%s at %s)" % (f["type"], f["where"]) if "where" in f else ""),
            file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
