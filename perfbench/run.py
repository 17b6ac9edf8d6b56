"""Benchmark of the seaweedcoh verifier.  From the repository root:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 \
        --trace 0

Runs one workload (see workloads.py) in this process, serially.  Set-up is
timed in fresh subprocesses; the spec loop then runs whole passes over the
seeded specs until --seconds is used, give or take half a pass (at least
one pass).

Times are normalized to a reference speed.  The speed of a core on a
shared machine drifts: on a shared 2-core VM (Python 3.11) a fixed 3 ms
kernel took 3-7 ms from one second to the next, with no steal time, so a
raw time says as much about the neighbours as about the program.  So a
SIGALRM handler times reference_work() every REFERENCE_EVERY_S while the
specs run; it runs between the program's bytecodes, so it samples the
speed the program gets, inside long specs too, and its time is taken out
of the spec's.  Garbage collection is off while it runs, so a collection
of the program's heap is never charged to a reading.  A spec's latency is
scaled by REFERENCE_S over the median reading within 2 * REFERENCE_EVERY_S
of it; a pass's time is the sum of its scaled latencies; loop and spec
times are the medians over the passes.  Passes after the first run warm:
the ambient algebras and the process caches keep what pass 1 filled, so
the medians leave out one-time fills; the context line gives every pass's
normalized time (pass_s), pass 1 first.  Set-up samples and traced passes
are scaled by five readings taken just before and five just after each.
The context line also gives the raw best wall time and each pass's mean
speed factor.

Every report is checked (checks.py); a spec that raises or fails a check
is a failure record and the run goes on.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A traced run first times one untraced
pass, then traces set-up and one pass (tracing.py), so its overhead is
measured in the same process.  The line before it gives the run's context:
nproc, Python version, commit, source digest, seed, passes, raw best wall
time, speed factors, tail percentile and sample count.  The full record,
with per-spec latencies and the spans of a traced run, is written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
# Best time of reference_work() on an unloaded core of the machine the
# bounds were set on; normalized times read as seconds on that core.
REFERENCE_S = 0.0035
# Denser readings track the drift more closely: on the shared 2-core VM,
# per-spec times spread about half as much at 0.1 s as at 0.2 s.
REFERENCE_EVERY_S = 0.1


def reference_work():
    """A fixed slice of the program's kind of work: dense and sparse exact
    elimination over Fractions, in lists and in dicts."""
    n = 7
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1)
             for j in range(n + 3)] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    pivots = {}
    for col in range(20):
        vec = {(col * k + k * k) % 31: Fraction(k - 3, k)
               for k in (1, 2, 4, 5)}
        while vec:
            r = min(vec)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = {k: v / vec[r] for k, v in vec.items()}
                break
            f = vec[r]
            for k, v in piv.items():
                nv = vec.get(k, 0) - f * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
    return rows, pivots


class SpeedSampler:
    """Timed runs of reference_work(): on demand, and, inside a `with`
    block, every REFERENCE_EVERY_S from a SIGALRM handler."""

    def __init__(self):
        self.readings = []      # (start, seconds)
        self.spent = 0.0        # total time spent on readings

    def sample(self, count=1):
        # Collection stays off while the kernel runs: a collection its
        # allocations set off would walk the program's heap, and that cost
        # belongs to program time, not to the reading.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                reference_work()
                dt = time.perf_counter() - t0
                self.readings.append((t0, dt))
                self.spent += dt
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S,
                         REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start, end):
        """REFERENCE_S over the median reading near [start, end]."""
        w = 2 * REFERENCE_EVERY_S
        near = [dt for t, dt in self.readings if start - w <= t <= end + w]
        return REFERENCE_S / statistics.median(near) if near else 1.0


@dataclass
class Sweep:
    walls: list = field(default_factory=list)      # raw seconds per pass
    scaled: list = field(default_factory=list)     # normalized pass times
    scales: list = field(default_factory=list)     # mean speed factor per pass
    latency: dict = field(default_factory=dict)    # key -> [normalized s]
    digests: dict = field(default_factory=dict)    # spec key -> digest
    failures: list = field(default_factory=list)
    attempted: int = 0

    @property
    def wall(self):
        """Median normalized pass time."""
        return statistics.median(self.scaled)


def sweep(wl, keys, cli, seaweed, ambients, expected, seconds, tracer=None):
    """Whole passes over `keys` until `seconds` is used, give or take half
    a pass (at least one pass).

    Untraced passes are sampled by the SIGALRM handler.  Traced passes
    are sampled only just before and after, which keeps the readings out
    of the spans.  Reports are kept and checked after each pass, outside
    the timed loop.
    """
    out = Sweep(latency={k: [] for k in keys})
    timings = []                # per pass: [(start, end, raw seconds)]
    speed = SpeedSampler()
    with speed if tracer is None else contextlib.nullcontext():
        while True:
            if tracer is not None:
                speed.sample(5)
            reports, marks = [], []
            start, spent = time.perf_counter(), speed.spent
            for key in keys:
                t0, s0 = time.perf_counter(), speed.spent
                if tracer is not None:
                    tracer.root("bench.spec", key)
                try:
                    rep, err = workloads.run_spec(wl, cli, seaweed, ambients,
                                                  key), None
                except Exception as exc:  # one bad spec must not lose the run
                    rep, err = None, f"{type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.close()
                t1 = time.perf_counter()
                marks.append((t0, t1, t1 - t0 - (speed.spent - s0)))
                reports.append((key, rep, err))
            out.walls.append(time.perf_counter() - start
                             - (speed.spent - spent))
            timings.append(marks)
            if tracer is not None:
                speed.sample(5)
            for key, rep, err in reports:
                out.attempted += 1
                why = [err] if err else checks.problems(wl, key, rep, expected)
                if rep is not None:
                    out.digests[key] = checks.digest(rep)
                if why:
                    out.failures.append({"spec": key, "problems": why})
            used = sum(out.walls) + out.walls[-1] / 2
            if tracer is not None or used > seconds:
                break
    for marks in timings:
        whole = marks[0][0], marks[-1][1]
        scaled = [raw * speed.scale(*((t0, t1) if tracer is None else whole))
                  for t0, t1, raw in marks]
        for key, t in zip(keys, scaled):
            out.latency[key].append(t)
        out.scaled.append(sum(scaled))
        out.scales.append(sum(scaled) / sum(raw for _, _, raw in marks))
    return out


def tail(values):
    """(p, value) for the highest percentile p with >= 10 samples beyond it."""
    xs = sorted(values)
    for p in range(99, 0, -1):
        k = math.ceil(p * len(xs) / 100) - 1
        if len(xs) - 1 - k >= 10:
            return p, xs[k]
    return 100, xs[-1]


def setup_times(wl):
    """Normalized set-up times, one per fresh subprocess."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    cmd += [f"{t}:{r}" for t, r in wl.types]
    out = []
    speed = SpeedSampler()
    for _ in range(SETUP_SAMPLES):
        speed.sample(5)
        t0 = time.perf_counter()
        raw = float(subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=150, check=True).stdout)
        t1 = time.perf_counter()
        speed.sample(5)
        out.append(raw * speed.scale(t0, t1))
    return out


def reset_caches(cli, seaweed, exactlin):
    """Empty the process-level caches, so a second pass starts cold again."""
    for cache in (getattr(cli, "_ambient", None),
                  getattr(seaweed, "_cached_build", None)):
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()
    inv = getattr(exactlin, "_INV_CACHE", None)
    if isinstance(inv, dict):
        inv.clear()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, seed, seconds, trace, expected):
    """Run one workload; returns (result line, full record)."""
    setup = [] if trace else setup_times(wl)
    sys.path.insert(0, str(SRC))
    from seaweedcoh import cli, exactlin, seaweed
    ambients = {t: cli._ambient(*t) for t in wl.types}
    keys = workloads.inputs(wl, seed, {k: v[1] for k, v in expected.items()})
    run = sweep(wl, keys, cli, seaweed, ambients, expected,
                0 if trace else seconds)
    per_spec = [statistics.median(run.latency[k]) for k in keys]
    tail_p, tail_value = tail(per_spec)
    record = {"specs": len(keys), "passes": len(run.walls),
              "raw_wall_s": min(run.walls), "pass_s": run.scaled,
              "speed_factors": run.scales,
              "tail_percentile": tail_p, "tail_samples": len(per_spec)}
    sweeps = [run]
    if trace:
        reset_caches(cli, seaweed, exactlin)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.root("bench.setup", "setup")
            t0 = time.perf_counter()
            ambients = {t: cli._ambient(*t) for t in wl.types}
            setup_wall = time.perf_counter() - t0
            tracer.close()
            traced = sweep(wl, keys, cli, seaweed, ambients, expected, 0,
                           tracer)
        finally:
            tracer.uninstall()
        sweeps.append(traced)
        metrics = _layer_metrics(tracer, run, traced, setup_wall)
        record["missing_targets"] = tracer.missing
        record["spans"] = tracer.spans
    else:
        metrics = {
            "wall_s": _metric(run.wall, "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "spec_p50_s": _metric(statistics.median(per_spec), "s"),
            "spec_tail_s": _metric(tail_value, "s"),
            "spec_max_s": _metric(max(per_spec), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
        record["setup_samples"] = setup
    attempted = sum(s.attempted for s in sweeps)
    failures = [f for s in sweeps for f in s.failures]
    if trace:
        metrics["check.fail_ratio"] = _metric(len(failures) / attempted,
                                              "ratio")
    record.update(walls=[s.walls for s in sweeps], failures=failures,
                  latency=run.latency, digests=run.digests)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, record


def _layer_metrics(tracer, untraced, traced, setup_wall):
    selves = tracer.self_times(lambda spec: True)
    metrics = {f"{name}_s": _metric(selves[name], "s")
               for name in tracing.LAYERS}
    counts = tracer.counts
    for name in tracing.COUNT_METRICS:
        metrics[name] = _metric(counts[name], "count")
    cols = counts["exactlin.rank_columns"]
    metrics["exactlin.rank_yield"] = _metric(
        counts["exactlin.rank_pivots"] / cols if cols else 0.0, "ratio")
    loop = tracer.self_times(lambda spec: spec != "setup")
    layer_sum = sum(v for k, v in loop.items() if not k.startswith("bench."))
    # cli.report's self time takes in everything no other span covers, so
    # the share without it is what the named layers explain.
    named_sum = layer_sum - loop.get("cli.report", 0.0)
    metrics.update({
        "trace.wall_s": _metric(traced.walls[0], "s"),
        "trace.untraced_wall_s": _metric(untraced.walls[0], "s"),
        "trace.overhead_ratio": _metric(traced.wall / untraced.wall, "ratio"),
        "trace.self_sum_s": _metric(layer_sum, "s"),
        "trace.coverage": _metric(layer_sum / traced.walls[0], "ratio"),
        "trace.named_coverage": _metric(named_sum / traced.walls[0],
                                        "ratio"),
        "trace.setup_s": _metric(setup_wall, "s"),
        "trace.spans": _metric(len(tracer.spans), "count"),
    })
    return metrics


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "seaweedcoh").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seaweedcoh" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'seaweedcoh'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    try:
        result, record = measure(wl, args.seed, args.seconds, args.trace,
                                 checks.load_expected())
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    context = {"workload": wl.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "commit": _commit(), "src_sha256": _src_digest()}
    context.update((k, record[k]) for k in
                   ("specs", "passes", "raw_wall_s", "pass_s",
                    "speed_factors", "tail_percentile", "tail_samples"))
    context["failures"] = record["failures"][:5]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({**context, **record, "result": result}, fh)
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
