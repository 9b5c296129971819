"""Run one agmds benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ec-char2 --seed 0 --seconds 25 --trace 0

Run from the root of a source tree; agmds is imported from ``src/``.  With
``--trace 0`` the run sets up (import plus field tables, in this process and
in fresh interpreters), repeats seeded batches of ops until ``--seconds`` is
spent, checks every output and reports the end-to-end metrics, corrected for
the host's speed (see hostspeed.py) and with the raw times beside them.
op_tail_s and fail_ratio are printed too; they are not in BENCHMARK.json
because workloads with fewer than 20 ops have no tail and fail_ratio is 0
when nothing fails.  With ``--trace 1`` it runs batch 0 untraced and again
traced, times the layer kernels and reports the per-layer metrics.  Metric
names and units come from BENCHMARK.json.  Human-readable lines come first;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build")
# Fresh interpreters that repeat the set-up; setup_s is the median over
# them and this process.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="agmds benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_agmds() -> float:
    """Import agmds from this tree's src/ and return the import time."""
    if not os.path.isfile(os.path.join(SRC, "agmds", "__init__.py")):
        fail(f"no agmds sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, ROOT)
    start = time.perf_counter()
    import agmds

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(agmds.__file__))) != SRC:
        fail(f"imported agmds from {agmds.__file__}, not from {SRC}")
    return elapsed


# -- run metadata -----------------------------------------------------------------


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def git_sha():
    """HEAD of the tree's git checkout, read from .git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the agmds sources, which names the code measured when the
    tree is not a git checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "agmds")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# -- set-up -------------------------------------------------------------------------


def timed_setup(workload, import_s: float) -> float:
    """Set-up time: the import plus the field tables."""
    from perfbench.workloads import build_tables

    start = time.perf_counter()
    build_tables(workload.fields)
    return import_s + time.perf_counter() - start


def probe_setup(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- batches ----------------------------------------------------------------------------


@dataclass
class BatchResult:
    """Start and end of one batch and, per op, its start, end and outcome
    (None when the op passed its check, else the reason it failed)."""

    interval: tuple
    op_intervals: list
    outcomes: list
    labels: list

    @property
    def wall_s(self) -> float:
        return self.interval[1] - self.interval[0]

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.op_intervals]


def run_batch(steps, tracer=None) -> BatchResult:
    outputs = [None] * len(steps)
    errors = [None] * len(steps)
    intervals = [None] * len(steps)
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        start = clock()
        for i, step in enumerate(steps):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                outputs[i] = step.run()
            except Exception as exc:  # an op that raises is a failed op
                if not step.is_op:
                    raise
                errors[i] = f"raised {type(exc).__name__}: {exc}"
            intervals[i] = (t0, clock())
        end = clock()
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = [i for i, step in enumerate(steps) if step.is_op]
    outcomes = []
    for i in ops:
        reason = errors[i]
        if reason is None:
            try:
                reason = steps[i].check(outputs[i])
            except Exception as exc:  # a check that cannot read the output fails it
                reason = f"check raised {type(exc).__name__}: {exc}"
        outcomes.append(reason)
    return BatchResult(
        (start, end), [intervals[i] for i in ops], outcomes, [steps[i].label for i in ops]
    )


def batch_dir(index: int) -> str:
    path = os.path.join(SCRATCH, f"perfbench-{os.getpid()}", f"batch-{index}")
    os.makedirs(path)
    return path


def run_checked_batch(workload, seed: int, index: int, tracer=None) -> BatchResult:
    scratch = batch_dir(index if tracer is None else f"{index}-traced")
    try:
        return run_batch(workload.batch(seed, index, scratch), tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- reporting ------------------------------------------------------------------------------


def report_failures(results) -> None:
    shown = 0
    for r in results:
        for label, reason in zip(r.labels, r.outcomes):
            if reason is not None and shown < 5:
                print(f"perfbench: op failed: {label}: {reason}", file=sys.stderr)
                shown += 1


def emit(lines, results, metrics: dict, units: dict) -> None:
    from perfbench.stats import fail_counts

    attempted, failed = fail_counts(o for r in results for o in r.outcomes)
    for line in lines:
        print(line)
    print(f"fail_ratio   {failed / attempted:.4f} ({failed} of {attempted} ops)")
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(doc))


def end_to_end(args, workload, import_s: float):
    from perfbench.hostspeed import SpeedSampler, speed_factor
    from perfbench.stats import tail_percentile

    setups = [timed_setup(workload, import_s)]
    setups += [probe_setup(workload.name) for _ in range(SETUP_PROBES)]
    results = []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            results.append(run_checked_batch(workload, args.seed, len(results)))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(results) > args.seconds:
                break
    walls = [sampler.correct(*r.interval) for r in results]
    latencies = [sampler.correct(*op) for r in results for op in r.op_intervals]
    raw_latencies = [t for r in results for t in r.latencies]
    # Set-up runs just before the batches, so the run's host speed stands
    # for the speed during set-up too.
    speed = speed_factor(sampler.probe_s)
    metrics = {
        "setup_s": statistics.median(setups) / speed,
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = tail_percentile(latencies)
    tail_line = (
        f"op_tail_s    {tail[1]:.6f} s (p{tail[0]:g} of {tail[2]} ops)" if tail
        else f"op_tail_s    not reported: {len(latencies)} ops < 20"
    )
    lines = [
        f"host speed   probe {speed:.3f}x its reference time "
        f"over {len(sampler.probe_s)} probes; times below are corrected, raw in brackets",
        f"setup_s      {metrics['setup_s']:.4f} s [{statistics.median(setups):.4f}]"
        f" (median of {len(setups)} fresh set-ups)",
        f"wall_s       {metrics['wall_s']:.4f} s [{statistics.median(r.wall_s for r in results):.4f}]"
        f" (median of {len(results)} batches of {len(results[0].op_intervals)} ops)",
        f"op_p50_s     {metrics['op_p50_s']:.6f} s [{statistics.median(raw_latencies):.6f}]"
        f" ({len(latencies)} ops)",
        tail_line,
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
    ]
    report_failures(results)
    return lines, results, metrics


def traced(args, workload, units: dict):
    from perfbench import kernels
    from perfbench.tracer import FIELD_TABLES, Tracer
    from perfbench.workloads import build_tables

    tracer = Tracer()
    tracer.install()
    try:
        build_tables(workload.fields)
    finally:
        tracer.uninstall()
    tables_s = tracer.seconds(f"field.{name}" for name in FIELD_TABLES)
    tracer.reset()
    plain = run_checked_batch(workload, args.seed, 0)
    traced_run = run_checked_batch(workload, args.seed, 0, tracer)
    metrics = {name: 0 for name in units}
    metrics.update(tracer.metrics())
    metrics.update(kernels.field_kernels(args.seed))
    metrics.update(kernels.linalg_kernels(args.seed))
    metrics["field.tables_s"] = tables_s
    metrics["trace_overhead"] = traced_run.wall_s / plain.wall_s
    lines = [f"wall_s untraced {plain.wall_s:.4f} s, traced {traced_run.wall_s:.4f} s, "
             f"{len(tracer.spans)} spans"]
    lines += [f"{name:<44} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    results = [plain, traced_run]
    report_failures(results)
    return lines, results, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_agmds()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(timed_setup(workload, import_s))
        return 0
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git": git_sha(),
        "src_sha256": source_digest(), "loadavg_start": loadavg(),
    }
    try:
        if args.trace:
            lines, results, metrics = traced(args, workload, units)
        else:
            lines, results, metrics = end_to_end(args, workload, import_s)
    finally:
        shutil.rmtree(os.path.join(SCRATCH, f"perfbench-{os.getpid()}"), ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # absent, or holding other runs' files
            pass
    meta["loadavg_end"] = loadavg()
    print("meta " + json.dumps(meta))
    emit(lines, results, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
