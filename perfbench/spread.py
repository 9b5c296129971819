"""Run a workload over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload ec-char2 --seeds 0-9 [--seconds 20]

Runs are sequential, one fresh process each, from the root of the tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="a range such as 0-9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed",
                  file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    if len(next(iter(values.values()))) < 2:
        return 0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs)
        print(f"{args.workload} {m['name']}: median {statistics.median(xs):.4g} {m['unit']}, "
              f"spread {spread:.3f} (bound {m['bound']}, a third {m['bound'] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
