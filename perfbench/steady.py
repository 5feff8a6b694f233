"""Steadiness self-check: is every end-to-end metric steady within its bound?

    python3 perfbench/steady.py [--sets 2]

Runs ``perfbench/run.py`` ``RUNS`` times on every workload of
``BENCHMARK.json`` for its ``run_seconds``, each run in its own process with
its own seed, and prints for every metric its median, its quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(Q3 - Q1) / median`` next to the metric's bound.  A spread is flagged when
it is not below a third of the bound.  With ``--sets 2`` the whole set is
repeated with fresh seeds and the second median's move against the first is
compared with the bound as well.  ``setup_s`` is exempt from the spread rule
but not from the median rule.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Runs per workload and set, and the seed of the first run.
RUNS = 10
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    steady = True
    seed = FIRST_SEED
    for workload in (workload["name"] for workload in spec["workloads"]):
        medians: List[Dict[str, float]] = []
        for set_index in range(args.sets):
            values: Dict[str, List[float]] = {name: [] for name in metrics}
            for _ in range(RUNS):
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"] or result["failed"]:
                    steady = False
                    print(f"{workload} seed {seed}: {result['failed']} failed jobs")
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
                print(
                    f"{workload} seed {seed}: "
                    + " ".join(f"{name}={values[name][-1]:.4g}" for name in metrics),
                    flush=True,
                )
                seed += 1
            medians.append({})
            print(f"\n{workload} set {set_index + 1} ({RUNS} runs)")
            print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for name, metric in metrics.items():
                median = statistics.median(values[name])
                medians[-1][name] = median
                q1, _, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / median if median else float("inf")
                flag = ""
                if name != "setup_s" and not spread < metric["bound"] / 3:
                    flag = "  <- spread"
                    steady = False
                print(
                    f"  {name:34} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}"
                    f" {metric['bound']:>6}{flag}"
                )
            if len(medians) > 1:
                for name, metric in metrics.items():
                    moved = worse_by(medians[0][name], medians[-1][name], metric["better"])
                    flag = "  <- median" if moved > metric["bound"] else ""
                    if flag:
                        steady = False
                    print(f"  {name}: median worse by {moved:+.3f}, bound {metric['bound']}{flag}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
