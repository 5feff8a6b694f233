#!/usr/bin/env python3
"""Generate the measured numbers recorded in EXPERIMENTS.md.

Runs the full Table II protocol plus every figure builder at the scale used
for the committed EXPERIMENTS.md, and prints the results as plain text (the
maintainer pastes/updates the tables from this output).

Usage:  python scripts/generate_experiment_report.py [--quick]
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import SamplerConfig
from repro.eval.figures import (
    fig2_latency_vs_solutions,
    fig3_learning_curve,
    fig3_memory_vs_batch,
    fig4_gpu_speedup,
    fig4_ops_reduction,
    fig4_transform_time,
)
from repro.eval.report import render_rows, render_series
from repro.eval.tables import build_table2, render_table2
from repro.instances.registry import FIGURE_INSTANCES, TABLE2_INSTANCES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller budgets (useful for smoke-testing the script)")
    arguments = parser.parse_args()

    if arguments.quick:
        num_solutions, timeout = 30, 10.0
        batch_size = 512
    else:
        num_solutions, timeout = 200, 30.0
        batch_size = 2048
    config = SamplerConfig.paper_defaults(batch_size=batch_size, seed=0, max_rounds=16)

    print("=" * 100)
    print(f"Table II  (>= {num_solutions} unique solutions, {timeout:.0f} s timeout per sampler)")
    print("=" * 100)
    rows = build_table2(
        instance_names=TABLE2_INSTANCES,
        num_solutions=num_solutions,
        timeout_seconds=timeout,
        config=config,
    )
    print(render_table2(rows))

    print("=" * 100)
    print("Fig. 2  latency (ms) vs unique solutions")
    print("=" * 100)
    series = fig2_latency_vs_solutions(
        instance_names=FIGURE_INSTANCES,
        solution_counts=(10, 50, 200),
        timeout_seconds=timeout,
        config=config,
    )
    print(render_series(series, x_label="unique", y_label="latency_ms"))

    print("=" * 100)
    print("Fig. 3 (left)  unique solutions vs GD iterations")
    print("=" * 100)
    curves = fig3_learning_curve(instance_names=FIGURE_INSTANCES, max_iterations=10,
                                 batch_size=batch_size, config=config)
    print(render_series(curves, x_label="iteration", y_label="unique"))

    print("=" * 100)
    print("Fig. 3 (right)  memory model (MB) vs batch size")
    print("=" * 100)
    memory = fig3_memory_vs_batch(instance_names=FIGURE_INSTANCES)
    print(render_series(memory, x_label="batch", y_label="MB"))

    print("=" * 100)
    print("Fig. 4  (left) chunk_size 0 vs 1, (middle) ops reduction, (right) transform time")
    print("=" * 100)
    speedups = fig4_gpu_speedup(instance_names=FIGURE_INSTANCES, batch_size=64,
                                num_solutions=64, config=config)
    reductions = fig4_ops_reduction(instance_names=FIGURE_INSTANCES)
    times = fig4_transform_time(instance_names=FIGURE_INSTANCES)
    combined = [
        {
            "instance": name,
            "gpu_speedup": speedups[name]["speedup"],
            "ops_reduction": reductions[name],
            "transform_seconds": times[name],
        }
        for name in FIGURE_INSTANCES
    ]
    print(render_rows(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
