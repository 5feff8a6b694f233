#!/usr/bin/env python3
"""Scaling study: batch size, execution style and memory (Fig. 3 / Fig. 4 in miniature).

Reproduces the paper's learning-dynamics analysis on one instance:

* unique solutions vs GD iterations (Fig. 3 left),
* modelled memory vs batch size (Fig. 3 right),
* batch-parallel (``chunk_size=0``) vs per-sample (``chunk_size=1``)
  execution time (Fig. 4 left),
* the operation reduction achieved by the transformation (Fig. 4 middle).

Run with:  python examples/scaling_study.py
"""

import time

from repro import GradientSATSampler, SamplerConfig, transform_cnf
from repro.eval.figures import estimate_training_memory_mb
from repro.eval.report import render_rows, render_series
from repro.instances import get_instance

INSTANCE = "90-10-10-q"


def main() -> None:
    formula, _ = get_instance(INSTANCE).build()
    transform = transform_cnf(formula)
    print(f"Instance {INSTANCE}: {formula.num_variables} variables, "
          f"{formula.num_clauses} clauses, ops reduction "
          f"{transform.stats.operations_reduction:.1f}x\n")

    # Fig. 3 (left): learning curve.
    config = SamplerConfig.paper_defaults(batch_size=2048, seed=0)
    sampler = GradientSATSampler(formula, transform=transform, config=config)
    curve = sampler.learning_curve(max_iterations=10, batch_size=2048)
    print(render_series(
        {INSTANCE: list(enumerate(curve))},
        x_label="iteration", y_label="unique solutions",
        title="Learning curve (Fig. 3 left)",
    ))

    # Fig. 3 (right): memory model across batch sizes.
    memory_rows = [
        {"batch_size": batch, "memory_mb": estimate_training_memory_mb(transform.circuit, batch)}
        for batch in (100, 1_000, 10_000, 100_000, 1_000_000)
    ]
    print(render_rows(memory_rows, title="GPU-memory model vs batch size (Fig. 3 right)"))

    # Fig. 4 (left): vectorised vs per-sample execution of the same batch.
    timing_rows = []
    for label, chunk_size in (("vectorised (chunk_size=0)", 0),
                              ("per-sample loop (chunk_size=1)", 1)):
        run_config = config.with_(batch_size=64, chunk_size=chunk_size, max_rounds=1)
        run_sampler = GradientSATSampler(formula, transform=transform, config=run_config)
        start = time.perf_counter()
        result = run_sampler.sample(num_solutions=64)
        timing_rows.append(
            {
                "execution": label,
                "seconds": round(time.perf_counter() - start, 4),
                "unique": result.num_unique,
            }
        )
    speedup = timing_rows[1]["seconds"] / timing_rows[0]["seconds"]
    print(render_rows(timing_rows, title="Execution style comparison (Fig. 4 left)"))
    print(f"Batch-parallel speedup over per-sample execution: {speedup:.1f}x")


if __name__ == "__main__":
    main()
