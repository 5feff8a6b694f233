"""Ablation: design choices inside the transformation itself.

Two switches of ``transform_cnf`` are measured on the ablation instances:

* expression simplification before adoption (Algorithm 1 simplifies every
  accepted expression; turning it off shows how much of the ops reduction
  comes from simplification vs from structure recovery alone), and
* the gate-signature fast path (pattern matching Eqs. 1-4 before the generic
  complement-check extraction; turning it off measures its effect on
  transformation time).
"""

from __future__ import annotations

import time

import pytest

from repro.core.transform import transform_cnf
from repro.eval.report import render_rows
from repro.instances.registry import get_instance


@pytest.mark.benchmark(group="ablation")
def test_ablation_expression_simplification(benchmark, figure_instances):
    def run():
        rows = []
        for name in figure_instances:
            formula, _ = get_instance(name).build()
            with_simplify = transform_cnf(formula, simplify_expressions=True)
            without_simplify = transform_cnf(formula, simplify_expressions=False)
            rows.append(
                {
                    "instance": name,
                    "ops_reduction[simplify on]": with_simplify.stats.operations_reduction,
                    "ops_reduction[simplify off]": without_simplify.stats.operations_reduction,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_rows(rows, title="Ablation - expression simplification"))
    benchmark.extra_info["rows"] = rows
    for row in rows:
        assert row["ops_reduction[simplify on]"] >= row["ops_reduction[simplify off]"] * 0.9


@pytest.mark.benchmark(group="ablation")
def test_ablation_signature_fast_path(benchmark, figure_instances):
    def run():
        rows = []
        for name in figure_instances:
            formula, _ = get_instance(name).build()
            start = time.perf_counter()
            with_fast_path = transform_cnf(formula, use_signature_fast_path=True)
            fast_seconds = time.perf_counter() - start
            start = time.perf_counter()
            without_fast_path = transform_cnf(formula, use_signature_fast_path=False)
            slow_seconds = time.perf_counter() - start
            rows.append(
                {
                    "instance": name,
                    "seconds[fast path]": fast_seconds,
                    "seconds[generic only]": slow_seconds,
                    "signature_matches": with_fast_path.stats.signature_matches,
                    "ops_reduction[fast path]": with_fast_path.stats.operations_reduction,
                    "ops_reduction[generic only]": without_fast_path.stats.operations_reduction,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_rows(rows, title="Ablation - gate-signature fast path"))
    benchmark.extra_info["rows"] = rows
    # Both variants must recover a circuit with a real ops reduction.
    for row in rows:
        assert row["ops_reduction[fast path]"] > 1.0
        assert row["ops_reduction[generic only]"] > 1.0
