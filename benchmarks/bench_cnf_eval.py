"""CNF evaluation kernel vs the clause-loop reference.

Every sampling round ends in CNF validation plus unique-solution dedup, so
their cost bounds the whole pipeline once the GD loop is compiled.  This
benchmark times one validation step — ``evaluate_batch`` over a candidate
batch followed by ``SolutionSet.add_batch`` dedup — on the largest registry
instance, comparing the compiled kernel against the original
clause-by-clause loop with row-by-row dedup, and rewrites
``BENCH_cnf_eval.json`` with the latest record; committing the file each PR
accumulates the kernel's perf trajectory in version history.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Set

import numpy as np
import pytest

from repro.obs.bench import time_passes
from benchmarks.conftest import cnf_bench_batch, cnf_eval_min_speedup
from repro.core.solutions import SolutionSet
from repro.core.transform import transform_cnf

#: Where the kernel-vs-reference comparison records its trajectory.
BENCH_CNF_EVAL_JSON = Path(__file__).resolve().parent.parent / "BENCH_cnf_eval.json"


def _reference_add_batch(
    keys: Set[bytes], rows: List[np.ndarray], matrix: np.ndarray, mask: np.ndarray
) -> int:
    """The pre-kernel ``SolutionSet.add_batch``: packed keys, Python row loop."""
    matrix = matrix[mask]
    if matrix.shape[0] == 0:
        return 0
    packed = np.packbits(matrix, axis=1)
    added = 0
    for row_index in range(matrix.shape[0]):
        key = packed[row_index].tobytes()
        if key in keys:
            continue
        keys.add(key)
        rows.append(matrix[row_index].copy())
        added += 1
    return added


@pytest.mark.benchmark(group="cnf-eval")
def test_cnf_kernel_vs_reference(benchmark, largest_instance):
    """Compiled-kernel vs clause-loop validation+dedup on the largest instance."""
    entry, formula = largest_instance
    batch = cnf_bench_batch()
    rng = np.random.default_rng(0)
    # Candidates come from the transform like the sampler's, so most rows are
    # valid: uniformly random rows would all be unsatisfying and let the
    # clause loop's all-rows-dead early exit skip the very work the real
    # validation path has to do.
    transform = transform_cnf(formula)
    inputs = rng.random((batch, len(transform.primary_inputs))) < 0.5
    free = None
    if transform.free_variables:
        free = rng.random((batch, len(transform.free_variables))) < 0.5
    candidates = transform.complete_assignments(inputs, free)
    # Half the batch duplicates earlier rows, like a converged GD batch, so
    # the dedup path has real work to do.
    candidates[batch // 2 :] = candidates[: batch - batch // 2]
    plan = formula.evaluation_plan()  # compile outside the timed region
    reference_valid = formula.evaluate_batch(candidates, backend="reference")
    assert reference_valid.any(), (
        "benchmark candidates must include satisfying rows to defeat the "
        "reference loop's early exit"
    )

    # Dedup runs over the full batch (mask of ones) in both contenders, so
    # the validation cost and the dedup cost are both exercised.
    all_rows = np.ones(batch, dtype=bool)

    def reference_step():
        formula.evaluate_batch(candidates, backend="reference")
        _reference_add_batch(set(), [], candidates, all_rows)

    def compiled_step():
        valid = formula.evaluate_batch(candidates, backend="compiled")
        SolutionSet(formula.num_variables).add_batch(candidates)
        return valid

    # Both backends must agree before any timing is trusted.
    assert np.array_equal(formula.evaluate_batch(candidates, backend="compiled"), reference_valid)

    passes, repeats = 5, 3
    reference_seconds = time_passes(reference_step, repeats, passes, reduce="best")
    compiled_seconds = benchmark.pedantic(
        lambda: time_passes(compiled_step, repeats, passes, reduce="best"), rounds=1, iterations=1
    )
    speedup = reference_seconds / compiled_seconds
    record = {
        "instance": entry.name,
        "variables": formula.num_variables,
        "clauses": formula.num_clauses,
        "literals": plan.num_literals,
        "batch_size": batch,
        "passes_timed": passes,
        "reference_seconds": reference_seconds,
        "compiled_seconds": compiled_seconds,
        "reference_passes_per_second": passes / reference_seconds,
        "compiled_passes_per_second": passes / compiled_seconds,
        "speedup": speedup,
    }
    benchmark.extra_info.update(record)
    BENCH_CNF_EVAL_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(
        f"{entry.name}: compiled {record['compiled_passes_per_second']:.1f} "
        f"eval+dedup passes/s vs clause-loop "
        f"{record['reference_passes_per_second']:.1f} passes/s "
        f"({speedup:.1f}x, batch {batch})"
    )
    minimum = cnf_eval_min_speedup()
    assert speedup >= minimum, (
        f"compiled CNF kernel must be at least {minimum}x faster than the "
        f"clause-loop reference, got {speedup:.2f}x"
    )
