"""Reference oracle: per-column completion and round assembly.

Before the compiled round plan, ``TransformResult.complete_assignments``
scattered every primary input, defined and free variable into a batch-major
matrix one column at a time (the defined values came back from ``simulate``
as a name dict), and ``GradientSATSampler._assemble`` built the input matrix
the same way before completing it.  The library now routes whole groups of
variable-major rows through ``intp`` index maps; these originals pin it bit
for bit:

* :func:`complete_reference` — the per-column completion loop, verbatim;
* :func:`assemble_reference` — the sampler's original assembly step, drawing
  from the sampler's generator in the same order and validating with the
  clause-loop CNF reference;
* :func:`use_reference_assembly` — installs it for one test, so a sampler
  run on the oracle can be compared with a compiled-round run.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.circuit.simulate import simulate
from repro.core.extraction import VAR_PREFIX
from repro.core.sampler import GradientSATSampler
from tests.oracles.cnf import evaluate_batch_reference


def complete_reference(
    transform, input_matrix, free_values: Optional[np.ndarray] = None
) -> np.ndarray:
    """The original per-column ``complete_assignments`` (batch-major)."""
    input_matrix = np.asarray(input_matrix, dtype=np.bool_)
    batch = input_matrix.shape[0]
    if input_matrix.shape[1] != len(transform.primary_inputs):
        raise ValueError(
            f"expected {len(transform.primary_inputs)} input columns, "
            f"got {input_matrix.shape[1]}"
        )
    full = np.zeros((batch, transform.num_variables), dtype=np.bool_)
    for column, name in enumerate(transform.primary_inputs):
        index = int(name[len(VAR_PREFIX):])
        full[:, index - 1] = input_matrix[:, column]

    defined_names = [name for name, _ in transform.definitions]
    if defined_names:
        values = simulate(
            transform.circuit,
            input_matrix,
            input_order=transform.primary_inputs,
            nets=defined_names,
        )
        for name in defined_names:
            index = int(name[len(VAR_PREFIX):])
            full[:, index - 1] = values[name]

    if transform.free_variables:
        if free_values is None:
            free_values = np.zeros((batch, len(transform.free_variables)), dtype=np.bool_)
        free_values = np.asarray(free_values, dtype=np.bool_)
        for column, name in enumerate(transform.free_variables):
            index = int(name[len(VAR_PREFIX):])
            full[:, index - 1] = free_values[:, column]
    return full


def assemble_reference(
    sampler: GradientSATSampler, constrained_bits
) -> Tuple[np.ndarray, np.ndarray]:
    """The sampler's original assembly: per-column input scatter, then completion."""
    transform = sampler.transform
    batch_size = constrained_bits.shape[0]
    input_matrix = np.zeros((batch_size, len(transform.primary_inputs)), dtype=np.bool_)
    column_of = {name: i for i, name in enumerate(transform.primary_inputs)}
    constrained = transform.constrained_inputs()
    unconstrained = transform.unconstrained_inputs()
    for source_column, name in enumerate(constrained):
        input_matrix[:, column_of[name]] = constrained_bits[:, source_column]
    if unconstrained:
        draws = sampler._rng.random((batch_size, len(unconstrained)))
        if sampler._unconstrained_probs is not None:
            random_bits = draws < sampler._unconstrained_probs
        else:
            random_bits = draws < 0.5
        for source_column, name in enumerate(unconstrained):
            input_matrix[:, column_of[name]] = random_bits[:, source_column]
    free_values = None
    if transform.free_variables:
        free_draws = sampler._rng.random((batch_size, len(transform.free_variables)))
        if sampler._free_probs is not None:
            free_values = free_draws < sampler._free_probs
        else:
            free_values = free_draws < 0.5
    assignments = complete_reference(transform, input_matrix, free_values)
    valid_mask = evaluate_batch_reference(sampler.formula, assignments)
    return assignments, valid_mask


def use_reference_assembly(monkeypatch) -> None:
    """Run every ``GradientSATSampler`` round through :func:`assemble_reference`."""
    monkeypatch.setattr(GradientSATSampler, "_assemble", assemble_reference)
