"""Projected dedup and weighted initialization, pinned against oracles.

Three contracts:

* :class:`SolutionSet` with ``project`` keys uniqueness on the projected
  columns while storing full-width witness rows — checked against a naive
  first-witness oracle under hypothesis;
* the weighted sampler biases only the *initialization* and stays valid —
  every solution still satisfies the CNF, and free/unconstrained marginals
  follow the weights;
* the **default task is bitwise free**: with a fixed seed the sampler
  produces the exact same candidate bit-stream with ``task=None``, the
  default task, and even an explicit 0.5 weight (which compiles to no bias
  vectors at all).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import CNF
from tests.corpus.generators import planted_ksat
from repro.core.config import SamplerConfig
from repro.core.pipeline import sample_cnf
from repro.core.sampler import GradientSATSampler
from repro.core.solutions import SolutionSet
from repro.core.task import DEFAULT_TASK, SamplingTask


def planted() -> CNF:
    return planted_ksat(16, 40, 3, seed=11)


def config(**overrides) -> SamplerConfig:
    settings = dict(seed=3, batch_size=128, max_rounds=4)
    settings.update(overrides)
    return SamplerConfig(**settings)


# -- SolutionSet projection ---------------------------------------------------------------

def projected_oracle(matrix: np.ndarray, columns):
    """First full-row witness of each projected pattern, in stream order."""
    witnesses, seen = [], set()
    for row in matrix:
        key = tuple(bool(v) for v in row[list(columns)])
        if key not in seen:
            seen.add(key)
            witnesses.append(row)
    return np.array(witnesses, dtype=bool).reshape(len(witnesses), matrix.shape[1])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_projected_add_batch_matches_first_witness_oracle(data):
    num_variables = data.draw(st.integers(1, 8), label="num_variables")
    num_rows = data.draw(st.integers(0, 40), label="rows")
    columns = data.draw(
        st.lists(
            st.integers(0, num_variables - 1), min_size=1, max_size=num_variables,
            unique=True,
        ),
        label="projection",
    )
    bits = data.draw(
        st.lists(
            st.lists(st.booleans(), min_size=num_variables, max_size=num_variables),
            min_size=num_rows, max_size=num_rows,
        ),
        label="bits",
    )
    matrix = np.array(bits, dtype=bool).reshape(num_rows, num_variables)
    solutions = SolutionSet(num_variables, project=columns)
    split = num_rows // 2
    solutions.add_batch(matrix[:split])
    solutions.add_batch(matrix[split:])
    expected = projected_oracle(matrix, sorted(set(columns)))
    np.testing.assert_array_equal(solutions.to_matrix(), expected)
    # add() agrees with add_batch()
    one_by_one = SolutionSet(num_variables, project=columns)
    for row in matrix:
        one_by_one.add(row)
    np.testing.assert_array_equal(one_by_one.to_matrix(), expected)


def test_projected_set_basics():
    solutions = SolutionSet(4, project=[2, 0])
    assert solutions.project == (0, 2)
    assert solutions.add([True, False, False, False])
    assert not solutions.add([True, True, False, True])  # same projected pattern
    assert solutions.contains([True, False, False, True])
    assert len(solutions) == 1
    # stored row is the full-width first witness
    np.testing.assert_array_equal(
        solutions.to_matrix(), [[True, False, False, False]]
    )


def test_projection_bounds_validated():
    with pytest.raises(ValueError):
        SolutionSet(4, project=[4])
    with pytest.raises(ValueError):
        SolutionSet(4, project=[-1])
    assert SolutionSet(4, project=[]).project is None  # empty = unprojected


# -- default-task bitwise identity --------------------------------------------------------

def test_default_task_fixed_seed_bit_stream_identity():
    formula = planted()
    runs = []
    for task in (None, DEFAULT_TASK, SamplingTask(weights=((1, 0.5), (7, 0.5)))):
        sampler = GradientSATSampler(formula, config=config(), task=task)
        result = sampler.sample(num_solutions=30)
        runs.append(result.solution_matrix())
    assert runs[0].shape[0] > 0
    np.testing.assert_array_equal(runs[0], runs[1])
    # A literal 0.5 weight compiles to *no* bias/probability vectors, so even
    # a technically-weighted task keeps the exact candidate bit-stream.
    np.testing.assert_array_equal(runs[0], runs[2])


def test_projected_run_finds_same_patterns_as_projecting_a_default_run():
    formula = planted()
    columns = (0, 1, 2)
    # One round each: identical candidate streams, so the projected run's
    # pattern sequence must equal the default run's patterns after projection.
    default = sample_cnf(formula, num_solutions=10**6, config=config(max_rounds=1))
    projected = sample_cnf(
        formula,
        num_solutions=10**6,
        config=config(max_rounds=1),
        task=SamplingTask.build(project=[1, 2, 3]),
    )
    oracle = projected_oracle(default.sample.solution_matrix(), columns)
    np.testing.assert_array_equal(
        projected.sample.solution_matrix()[:, list(columns)],
        oracle[:, list(columns)],
    )


# -- weighted sampling --------------------------------------------------------------------

def test_weighted_solutions_stay_valid_and_marginals_shift():
    # Variables 17/18 appear in no clause: they are free, so their weighted
    # Bernoulli draws are directly observable in the solutions.
    base = planted()
    formula = CNF(
        [list(clause) for clause in base.clauses],
        num_variables=18,
        name="free-tail",
    )
    task = SamplingTask.build(weights={17: 0.95, 18: 0.05, 1: 0.9})
    result = sample_cnf(
        formula, num_solutions=200, config=config(batch_size=512, max_rounds=4),
        task=task,
    )
    matrix = result.sample.solution_matrix()
    assert matrix.shape[0] >= 50
    assert formula.evaluate_batch(matrix).all()
    assert matrix[:, 16].mean() > 0.75   # weighted towards 1
    assert matrix[:, 17].mean() < 0.25   # weighted towards 0
    assert result.sample.task_kind == "weighted"


def test_weight_validation_against_formula():
    formula = planted()
    with pytest.raises(ValueError):
        GradientSATSampler(
            formula, config=config(), task=SamplingTask.build(weights={99: 0.9})
        )


# -- result surface (satellite: summary fields) -------------------------------------------

def test_summary_surfaces_task_kind_and_projected_unique():
    formula = planted()
    result = sample_cnf(
        formula, num_solutions=4, config=config(),
        task=SamplingTask.build(project=[1, 2]),
    )
    summary = result.sample.summary()
    assert summary["task"] == "projected"
    assert summary["projected_unique"] == result.sample.num_unique
    assert summary["stopped_early"] is False
    default = sample_cnf(formula, num_solutions=4, config=config())
    assert default.sample.summary()["task"] == "default"
    assert default.sample.task_kind == "default"
