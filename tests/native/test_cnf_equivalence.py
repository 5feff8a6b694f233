"""Native CNF kernels pinned bitwise to the pure-Python/NumPy references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.cnf.formula import CNF
from repro.cnf.kernel import BACKENDS
from tests.native.conftest import TIER


def _random_matrix(seed: int, batch: int, num_variables: int) -> np.ndarray:
    return np.random.default_rng(seed).random((batch, num_variables)) < 0.5


def _assert_all_backends_agree(formula: CNF, matrix: np.ndarray) -> None:
    reference = formula.evaluate_batch(matrix, backend="reference")
    reference_counts = formula.unsatisfied_clause_counts(matrix, backend="reference")
    for backend in BACKENDS:
        np.testing.assert_array_equal(
            formula.evaluate_batch(matrix, backend=backend), reference
        )
        np.testing.assert_array_equal(
            formula.unsatisfied_clause_counts(matrix, backend=backend),
            reference_counts,
        )


@pytest.mark.parametrize("tier", [TIER or "missing"])
class TestHypothesisEquivalence:
    """Random CNFs over every width bucket, bitwise vs reference.

    Parametrised directly (not via the ``tier`` fixture) because Hypothesis
    flags function-scoped fixtures inside ``@given`` tests.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_cnfs_match_reference(self, tier, data):
        if tier == "missing":
            pytest.skip("no native kernel tier available on this host")
        num_variables = data.draw(st.integers(1, 14), label="num_variables")
        clauses = data.draw(
            st.lists(
                st.lists(
                    st.integers(1, num_variables).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=0,  # empty clauses falsify everything
                    max_size=7,
                ),
                min_size=0,
                max_size=16,
            ),
            label="clauses",
        )
        batch = data.draw(st.integers(0, 70), label="batch")
        seed = data.draw(st.integers(0, 2**20), label="seed")
        formula = CNF(clauses, num_variables=num_variables, name="hyp-native")
        matrix = _random_matrix(seed, batch, num_variables)
        plan = formula.evaluation_plan()
        kernels = native.kernels_for("native")
        result = kernels.cnf_evaluate(plan, matrix)
        counts = kernels.cnf_unsatisfied_counts(plan, matrix)
        assert result.dtype == np.bool_
        np.testing.assert_array_equal(
            result, formula.evaluate_batch(matrix, backend="reference")
        )
        np.testing.assert_array_equal(
            counts,
            formula.unsatisfied_clause_counts(matrix, backend="reference"),
        )
        # Satisfaction and falsified-count must also agree with each other.
        np.testing.assert_array_equal(result, counts == 0)


class TestStructuredFormulas:
    """Hand-built shapes covering every special case in the dispatch."""

    def test_empty_clause_falsifies_every_row(self, tier):
        formula = CNF([[1, 2], []], num_variables=2)
        matrix = _random_matrix(0, 9, 2)
        with native.use_kernel(tier):
            np.testing.assert_array_equal(
                formula.evaluate_batch(matrix, backend="native"),
                np.zeros(9, dtype=bool),
            )
            counts = formula.unsatisfied_clause_counts(matrix, backend="native")
        np.testing.assert_array_equal(
            counts, formula.unsatisfied_clause_counts(matrix, backend="reference")
        )

    def test_formula_with_no_clauses_satisfies_every_row(self, tier):
        formula = CNF([], num_variables=3)
        matrix = _random_matrix(1, 5, 3)
        kernels = native.kernels_for(tier)
        plan = formula.evaluation_plan()
        np.testing.assert_array_equal(
            kernels.cnf_evaluate(plan, matrix), np.ones(5, dtype=bool)
        )
        np.testing.assert_array_equal(
            kernels.cnf_unsatisfied_counts(plan, matrix), np.zeros(5, dtype=np.int64)
        )

    def test_empty_batch(self, tier):
        formula = CNF([[1, -2], [2]], num_variables=2)
        kernels = native.kernels_for(tier)
        plan = formula.evaluation_plan()
        assert kernels.cnf_evaluate(plan, np.zeros((0, 2), dtype=bool)).shape == (0,)

    def test_every_width_bucket(self, tier):
        # One clause per width 1..6 over 8 variables, plus a unit negation.
        clauses = [list(range(1, 1 + w)) for w in range(1, 7)] + [[-8]]
        formula = CNF(clauses, num_variables=8)
        matrix = _random_matrix(2, 129, 8)  # crosses the 64-lane word boundary
        with native.use_kernel(tier):
            _assert_all_backends_agree(formula, matrix)

    def test_word_boundary_batches(self, tier):
        formula = CNF([[1, -2, 3], [-1, 2], [3]], num_variables=3)
        kernels = native.kernels_for(tier)
        plan = formula.evaluation_plan()
        for batch in (1, 63, 64, 65, 128):
            matrix = _random_matrix(batch, batch, 3)
            np.testing.assert_array_equal(
                kernels.cnf_evaluate(plan, matrix),
                formula.evaluate_batch(matrix, backend="reference"),
            )


class TestBackendDispatch:
    def test_native_is_a_registered_backend(self):
        assert "native" in BACKENDS

    def test_env_var_selects_native(self, tier, monkeypatch):
        from repro.cnf.kernel import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        formula = CNF([[1, 2], [-1, 2]], num_variables=2)
        matrix = _random_matrix(3, 17, 2)
        with native.use_kernel(tier):
            np.testing.assert_array_equal(
                formula.evaluate_batch(matrix),  # default backend <- env
                formula.evaluate_batch(matrix, backend="reference"),
            )

    def test_native_backend_without_tiers_fails_loudly(self, monkeypatch):
        from repro.native import BackendUnavailableError

        monkeypatch.setattr(native, "_PROBE", (None, "cext off"))
        formula = CNF([[1]], num_variables=1)
        with pytest.raises(BackendUnavailableError):
            formula.evaluate_batch(np.zeros((2, 1), dtype=bool), backend="native")

    def test_python_kernel_mode_blocks_the_native_backend(self):
        from repro.native import BackendUnavailableError

        formula = CNF([[1]], num_variables=1)
        with native.use_kernel("python"):
            with pytest.raises(BackendUnavailableError, match="disabled"):
                formula.evaluate_batch(np.zeros((2, 1), dtype=bool), backend="native")
