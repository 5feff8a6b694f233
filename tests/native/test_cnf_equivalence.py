"""CNF evaluation on hosts with the C tier, pinned to the clause-loop oracle.

CNF evaluation has one implementation, the compiled NumPy plan, whichever
engine tier the platform picks: the native CNF kernel is deleted (on the
variable-major rows the sampler validates it did not beat the plan).  These
checks pin the plan to ``tests/oracles/cnf.py`` with the C tier up and with
the NumPy tier forced, and pin that no native CNF path is left to select.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.cnf.formula import CNF
from tests.native.conftest import TIER, numpy_tier
from tests.oracles.cnf import evaluate_batch_reference


def _random_matrix(seed: int, batch: int, num_variables: int) -> np.ndarray:
    return np.random.default_rng(seed).random((batch, num_variables)) < 0.5


def _assert_matches_oracle(formula: CNF, matrix: np.ndarray) -> None:
    """Satisfaction equals the oracle on both tiers."""
    expected = evaluate_batch_reference(formula, matrix)
    for tier_context in (nullcontext, numpy_tier):
        with tier_context():
            result = formula.evaluate_batch(matrix)
        assert result.dtype == np.bool_
        np.testing.assert_array_equal(result, expected)


@pytest.mark.parametrize("tier", [TIER or "missing"])
class TestHypothesisEquivalence:
    """Random CNFs over every width bucket, bitwise vs the oracle.

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
        _assert_matches_oracle(formula, _random_matrix(seed, batch, num_variables))


class TestStructuredFormulas:
    """Hand-built shapes covering every special case of the plan."""

    def test_empty_clause_falsifies_every_row(self, tier):
        formula = CNF([[1, 2], []], num_variables=2)
        matrix = _random_matrix(0, 9, 2)
        assert not formula.evaluate_batch(matrix).any()
        _assert_matches_oracle(formula, matrix)

    def test_formula_with_no_clauses_satisfies_every_row(self, tier):
        formula = CNF([], num_variables=3)
        matrix = _random_matrix(1, 5, 3)
        np.testing.assert_array_equal(formula.evaluate_batch(matrix), np.ones(5, dtype=bool))
        _assert_matches_oracle(formula, matrix)

    def test_empty_batch(self, tier):
        formula = CNF([[1, -2], [2]], num_variables=2)
        assert formula.evaluate_batch(np.zeros((0, 2), dtype=bool)).shape == (0,)
        _assert_matches_oracle(formula, np.zeros((0, 2), dtype=bool))

    def test_every_width_bucket(self, tier):
        # One clause per width 1..6 over 8 variables, plus a unit negation.
        clauses = [list(range(1, 1 + w)) for w in range(1, 7)] + [[-8]]
        formula = CNF(clauses, num_variables=8)
        _assert_matches_oracle(formula, _random_matrix(2, 129, 8))

    def test_word_boundary_batches(self, tier):
        formula = CNF([[1, -2, 3], [-1, 2], [3]], num_variables=3)
        for batch in (1, 63, 64, 65, 128):
            _assert_matches_oracle(formula, _random_matrix(batch, batch, 3))


class TestBackendDispatch:
    """No native CNF path is left to select."""

    def test_env_var_selects_native(self, tier, monkeypatch):
        # REPRO_CNF_BACKEND is no longer read; "native" there changes nothing.
        monkeypatch.setenv("REPRO_CNF_BACKEND", "native")
        formula = CNF([[1, 2], [-1, 2]], num_variables=2)
        _assert_matches_oracle(formula, _random_matrix(3, 17, 2))
        kernels = native.kernels_for(None)
        assert not hasattr(kernels, "cnf_evaluate")

    def test_native_backend_without_tiers_fails_loudly(self):
        formula = CNF([[1]], num_variables=1)
        matrix = np.zeros((2, 1), dtype=bool)
        with pytest.raises(TypeError, match="backend"):
            formula.evaluate_batch(matrix, backend="native")
