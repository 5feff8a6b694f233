"""Tests for the compiled CNF evaluation kernel (repro.cnf.kernel).

The compiled and packed backends must be bitwise-identical to the clause-loop
reference on arbitrary formulas — including unit clauses, empty clauses,
tautologies, duplicate literals, over-declared variables and zero-variable
formulas — which the hypothesis suite checks exhaustively over the full
assignment space of small random CNFs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.cnf.formula import CNF
from repro.cnf.kernel import (
    BACKENDS,
    compile_evaluation_plan,
    default_backend,
    set_default_backend,
)
from tests.conftest import all_assignments

#: Backends runnable on this host/configuration: "native" drops out when the
#: C tier cannot be brought up or kernels are disabled (REPRO_NATIVE=off).
RUNNABLE_BACKENDS = tuple(
    backend
    for backend in BACKENDS
    if backend != "native" or native.kernels_for(None) is not None
)


@st.composite
def random_cnfs(draw):
    """A small random CNF: mixed clause widths, possible empty clauses."""
    num_variables = draw(st.integers(0, 5))
    extra_declared = draw(st.integers(0, 2))
    num_clauses = draw(st.integers(0, 8))
    clauses = []
    for _ in range(num_clauses):
        if num_variables == 0:
            clauses.append([])
            continue
        clause = draw(
            st.lists(
                st.tuples(st.integers(1, num_variables), st.booleans()).map(
                    lambda pair: pair[0] if pair[1] else -pair[0]
                ),
                min_size=0,
                max_size=4,
            )
        )
        clauses.append(clause)
    return CNF(clauses, num_variables=num_variables + extra_declared, name="hyp")


class TestBackendEquivalence:
    @given(random_cnfs())
    @settings(max_examples=60, deadline=None)
    def test_all_backends_bitwise_identical(self, formula):
        matrix = all_assignments(formula.num_variables)
        reference = formula.evaluate_batch(matrix, backend="reference")
        for backend in RUNNABLE_BACKENDS:
            np.testing.assert_array_equal(
                formula.evaluate_batch(matrix, backend=backend),
                reference,
                err_msg=f"backend {backend} diverged on {formula!r}",
            )
        np.testing.assert_array_equal(
            formula.unsatisfied_clause_counts(matrix, backend="compiled"),
            formula.unsatisfied_clause_counts(matrix, backend="reference"),
        )

    @given(random_cnfs())
    @settings(max_examples=40, deadline=None)
    def test_counts_consistent_with_evaluation(self, formula):
        matrix = all_assignments(formula.num_variables)
        counts = formula.unsatisfied_clause_counts(matrix)
        satisfied = formula.evaluate_batch(matrix)
        np.testing.assert_array_equal(counts == 0, satisfied)

    @given(random_cnfs())
    @settings(max_examples=40, deadline=None)
    def test_clause_satisfaction_matches_per_clause_reference(self, formula):
        matrix = all_assignments(formula.num_variables)
        plan = formula.evaluation_plan()
        table = plan.clause_satisfaction(matrix)
        assert table.shape == (matrix.shape[0], formula.num_clauses)
        for row_index in range(matrix.shape[0]):
            assignment = {
                index + 1: bool(matrix[row_index, index])
                for index in range(formula.num_variables)
            }
            for clause_index, clause in enumerate(formula.clauses):
                expected = len(clause) > 0 and clause.evaluate(assignment)
                assert table[row_index, clause_index] == expected


class TestEdgeCases:
    def test_empty_clause_falsifies_everything(self):
        formula = CNF([[1, 2], []], num_variables=2)
        matrix = all_assignments(2)
        assert not formula.evaluate_batch(matrix).any()
        assert (formula.unsatisfied_clause_counts(matrix) >= 1).all()

    def test_no_clauses_satisfies_everything(self):
        formula = CNF(num_variables=3)
        matrix = all_assignments(3)
        for backend in RUNNABLE_BACKENDS:
            assert formula.evaluate_batch(matrix, backend=backend).all()
        assert (formula.unsatisfied_clause_counts(matrix) == 0).all()

    def test_zero_variable_formula(self):
        formula = CNF(num_variables=0)
        matrix = np.zeros((4, 0), dtype=bool)
        for backend in RUNNABLE_BACKENDS:
            assert formula.evaluate_batch(matrix, backend=backend).all()

    def test_tautological_clause_always_satisfied(self):
        formula = CNF([[1, -1]], num_variables=1)
        matrix = all_assignments(1)
        for backend in RUNNABLE_BACKENDS:
            assert formula.evaluate_batch(matrix, backend=backend).all()

    def test_empty_batch(self):
        formula = CNF([[1]], num_variables=1)
        matrix = np.zeros((0, 1), dtype=bool)
        for backend in RUNNABLE_BACKENDS:
            assert formula.evaluate_batch(matrix, backend=backend).shape == (0,)

    def test_batch_not_multiple_of_eight_packed(self):
        """The bit-packed kernel is gone: asking for it is a precise error."""
        formula = CNF([[1, -2], [2, 3]], num_variables=3)
        matrix = all_assignments(3)[:5]
        with pytest.raises(ValueError, match="backend must be one of .* got 'packed'"):
            formula.evaluate_batch(matrix, backend="packed")
        assert not hasattr(formula.evaluation_plan(), "evaluate_packed")


class TestPlanLifecycle:
    def test_plan_is_memoised(self):
        formula = CNF([[1, 2]], num_variables=2)
        assert formula.evaluation_plan() is formula.evaluation_plan()

    def test_add_clause_invalidates_plan(self):
        formula = CNF([[1, 2]], num_variables=2)
        stale = formula.evaluation_plan()
        formula.add_clause([-1, -2])
        fresh = formula.evaluation_plan()
        assert fresh is not stale
        matrix = all_assignments(2)
        np.testing.assert_array_equal(
            formula.evaluate_batch(matrix),
            formula.evaluate_batch(matrix, backend="reference"),
        )

    def test_num_variables_change_invalidates_plan(self):
        formula = CNF([[1]], num_variables=1)
        stale = formula.evaluation_plan()
        formula.num_variables = 3
        assert formula.evaluation_plan() is not stale
        assert formula.evaluate_batch(np.ones((2, 3), dtype=bool)).all()

    def test_copy_shares_plan_until_mutation(self):
        formula = CNF([[1, 2]], num_variables=2)
        plan = formula.evaluation_plan()
        duplicate = formula.copy()
        assert duplicate.evaluation_plan() is plan
        duplicate.add_clause([-1])
        assert duplicate.evaluation_plan() is not plan
        assert formula.evaluation_plan() is plan  # original untouched

    def test_plan_statistics(self):
        formula = CNF([[1, -2], [3], []], num_variables=3)
        plan = compile_evaluation_plan(formula)
        assert plan.num_literals == 3
        assert plan.num_empty == 1
        assert plan.num_clauses == 3
        # Non-empty clauses are stored sorted by width (stable).
        assert plan.nonempty_index.tolist() == [1, 0]
        assert plan.width_groups == ((0, 1, 1), (1, 2, 2))
        assert plan.reduce_offsets.tolist() == [0, 1]


class TestBackendKnob:
    def test_default_backend_is_compiled(self):
        assert default_backend() == "compiled"

    def test_set_default_backend(self):
        set_default_backend("reference")
        try:
            assert default_backend() == "reference"
        finally:
            set_default_backend(None)
        assert default_backend() == "compiled"

    def test_invalid_backend_rejected(self):
        formula = CNF([[1]], num_variables=1)
        with pytest.raises(ValueError):
            formula.evaluate_batch(np.ones((1, 1), dtype=bool), backend="gpu")
        with pytest.raises(ValueError):
            set_default_backend("gpu")

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CNF_BACKEND", "reference")
        assert default_backend() == "reference"
        monkeypatch.setenv("REPRO_CNF_BACKEND", "packed")
        with pytest.raises(ValueError, match="got 'packed'"):
            default_backend()


class TestSharedShapeValidation:
    """Regression: both entry points must reject malformed matrices up front."""

    @pytest.fixture
    def formula(self):
        return CNF([[1, 2], [-1, 3]], num_variables=3)

    @pytest.mark.parametrize("method", ["evaluate_batch", "unsatisfied_clause_counts"])
    def test_one_dimensional_rejected(self, formula, method):
        with pytest.raises(ValueError, match="2-D"):
            getattr(formula, method)(np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("method", ["evaluate_batch", "unsatisfied_clause_counts"])
    def test_narrow_matrix_rejected(self, formula, method):
        with pytest.raises(ValueError, match="columns"):
            getattr(formula, method)(np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("method", ["evaluate_batch", "unsatisfied_clause_counts"])
    def test_wide_matrix_rejected(self, formula, method):
        """A wider matrix used to be silently accepted by evaluate_batch."""
        with pytest.raises(ValueError, match="columns"):
            getattr(formula, method)(np.zeros((2, 5), dtype=bool))
