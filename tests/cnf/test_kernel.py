"""Tests for the compiled CNF evaluation kernel (repro.cnf.kernel).

The compiled plan is the one CNF evaluator; it must be bitwise-identical to
the clause-loop oracle (``tests/oracles/cnf.py``) on arbitrary formulas —
including unit clauses, empty clauses, tautologies, duplicate literals,
over-declared variables and zero-variable formulas — which the hypothesis
suite checks exhaustively over the full assignment space of small random
CNFs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cnf
from repro.cnf import kernel
from repro.cnf.formula import CNF
from repro.cnf.kernel import CNFEvalPlan, compile_evaluation_plan
from tests.conftest import all_assignments
from tests.oracles.cnf import evaluate_batch_reference


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
        """The compiled plan against the clause-loop oracle."""
        matrix = all_assignments(formula.num_variables)
        np.testing.assert_array_equal(
            formula.evaluate_batch(matrix),
            evaluate_batch_reference(formula, matrix),
            err_msg=f"compiled plan diverged on {formula!r}",
        )


class TestEdgeCases:
    def test_empty_clause_falsifies_everything(self):
        formula = CNF([[1, 2], []], num_variables=2)
        matrix = all_assignments(2)
        assert not formula.evaluate_batch(matrix).any()
        assert not evaluate_batch_reference(formula, matrix).any()

    def test_no_clauses_satisfies_everything(self):
        formula = CNF(num_variables=3)
        matrix = all_assignments(3)
        assert formula.evaluate_batch(matrix).all()
        assert evaluate_batch_reference(formula, matrix).all()

    def test_zero_variable_formula(self):
        formula = CNF(num_variables=0)
        matrix = np.zeros((4, 0), dtype=bool)
        assert formula.evaluate_batch(matrix).all()
        assert evaluate_batch_reference(formula, matrix).all()

    def test_tautological_clause_always_satisfied(self):
        formula = CNF([[1, -1]], num_variables=1)
        matrix = all_assignments(1)
        assert formula.evaluate_batch(matrix).all()
        assert evaluate_batch_reference(formula, matrix).all()

    def test_empty_batch(self):
        formula = CNF([[1]], num_variables=1)
        matrix = np.zeros((0, 1), dtype=bool)
        assert formula.evaluate_batch(matrix).shape == (0,)

    def test_batch_not_multiple_of_eight_packed(self):
        """The bit-packed kernel is gone; odd batches run the one plan."""
        formula = CNF([[1, -2], [2, 3]], num_variables=3)
        matrix = all_assignments(3)[:5]
        with pytest.raises(TypeError, match="backend"):
            formula.evaluate_batch(matrix, backend="packed")
        assert not hasattr(formula.evaluation_plan(), "evaluate_packed")
        np.testing.assert_array_equal(
            formula.evaluate_batch(matrix), evaluate_batch_reference(formula, matrix)
        )


class TestPlanLifecycle:
    def test_plan_is_memoised(self):
        formula = CNF([[1, 2]], num_variables=2)
        assert formula.evaluation_plan() is formula.evaluation_plan()

    def test_plan_statistics(self):
        formula = CNF([[1, -2], [3], []], num_variables=3)
        plan = compile_evaluation_plan(formula)
        assert plan.num_literals == 3
        assert plan.num_empty == 1
        assert plan.num_clauses == 3
        # Non-empty clauses are stored sorted by width (stable): [3] first.
        assert plan.literal_columns.tolist() == [2, 0, 1]
        assert plan.literal_negated.tolist() == [False, False, True]
        assert plan.width_groups == ((0, 1, 1), (1, 2, 2))
        assert plan.reduce_offsets.tolist() == [0, 1]


class TestBackendKnob:
    """The evaluation-backend knob is gone: the compiled plan is the one path."""

    def test_default_backend_is_compiled(self, monkeypatch):
        calls = []
        original = CNFEvalPlan.evaluate

        def spy(plan, assignments):
            calls.append(plan)
            return original(plan, assignments)

        monkeypatch.setattr(CNFEvalPlan, "evaluate", spy)
        formula = CNF([[1, -2]], num_variables=2)
        formula.evaluate_batch(all_assignments(2))
        assert calls == [formula.evaluation_plan()]

    def test_set_default_backend(self):
        """No process-wide backend selector survives, in either module."""
        for name in ("set_default_backend", "default_backend"):
            assert not hasattr(repro.cnf, name)
        for name in (
            "BACKENDS",
            "BACKEND_ENV_VAR",
            "default_backend",
            "set_default_backend",
            "resolve_backend",
            "resolve_native_kernels",
        ):
            assert not hasattr(kernel, name)

    def test_invalid_backend_rejected(self):
        """Every former ``backend=`` value, valid or not, is a TypeError."""
        formula = CNF([[1]], num_variables=1)
        matrix = np.ones((1, 1), dtype=bool)
        for backend in ("compiled", "reference", "native", "gpu"):
            with pytest.raises(TypeError, match="backend"):
                formula.evaluate_batch(matrix, backend=backend)
        assert not hasattr(formula, "unsatisfied_clause_counts")

    def test_environment_override(self, monkeypatch):
        """``REPRO_CNF_BACKEND`` is no longer read: any value is ignored."""
        formula = CNF([[1, 2], [-1, 3]], num_variables=3)
        matrix = all_assignments(3)
        expected = evaluate_batch_reference(formula, matrix)
        for value in ("reference", "native", "packed"):
            monkeypatch.setenv("REPRO_CNF_BACKEND", value)
            np.testing.assert_array_equal(formula.evaluate_batch(matrix), expected)


class TestSharedShapeValidation:
    """Regression: evaluation must reject malformed matrices up front."""

    @pytest.fixture
    def formula(self):
        return CNF([[1, 2], [-1, 3]], num_variables=3)

    @pytest.mark.parametrize("method", ["evaluate_batch"])
    def test_one_dimensional_rejected(self, formula, method):
        with pytest.raises(ValueError, match="2-D"):
            getattr(formula, method)(np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("method", ["evaluate_batch"])
    def test_narrow_matrix_rejected(self, formula, method):
        with pytest.raises(ValueError, match="columns"):
            getattr(formula, method)(np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("method", ["evaluate_batch"])
    def test_wide_matrix_rejected(self, formula, method):
        """A wider matrix used to be silently accepted by evaluate_batch."""
        with pytest.raises(ValueError, match="columns"):
            getattr(formula, method)(np.zeros((2, 5), dtype=bool))
