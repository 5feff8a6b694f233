"""Tests for repro.cnf.formula."""

import numpy as np
import pytest

from repro.cnf.formula import CNF, rows_csr, two_input_operation_count
from tests.corpus.generators import planted_ksat, random_horn, random_ksat
from repro.instances.registry import get_instance, list_instances
from tests.conftest import all_assignments
from tests.oracles.cnf import evaluate_reference


class TestConstruction:
    def test_from_literal_lists(self):
        formula = CNF([[1, -2], [2, 3]])
        assert formula.num_clauses == 2
        assert formula.num_variables == 3

    def test_variable_count_grows_to_the_largest_literal(self):
        assert CNF([[5, -9]]).num_variables == 9
        assert CNF([[5, -9]], num_variables=4).num_variables == 9

    def test_declared_variables_can_exceed_used(self):
        formula = CNF([[1]], num_variables=10)
        assert formula.num_variables == 10

    def test_num_variables_cannot_undercount(self):
        formula = CNF([[1, -4]], num_variables=2)
        assert formula.num_variables == 4
        with pytest.raises(AttributeError):
            formula.num_variables = 2

    def test_accepts_int_sequences(self):
        formula = CNF([(1, -2), np.array([3, 3])])
        assert formula.clauses == ((1, -2), (3,))
        assert formula == CNF([[1, -2], [3]])


class TestAccessors:
    def test_literal_count(self):
        assert CNF([[1, 2], [3]]).literals.size == 3

    def test_two_input_operation_count(self):
        # (a | ~b) & (c): one OR (1 op) + one inverter + conjunction of 2 clauses (1 op).
        formula = CNF([[1, -2], [3]])
        assert formula.two_input_operation_count() == 1 + 1 + 1

    def test_two_input_operation_count_edge_cases(self):
        assert CNF().two_input_operation_count() == 0
        assert CNF([[]]).two_input_operation_count() == 0
        assert CNF([[-1]]).two_input_operation_count() == 1
        # empty (0) + unit (1 inverter) + width 3 (2 ORs, 2 inverters) + 2 ANDs
        assert CNF([[], [-4], [1, -2, -3]]).two_input_operation_count() == 7

    def test_iteration_and_len(self):
        formula = CNF([[1], [2]])
        assert len(formula) == 2
        assert list(formula) == [(1,), (2,)]


class TestEvaluation:
    def test_evaluate_single(self, tiny_sat_formula):
        assert evaluate_reference(tiny_sat_formula, {1: False, 2: True, 3: False})
        assert not evaluate_reference(tiny_sat_formula, {1: True, 2: False, 3: False})

    def test_evaluate_batch_matches_single(self, tiny_sat_formula):
        matrix = all_assignments(3)
        batch = tiny_sat_formula.evaluate_batch(matrix)
        for row in range(matrix.shape[0]):
            assignment = {i + 1: bool(matrix[row, i]) for i in range(3)}
            assert batch[row] == evaluate_reference(tiny_sat_formula, assignment)

    def test_known_model_count(self, tiny_sat_formula):
        matrix = all_assignments(3)
        assert int(tiny_sat_formula.evaluate_batch(matrix).sum()) == 4

    def test_evaluate_batch_rejects_narrow_matrix(self, tiny_sat_formula):
        with pytest.raises(ValueError):
            tiny_sat_formula.evaluate_batch(np.zeros((2, 2), dtype=bool))

    def test_unsat_formula_has_no_models(self, tiny_unsat_formula):
        matrix = all_assignments(1)
        assert not tiny_unsat_formula.evaluate_batch(matrix).any()


class TestEquality:
    def test_equal_formulas(self):
        assert CNF([[1, 2]]) == CNF([[1, 2]])

    def test_different_clauses(self):
        assert CNF([[1, 2]]) != CNF([[1, -2]])
        assert CNF([[1, 2]]) != CNF([[2, 1]])
        assert CNF([[1, 2]]) != CNF([[1, 2]], num_variables=3)
        assert CNF([[1], [2]]) != CNF([[1, 2]], num_variables=2)

    def test_repr_contains_counts(self):
        text = repr(CNF([[1, 2]], name="x"))
        assert "vars=2" in text and "clauses=1" in text


def _operation_count_per_literal(clauses):
    """The per-clause, per-literal count the vectorised pass replaced."""
    total = 0
    for clause in clauses:
        total += max(len(clause) - 1, 0)
        total += sum(1 for literal in clause if literal < 0)
    return total + max(len(clauses) - 1, 0)


_GENERATED = {
    "random_ksat": lambda: random_ksat(20, 60, 3, seed=1),
    "planted_ksat": lambda: planted_ksat(30, 90, 4, seed=2),
    "random_horn": lambda: random_horn(25, 50, seed=3),
    "empty_and_unit_clauses": lambda: CNF(
        [*random_ksat(10, 12, 2, seed=4).clauses, [], [7], [-3], [], [-1, -2, -5]]
    ),
}


@pytest.mark.parametrize("name", list(_GENERATED) + list_instances())
def test_operation_count_matches_the_per_literal_count(name):
    formula = _GENERATED[name]() if name in _GENERATED else get_instance(name).build_cnf()
    expected = _operation_count_per_literal(formula.clauses)
    assert formula.two_input_operation_count() == expected
    offsets, literals = rows_csr(formula.clauses, np.int32)
    assert two_input_operation_count(literals, offsets) == expected
