"""Tests for Algorithm 1 (repro.core.transform)."""

import numpy as np
import pytest

from repro.baselines.dpll import DPLLSolver
from repro.circuit.tseitin import circuit_to_cnf
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.pipeline import sample_cnf
from repro.core.transform import transform_cnf
from repro.instances.or_chain import generate_or_instance
from repro.instances.registry import list_instances
from tests.conftest import all_assignments, registry_instance


class TestFig1Example:
    """The paper's Fig. 1 walk-through."""

    def test_structure_recovered(self, fig1_formula):
        result = transform_cnf(fig1_formula)
        # 6 primary inputs (one per chain head / mux data input), as in the paper.
        assert len(result.primary_inputs) == 6
        # A single constrained output (x10 = 1).
        assert len(result.constraints) == 1
        # Three of the six inputs lie on the constrained path.
        assert len(result.constrained_inputs()) == 3
        assert len(result.unconstrained_inputs()) == 3

    def test_operation_reduction_positive(self, fig1_formula):
        result = transform_cnf(fig1_formula)
        assert result.stats.operations_reduction > 1.0

    def test_all_original_solutions_preserved(self, fig1_formula):
        """The completion of every PI assignment satisfying the constraints is a model,
        and the transformation finds exactly the original model count (32)."""
        result = transform_cnf(fig1_formula)
        matrix = all_assignments(len(result.primary_inputs))
        completed = result.complete_assignments(matrix)
        valid = fig1_formula.evaluate_batch(completed)
        # Count models of the original formula by brute force over its 14 variables
        # using DPLL enumeration (32 models), and compare against the number of
        # distinct valid completions.
        models = {tuple(model.tolist()) for model in DPLLSolver(fig1_formula).enumerate_models()}
        distinct_valid = {tuple(row.tolist()) for row in completed[valid]}
        assert distinct_valid <= models
        assert len(distinct_valid) == len(models) == 32

    def test_definitions_reference_only_earlier_names(self, fig1_formula):
        result = transform_cnf(fig1_formula)
        known = set(result.primary_inputs)
        for name, expr in result.definitions:
            assert expr.support() <= known
            known.add(name)


class TestEquivalencePreservation:
    """The transformation must be exactly equivalence-preserving: a completed
    assignment satisfies the original CNF iff the constraint outputs are 1."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_or_instances(self, seed):
        formula, _ = generate_or_instance(
            num_inputs=8, num_constrained_outputs=2, num_unconstrained_cones=2,
            cone_width=4, seed=seed,
        )
        result = transform_cnf(formula)
        matrix = all_assignments(len(result.primary_inputs))
        completed = result.complete_assignments(matrix)
        valid = formula.evaluate_batch(completed)
        if result.constraints:
            from repro.circuit.simulate import simulate

            outputs = simulate(
                result.circuit, matrix, input_order=result.primary_inputs,
                nets=result.constraint_nets(),
            )
            constraint_ok = np.ones(matrix.shape[0], dtype=bool)
            for net in result.constraint_nets():
                constraint_ok &= outputs[net]
            assert np.array_equal(valid, constraint_ok)
        else:
            assert valid.all()

    def test_unsatisfiable_instance_has_no_valid_completion(self):
        formula = CNF([[1], [-1, 2], [-2, -1]], num_variables=2, name="unsat-ish")
        # x1=1, x2=1 required by first two clauses; third forbids it -> UNSAT.
        result = transform_cnf(formula)
        matrix = all_assignments(max(len(result.primary_inputs), 1))[:, : len(result.primary_inputs)]
        completed = result.complete_assignments(matrix)
        assert not formula.evaluate_batch(completed).any()


class TestClassification:
    def test_unit_clause_first_defines_constant_output(self):
        formula = CNF([[3], [-3, 1, 2], [3, -1], [3, -2]], num_variables=3)
        result = transform_cnf(formula)
        # x3 is pinned to 1; the remaining clauses constrain (x1 | x2).
        assert result.primary_outputs.get("x3") is True or result.constraints

    def test_free_variables_detected(self):
        formula = CNF([[1, 2]], num_variables=5)
        result = transform_cnf(formula)
        assert set(result.free_variables) == {"x3", "x4", "x5"}

    def test_tautological_clauses_ignored(self):
        formula = CNF([[1, -1], [2, 3]], num_variables=3)
        result = transform_cnf(formula)
        completed = result.complete_assignments(
            all_assignments(len(result.primary_inputs))
        )
        assert formula.evaluate_batch(completed).any()

    def test_duplicate_clauses_do_not_block_recovery(self):
        """Regression test: duplicated gate clauses used to poison the group buffer."""
        formula = CNF(
            [[2, -1], [-2, 1], [-2, 1], [3, -2, -2], [-3, 2]], num_variables=3
        )
        result = transform_cnf(formula)
        assert len(result.definitions) >= 2

    def test_summary_fields(self, fig1_formula):
        summary = transform_cnf(fig1_formula).summary()
        assert summary["instance"] == "fig1"
        assert summary["primary_inputs"] == 6
        assert summary["constraints"] == 1

    def test_stats_counters(self, fig1_formula):
        stats = transform_cnf(fig1_formula).stats
        assert stats.num_clauses == 21
        assert stats.num_definitions >= 8
        assert stats.seconds > 0.0
        assert stats.cnf_operations > stats.circuit_operations


class TestRoundTripFromCircuit:
    def test_tseitin_roundtrip_preserves_input_solutions(self, small_circuit):
        formula, var_map = circuit_to_cnf(small_circuit, output_constraints={"f": True})
        formula.name = "roundtrip"
        result = transform_cnf(formula)
        matrix = all_assignments(len(result.primary_inputs))
        completed = result.complete_assignments(matrix)
        valid = formula.evaluate_batch(completed)
        # Reference: which input assignments of the original circuit satisfy f=1?
        reference = 0
        for bits in all_assignments(3):
            assignment = dict(zip(small_circuit.inputs, bits))
            if small_circuit.evaluate(assignment)["f"]:
                reference += 1
        # The transformed instance must reach at least as many distinct full
        # assignments (PI space may be a superset of the circuit inputs).
        assert int(valid.sum()) >= reference


def _free_variables_reference(clauses, num_variables):
    """Variables no literal of ``clauses`` mentions, by a plain set scan."""
    mentioned = {abs(literal) for clause in clauses for literal in clause}
    return [f"x{v}" for v in range(1, num_variables + 1) if v not in mentioned]


class TestFreeVariables:
    """Free variables are every variable neither a primary input nor defined."""

    @pytest.mark.parametrize("name", list_instances())
    def test_registry_instances(self, name):
        """On the registry the rule gives exactly the unmentioned variables."""
        formula, transform = registry_instance(name)
        assert transform.free_variables == _free_variables_reference(
            formula.clauses, formula.num_variables
        )

    @pytest.mark.parametrize(
        "clauses, num_variables",
        [
            ([], 0),
            ([], 3),
            ([[]], 2),
            ([[], [2]], 4),
            ([[1], [-3]], 3),
            ([[-2]], 2),
            ([[1, -1], [], [-4]], 5),
        ],
    )
    def test_empty_and_unit_clauses(self, clauses, num_variables):
        """A variable only tautological clauses mention is free too."""
        formula = CNF(clauses, num_variables=num_variables)
        kept = [
            clause
            for clause in formula.clauses
            if not any(-literal in clause for literal in clause)
        ]
        assert transform_cnf(formula).free_variables == _free_variables_reference(
            kept, num_variables
        )

    def test_tautology_only_variable_is_sampled(self):
        """x3 occurs only in a tautology: all 6 models come out, x3 both ways."""
        formula = CNF([[1, 2], [3, -3]], num_variables=3)
        result = sample_cnf(
            formula, num_solutions=6, config=SamplerConfig(batch_size=64, seed=0)
        )
        matrix = result.sample.solution_matrix()
        assert sorted(map(tuple, matrix.astype(int).tolist())) == [
            (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1) if a or b
        ]
