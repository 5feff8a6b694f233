"""Tests for the benchmark-instance generators (repro.instances)."""

import numpy as np
import pytest

from repro.baselines.cdcl import CDCLSolver
from repro.circuit.simulate import simulate
from repro.instances.blocked import generate_q_instance
from repro.instances.iscas import generate_iscas_like_instance
from repro.instances.or_chain import generate_or_instance
from repro.instances.product import generate_product_instance


class TestOrInstances:
    def test_shape(self):
        formula, circuit = generate_or_instance(num_inputs=30, num_constrained_outputs=3, seed=0)
        assert circuit.num_inputs == 30
        assert circuit.num_outputs == 3
        assert formula.num_clauses > formula.num_variables

    def test_satisfiable(self):
        formula, _ = generate_or_instance(num_inputs=20, num_constrained_outputs=2, seed=1)
        assert CDCLSolver(formula, seed=0).solve().status == "sat"

    def test_deterministic(self):
        a, _ = generate_or_instance(num_inputs=15, seed=3)
        b, _ = generate_or_instance(num_inputs=15, seed=3)
        assert list(a) == list(b)

    def test_too_few_inputs_rejected(self):
        with pytest.raises(ValueError):
            generate_or_instance(num_inputs=1)


class TestQInstances:
    def test_single_constrained_output(self):
        formula, circuit = generate_q_instance(num_inputs=30, seed=0)
        assert circuit.num_outputs == 1

    def test_satisfiable(self):
        formula, _ = generate_q_instance(num_inputs=25, seed=2)
        assert CDCLSolver(formula, seed=0).solve().status == "sat"

    def test_auxiliary_variable_ratio(self):
        """q instances have several times more CNF variables than primary inputs."""
        formula, circuit = generate_q_instance(num_inputs=30, chain_length=10, seed=1)
        assert formula.num_variables > circuit.num_inputs

    def test_input_budget_validated(self):
        with pytest.raises(ValueError):
            generate_q_instance(num_inputs=5, num_select_chains=6)


class TestIscasInstances:
    def test_gate_budget_respected(self):
        _, circuit = generate_iscas_like_instance(num_inputs=20, num_gates=150, seed=0)
        assert 100 <= circuit.num_gates <= 160

    def test_satisfiable_by_construction(self):
        formula, _ = generate_iscas_like_instance(
            num_inputs=16, num_gates=120, num_constrained_outputs=4, seed=5
        )
        assert CDCLSolver(formula, seed=0).solve().status == "sat"

    def test_constraints_match_reference_simulation(self):
        formula, circuit = generate_iscas_like_instance(
            num_inputs=10, num_gates=60, num_constrained_outputs=2, seed=7
        )
        # The unit clauses pin outputs to values the circuit actually attains.
        unit_values = {}
        for clause in formula.clauses:
            if len(clause) == 1:
                literal = clause[0]
                unit_values[abs(literal)] = literal > 0
        assert len(unit_values) >= 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_iscas_like_instance(num_inputs=2)
        with pytest.raises(ValueError):
            generate_iscas_like_instance(num_constrained_outputs=0)


class TestProductInstances:
    def test_clause_count_grows_with_width(self):
        small, _ = generate_product_instance(width=4, seed=0)
        large, _ = generate_product_instance(width=8, seed=0)
        assert large.num_clauses > 2 * small.num_clauses

    def test_satisfiable_by_construction(self):
        formula, _ = generate_product_instance(width=5, seed=3)
        assert CDCLSolver(formula, seed=0).solve().status == "sat"

    def test_reference_operands_recorded(self):
        formula, _ = generate_product_instance(width=4, seed=1)
        assert any("reference operands" in comment for comment in formula.comments)

    def test_reference_product_satisfies_constraints(self):
        formula, circuit = generate_product_instance(width=4, seed=2)
        comment = next(c for c in formula.comments if "reference operands" in c)
        tokens = dict(part.split("=") for part in comment.split()[2:])
        a_value, b_value = int(tokens["a"]), int(tokens["b"])
        inputs = {}
        for i in range(4):
            inputs[f"a{i}"] = bool((a_value >> i) & 1)
            inputs[f"b{i}"] = bool((b_value >> i) & 1)
        values = circuit.evaluate(inputs)
        for net in circuit.outputs:
            assert values[net] in (True, False)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_product_instance(width=1)
        with pytest.raises(ValueError):
            generate_product_instance(width=4, num_constrained_bits=0)
