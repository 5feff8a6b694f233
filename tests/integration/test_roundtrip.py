"""Round-trip integration tests: circuit -> Tseitin CNF -> Algorithm 1 -> circuit.

The central correctness property of the reproduction: transforming the
Tseitin encoding of a circuit must yield a multi-level function whose
completions satisfy the CNF exactly when the recovered constraint outputs are
satisfied, and the solution counts must agree with exhaustive enumeration on
small instances.
"""

import numpy as np
import pytest

from repro.baselines.dpll import DPLLSolver
from repro.circuit.builder import CircuitBuilder
from repro.circuit.tseitin import circuit_to_cnf
from repro.core.transform import transform_cnf
from tests.conftest import all_assignments


def _solution_count_via_transform(formula, transform):
    matrix = all_assignments(len(transform.primary_inputs))
    completed = transform.complete_assignments(matrix)
    valid = formula.evaluate_batch(completed)
    distinct = {tuple(row.tolist()) for row in completed[valid]}
    return len(distinct)


class TestRoundTripCounts:
    def test_adder_constrained_to_value(self):
        """Constrain a 2-bit adder's output to a constant and count solutions."""
        builder = CircuitBuilder("adder")
        a_bits = builder.inputs(2, prefix="a")
        b_bits = builder.inputs(2, prefix="b")
        sums, carry = builder.ripple_adder(a_bits, b_bits)
        for net in sums:
            builder.output(net)
        builder.output(carry)
        circuit = builder.circuit
        # Constrain the sum to 3 (= 0b011, carry 0): pairs (a, b) with a+b=3 -> 4 pairs.
        constraints = {sums[0]: True, sums[1]: True, carry: False}
        formula, _ = circuit_to_cnf(circuit, output_constraints=constraints)
        formula.name = "adder3"
        transform = transform_cnf(formula)
        dpll_count = DPLLSolver(formula).count_models()
        assert _solution_count_via_transform(formula, transform) == dpll_count

    def test_comparator_equality(self):
        builder = CircuitBuilder("cmp")
        a_bits = builder.inputs(3, prefix="a")
        b_bits = builder.inputs(3, prefix="b")
        equal = builder.and_(*(builder.xnor_(a, b) for a, b in zip(a_bits, b_bits)))
        builder.output(equal)
        formula, _ = circuit_to_cnf(builder.circuit, output_constraints={equal: True})
        formula.name = "cmp-eq"
        transform = transform_cnf(formula)
        # Exactly 8 input pairs are equal; every model is determined by the inputs.
        assert _solution_count_via_transform(formula, transform) == DPLLSolver(formula).count_models()

    def test_mux_tree(self):
        builder = CircuitBuilder("muxtree")
        select = builder.input("s")
        data = builder.inputs(4, prefix="d")
        first = builder.mux(select, data[0], data[1])
        second = builder.mux(select, data[2], data[3])
        out = builder.or_(first, second, name="out")
        builder.output(out)
        formula, _ = circuit_to_cnf(builder.circuit, output_constraints={"out": True})
        formula.name = "muxtree"
        transform = transform_cnf(formula)
        assert _solution_count_via_transform(formula, transform) == DPLLSolver(formula).count_models()


class TestRoundTripStructure:
    def test_recovered_ops_not_larger_than_original_circuit(self, small_circuit):
        """The recovered multi-level function should cost no more 2-input gate
        equivalents than the CNF it came from (that is the whole point)."""
        formula, _ = circuit_to_cnf(small_circuit, output_constraints={"f": True})
        formula.name = "small"
        transform = transform_cnf(formula)
        assert transform.stats.circuit_operations <= transform.stats.cnf_operations

    def test_primary_inputs_subset_of_original_inputs_plus_aux(self, small_circuit):
        formula, var_map = circuit_to_cnf(small_circuit, output_constraints={"f": True})
        formula.name = "small"
        transform = transform_cnf(formula)
        original_input_indices = {var_map[name] for name in small_circuit.inputs}
        recovered_indices = {
            int(name[1:]) for name in transform.primary_inputs
        }
        # Every original circuit input that the constrained cone touches should
        # be recoverable as a primary input (the reverse containment need not hold).
        assert recovered_indices & original_input_indices

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_netlists_roundtrip_equivalently(self, seed):
        from repro.instances.iscas import generate_iscas_like_instance

        formula, _ = generate_iscas_like_instance(
            num_inputs=8, num_gates=30, num_constrained_outputs=2, seed=seed
        )
        transform = transform_cnf(formula)
        matrix = all_assignments(min(len(transform.primary_inputs), 12))
        if matrix.shape[1] < len(transform.primary_inputs):
            rng = np.random.default_rng(seed)
            padding = rng.random(
                (matrix.shape[0], len(transform.primary_inputs) - matrix.shape[1])
            ) < 0.5
            matrix = np.hstack([matrix, padding])
        completed = transform.complete_assignments(matrix)
        valid = formula.evaluate_batch(completed)
        # The instance is satisfiable by construction, so the transformation must
        # expose at least one satisfying completion over the PI space.
        assert valid.any()
