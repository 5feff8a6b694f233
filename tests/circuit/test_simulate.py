"""Tests for circuit simulation (repro.circuit.simulate)."""

import numpy as np
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.simulate import simulate
from tests.conftest import all_assignments


class TestSimulate:
    def test_matches_single_evaluation(self, small_circuit):
        matrix = all_assignments(3)
        results = simulate(small_circuit, matrix)
        for row in range(matrix.shape[0]):
            assignment = dict(zip(small_circuit.inputs, matrix[row]))
            single = small_circuit.evaluate_outputs(assignment)
            for name in small_circuit.outputs:
                assert results[name][row] == single[name]

    def test_requested_internal_nets(self, small_circuit):
        matrix = all_assignments(3)
        internal = [n for n in small_circuit.net_names() if n not in small_circuit.inputs]
        results = simulate(small_circuit, matrix, nets=internal[:1])
        assert set(results) == set(internal[:1])

    def test_custom_input_order(self, small_circuit):
        matrix = all_assignments(3)
        reordered = list(reversed(small_circuit.inputs))
        results = simulate(small_circuit, matrix[:, ::-1], input_order=reordered)
        baseline = simulate(small_circuit, matrix)
        for name in small_circuit.outputs:
            assert np.array_equal(results[name], baseline[name])

    def test_wrong_column_count_rejected(self, small_circuit):
        with pytest.raises(ValueError):
            simulate(small_circuit, np.zeros((4, 2), dtype=bool))

    def test_1d_matrix_rejected(self, small_circuit):
        with pytest.raises(ValueError):
            simulate(small_circuit, np.zeros(3, dtype=bool))

    def test_constants_in_circuit(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.constant(True)
        out = builder.and_(a, one, name="out")
        builder.output(out)
        results = simulate(builder.circuit, np.array([[True], [False]]))
        assert results["out"].tolist() == [True, False]

