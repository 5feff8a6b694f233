"""The boolean engine execution mode vs an independent reference.

The scalar dict-walking evaluator in :mod:`repro.circuit.netlist` is kept
deliberately engine-free, which makes it an independent oracle for the
compiled boolean mode.
"""

import numpy as np
import pytest

from repro.circuit.simulate import simulate
from repro.engine.compiler import compile_circuit
from repro.engine.executor import execute_bool
from tests.engine.conftest import random_circuit


def _random_matrix(rng, rows, columns):
    return rng.random((rows, columns)) < 0.5


class TestBooleanMode:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_evaluation(self, seed):
        rng = np.random.default_rng(2000 + seed)
        circuit = random_circuit(rng, num_inputs=6, num_gates=30, num_outputs=4)
        matrix = _random_matrix(rng, 32, len(circuit.inputs))
        results = simulate(circuit, matrix)
        for row in range(matrix.shape[0]):
            assignment = dict(zip(circuit.inputs, matrix[row].tolist()))
            expected = circuit.evaluate_outputs(assignment)
            for name in circuit.outputs:
                assert bool(results[name][row]) == expected[name], (
                    f"net {name} row {row} diverged"
                )

    def test_internal_nets_match_scalar_evaluation(self, seed=0):
        rng = np.random.default_rng(3000)
        circuit = random_circuit(rng, num_inputs=4, num_gates=20, num_outputs=2)
        matrix = _random_matrix(rng, 16, len(circuit.inputs))
        cone_nets = sorted(circuit.transitive_fanin(circuit.outputs))
        results = simulate(circuit, matrix, nets=cone_nets)
        for row in range(matrix.shape[0]):
            assignment = dict(zip(circuit.inputs, matrix[row].tolist()))
            expected = circuit.evaluate(assignment)
            for name in cone_nets:
                assert bool(results[name][row]) == expected[name]

    def test_executor_rejects_bad_shape(self, small_circuit):
        program = compile_circuit(small_circuit, ["f"])
        with pytest.raises(ValueError):
            execute_bool(program, np.zeros((4, 99), dtype=bool))

