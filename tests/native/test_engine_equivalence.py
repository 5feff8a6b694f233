"""The C kernels pinned to the per-op oracle, bit for bit.

Contract: on every program the library can run — random circuits, the learn
and fill programs of every registry instance, and the same programs read
back through the store's :func:`~repro.store.schema.decode_round` (whose
arrays reach the kernels as zero-copy views of the read buffer) — the
``float32`` forward outputs, the ``float32`` input gradients and the boolean
slot matrix equal :mod:`tests.oracles.executor` exactly.  The oracle runs
the same float operations in the same order, so there is no tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.compiler import compile_circuit
from repro.engine.executor import backward, execute_bool, forward
from repro.instances.registry import list_instances
from repro.store.format import encode_entry, verify_entry
from repro.store.schema import KIND_ROUND, decode_round, encode_round
from tests.conftest import registry_instance
from tests.engine.conftest import random_circuit
from tests.oracles.executor import (
    backward_reference,
    execute_bool_reference,
    forward_reference,
)


def _program(seed: int):
    """A random program; every third one repeats an output (aliased slots)."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(
        rng,
        num_inputs=int(rng.integers(2, 10)),
        num_gates=int(rng.integers(10, 120)),
        num_outputs=int(rng.integers(1, 6)),
        with_constants=seed % 2 == 0,
    )
    outputs = list(circuit.outputs)
    if seed % 3 == 0:
        outputs += outputs[:2]
    return compile_circuit(circuit, outputs)


def _assert_matches_oracle(program, seed: int, batch: int) -> None:
    rng = np.random.default_rng(seed)
    probabilities = rng.random((batch, program.input_width))
    seed_grad = rng.standard_normal((batch, len(program.output_nets)))
    bits = rng.random((batch, program.input_width)) < 0.5

    outputs, cache = forward(program, probabilities)
    expected, values = forward_reference(program, probabilities)
    np.testing.assert_array_equal(outputs, expected)
    np.testing.assert_array_equal(cache.values, values)
    np.testing.assert_array_equal(
        backward(program, cache, seed_grad), backward_reference(program, values, seed_grad)
    )
    np.testing.assert_array_equal(
        execute_bool(program, bits), execute_bool_reference(program, bits)
    )


@pytest.mark.parametrize("seed", range(40))
class TestExecutorEquivalence:
    def test_forward_is_bitwise(self, tier, seed):
        program = _program(seed)
        probabilities = np.random.default_rng(seed).random((16, program.input_width))
        outputs, cache = forward(program, probabilities)
        expected, values = forward_reference(program, probabilities)
        np.testing.assert_array_equal(outputs, expected)
        np.testing.assert_array_equal(cache.values, values)

    def test_backward_is_bitwise(self, tier, seed):
        program = _program(seed)
        rng = np.random.default_rng(seed + 100)
        probabilities = rng.random((8, program.input_width))
        seed_grad = rng.random((8, len(program.output_nets)))
        _, cache = forward(program, probabilities)
        _, values = forward_reference(program, probabilities)
        np.testing.assert_array_equal(
            backward(program, cache, seed_grad), backward_reference(program, values, seed_grad)
        )

    def test_bool_mode_is_bitwise(self, tier, seed):
        program = _program(seed)
        matrix = np.random.default_rng(seed).random((33, program.input_width)) < 0.5
        np.testing.assert_array_equal(
            execute_bool(program, matrix), execute_bool_reference(program, matrix)
        )


class TestFloat32Policy:
    def test_forward_is_bitwise_in_float32(self, tier):
        program = _program(seed=5)
        probabilities = np.random.default_rng(5).random((16, program.input_width))
        probs32 = probabilities.astype(np.float32)
        outputs, _ = forward(program, probs32)
        assert outputs.dtype == np.float32
        np.testing.assert_array_equal(outputs, forward_reference(program, probs32)[0])

    def test_empty_batch(self, tier):
        program = _program(seed=6)
        _assert_matches_oracle(program, seed=6, batch=0)


@pytest.mark.parametrize("name", list_instances())
def test_registry_programs_match_the_oracle(tier, name):
    """The learn and fill programs of every registry round, as compiled and
    as decoded from a store entry."""
    formula, transform = registry_instance(name)
    plan = transform.round_plan
    blob = encode_entry(KIND_ROUND, "sig", encode_round(plan, formula.evaluation_plan()))
    decoded, _ = decode_round(verify_entry(bytearray(blob), kind=KIND_ROUND))
    roles = [role for role in ("learn", "fill") if getattr(plan, role) is not None]
    assert roles
    for index, role in enumerate(roles):
        program, loaded = getattr(plan, role), getattr(decoded, role)
        assert not loaded.opcodes.flags.owndata  # a view of the read buffer
        for seed, batch in ((index, 7), (index + 10, 64)):
            _assert_matches_oracle(program, seed, batch)
            _assert_matches_oracle(loaded, seed, batch)
