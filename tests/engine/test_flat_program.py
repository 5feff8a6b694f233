"""The vectorised levelize step against the parent block-based compiler.

On every registry instance, both cones a round runs (``learn`` and
``fill``) compile to per-op arrays equal to a flatten of the block-based
program (:mod:`tests.oracles.compiler`), with the same slots and
:meth:`~repro.engine.program.CompiledProgram.describe` summary, and the
result passes the load-time safety check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.compiler import compile_circuit
from repro.instances.registry import list_instances
from tests.conftest import registry_instance
from tests.oracles.compiler import compile_blocks


def _cones(transform):
    """The round's learn and fill cones, without touching its program memo."""
    if transform.constraints:
        cone = transform.circuit.transitive_fanin(transform.constraint_nets())
        constrained = [name for name in transform.primary_inputs if name in cone]
        yield transform.constraint_nets(), constrained
    if transform.definitions:
        yield [name for name, _ in transform.definitions], transform.primary_inputs


@pytest.mark.parametrize("name", list_instances())
def test_flat_program_equals_the_flattened_blocks(name):
    _, transform = registry_instance(name)
    cones = list(_cones(transform))
    assert cones
    for outputs, inputs in cones:
        program = compile_circuit(transform.circuit, outputs, inputs)
        reference = compile_blocks(transform.circuit, outputs, inputs)
        opcodes, a_slots, b_slots, out_slots = reference.flatten()
        np.testing.assert_array_equal(program.opcodes, opcodes)
        np.testing.assert_array_equal(program.a_slots, a_slots)
        np.testing.assert_array_equal(program.b_slots, b_slots)
        np.testing.assert_array_equal(
            program.first_op_slot + np.arange(program.num_ops), out_slots
        )
        assert program.describe() == reference.describe()
        np.testing.assert_array_equal(program.output_slots, reference.output_slots)
        np.testing.assert_array_equal(program.input_columns, reference.input_columns)
        assert program.cone_inputs == reference.cone_inputs
        assert (program.const0_slot, program.const1_slot) == (
            reference.const0_slot,
            reference.const1_slot,
        )
        program.check()
