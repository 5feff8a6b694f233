"""The one-pass optimizer against the fixed-point oracle.

:func:`repro.circuit.optimize.optimize_circuit` folds, collapses, hashes and
sweeps in one topological walk; :mod:`tests.oracles.optimize` keeps the
separate passes iterated to a fixed point.  Random circuits here are built to
exercise what the one pass must get right in a single walk: constants,
commutative duplicates, duplicate *cascades* (a duplicate whose fanins are
themselves duplicates, which the oracle needs a second round for) and outputs
that are buffers of other outputs.  On the instance registry the transform's
circuit, and the programs a sampling round compiles from it, must cost
exactly what the oracle's did.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.transform as transform_module
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.optimize import optimize_circuit
from repro.circuit.simulate import simulate
from repro.circuit.stats import two_input_gate_equivalents
from repro.core.transform import transform_cnf
from repro.instances.registry import get_instance, list_instances
from tests.conftest import all_assignments
from tests.oracles.optimize import optimize_reference

_LOGIC = [
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
]


@st.composite
def optimizable_circuits(draw, max_inputs=4, max_steps=16):
    """A random multi-output circuit full of optimization opportunities."""
    builder = CircuitBuilder("random")
    nets = builder.inputs(draw(st.integers(1, max_inputs)), prefix="i")
    if draw(st.booleans()):
        nets.append(builder.constant(draw(st.booleans())))
    # Structurally identical nets share one class list.  A "cascade" step
    # applies one new gate to two members of a class, which makes the two
    # results a class of their own, one level further down: the oracle
    # needs one more round per level.
    members = {net: [net] for net in nets}
    outputs = []

    def add(gate_type, fanins, cls):
        if gate_type in _LOGIC:
            fanins = draw(st.permutations(fanins))
        net = builder.gate(gate_type, fanins)
        cls.append(net)
        members[net] = cls
        nets.append(net)
        if draw(st.integers(0, 3)) == 0:
            outputs.append(net)

    for _ in range(draw(st.integers(1, max_steps))):
        step = draw(
            st.sampled_from(["gate", "unary", "duplicate", "cascade", "cascade", "output-buffer"])
        )
        classes = [cls for net, cls in members.items() if len(cls) > 1 and cls[0] == net]
        logic = [net for net in nets if not builder.circuit.gate(net).gate_type.is_source]
        if step == "duplicate" and logic:
            source = builder.circuit.gate(draw(st.sampled_from(logic)))
            fanins = [draw(st.sampled_from(members[f])) for f in source.fanins]
            add(source.gate_type, fanins, members[source.name])
        elif step == "cascade":
            # With no class yet, two copies of one gate start the first.
            pool = draw(st.sampled_from(classes)) if classes else [draw(st.sampled_from(nets))] * 2
            first, second = draw(st.permutations(pool))[:2]
            gate_type = draw(st.sampled_from(_LOGIC + [GateType.NOT]))
            others = [] if gate_type is GateType.NOT else [draw(st.sampled_from(nets))]
            cls = []
            add(gate_type, [first] + others, cls)
            add(gate_type, [second] + others, cls)
        elif step == "output-buffer" and outputs:
            net = builder.buf(draw(st.sampled_from(outputs)))
            members[net] = [net]
            nets.append(net)
            outputs.append(net)
        elif step == "unary":
            gate_type = draw(st.sampled_from([GateType.NOT, GateType.BUF]))
            add(gate_type, [draw(st.sampled_from(nets))], [])
        else:
            gate_type = draw(st.sampled_from(_LOGIC))
            arity = draw(st.integers(2, 3))
            add(gate_type, [draw(st.sampled_from(nets)) for _ in range(arity)], [])
    for net in outputs or nets[-1:]:
        builder.output(net)
    return builder.circuit


def _output_functions(circuit, inputs):
    matrix = all_assignments(len(inputs))
    values = simulate(circuit, matrix, input_order=inputs, nets=circuit.outputs)
    return {name: values[name] for name in circuit.outputs}


@given(optimizable_circuits())
@settings(max_examples=150, deadline=None)
def test_output_functions_unchanged(circuit):
    optimized = optimize_circuit(circuit)
    assert optimized.inputs == circuit.inputs
    assert optimized.outputs == circuit.outputs
    before = _output_functions(circuit, circuit.inputs)
    after = _output_functions(optimized, circuit.inputs)
    for name in circuit.outputs:
        np.testing.assert_array_equal(after[name], before[name], err_msg=name)


@given(optimizable_circuits())
@settings(max_examples=150, deadline=None)
def test_never_costs_more_than_the_oracle(circuit):
    """Pinned where the comparison is order-free: outputs of distinct functions.

    When two outputs are structurally identical, both optimizers keep one
    net per output name, and the non-output duplicates join whichever output
    their walk reaches first — the oracle re-sorts between passes, so its
    walk differs from this one and either can end up a gate ahead.  With at
    most one output per class of duplicates, the one pass always hands the
    class to its output and merges everything the oracle merges.
    """
    functions = _output_functions(circuit, circuit.inputs)
    assume(len({table.tobytes() for table in functions.values()}) == len(functions))
    optimized = optimize_circuit(circuit)
    assert two_input_gate_equivalents(optimized) <= two_input_gate_equivalents(
        optimize_reference(circuit)
    )


@given(optimizable_circuits())
@settings(max_examples=150, deadline=None)
def test_a_fixed_point_of_the_oracle(circuit):
    """Every circuit: the oracle's passes find nothing left to remove."""
    optimized = optimize_circuit(circuit)
    again = optimize_reference(optimized)
    assert again.num_gates == optimized.num_gates
    assert two_input_gate_equivalents(again) == two_input_gate_equivalents(optimized)


@given(optimizable_circuits())
@settings(max_examples=150, deadline=None)
def test_idempotent(circuit):
    optimized = optimize_circuit(circuit)
    again = optimize_circuit(optimized)
    assert again.gates == optimized.gates
    assert again.outputs == optimized.outputs


def _learn_fill_ops(transform):
    plan = transform.round_plan
    return tuple(
        None if program is None else program.describe()
        for program in (plan.learn, plan.fill)
    )


@pytest.mark.parametrize("name", list_instances())
def test_registry_costs_equal_the_oracle(name, monkeypatch):
    """Fig. 4's circuit side and the round's programs match the oracle's."""
    formula = get_instance(name).build_cnf()
    transform = transform_cnf(formula)
    with monkeypatch.context() as patch:
        patch.setattr(transform_module, "optimize_circuit", optimize_reference)
        reference = transform_cnf(formula)
    assert transform.stats.circuit_operations == reference.stats.circuit_operations
    assert two_input_gate_equivalents(transform.circuit) == two_input_gate_equivalents(
        reference.circuit
    )
    assert _learn_fill_ops(transform) == _learn_fill_ops(reference)
