"""The gate-table pipeline against the object pipeline it replaced.

The library builds the recovered circuit as an integer gate table
(:func:`~repro.circuit.builder.circuit_from_expressions`), optimizes it with
an integer walk (:func:`~repro.circuit.optimize.optimize_circuit`) and cuts
a round's learn and fill programs from one lowering of it
(:func:`~repro.engine.compiler.compile_circuit`).  The references in
``tests/oracles/`` do the same with named gate records: the object builder
and one-pass optimizer (``tests/oracles/circuit.py``) and the per-gate
compiler (``tests/oracles/compiler.py``).  Both pipelines must produce the
same netlist — names, types, fanins, definition and topological order,
inputs and outputs — and the same programs, array for array.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolalg.expr import FALSE, TRUE, And, Not, Or, Var, Xor
from repro.circuit.builder import circuit_from_expressions
from repro.circuit.optimize import optimize_circuit
from repro.core.transform import transform_cnf
from repro.engine.compiler import compile_circuit
from repro.engine.program import CompiledProgram
from repro.instances.registry import get_instance, list_instances
from tests.circuit.test_optimize_oracle import optimizable_circuits
from tests.oracles.circuit import circuit_from_expressions_reference, optimize_circuit_reference
from tests.oracles.compiler import compile_circuit_reference


def _table(circuit):
    return {
        "name": circuit.name,
        "gates": [(g.name, g.gate_type, g.fanins) for g in circuit.gates],
        "order": circuit.net_names(),
        "topological": circuit.topological_order(),
        "inputs": circuit.inputs,
        "outputs": circuit.outputs,
    }


def _assert_programs_equal(program, reference):
    if reference is None:
        assert program is None
        return
    for field in dataclasses.fields(CompiledProgram):
        value, expected = getattr(program, field.name), getattr(reference, field.name)
        if isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype, field.name
            np.testing.assert_array_equal(value, expected, err_msg=field.name)
        else:
            assert value == expected, field.name


def _pipeline(build, optimize, compile_, definitions, constraints, inputs, name="recovered"):
    """The circuit half of ``finish_transform`` plus the round plan's programs."""
    constraint_nets = [net for net, _ in constraints]
    circuit = build(definitions + constraints, outputs=constraint_nets, inputs=inputs, name=name)
    if constraints:
        for net, _ in definitions:
            circuit.set_output(net)
        circuit = optimize(circuit)
    learn = fill = None
    if constraints:
        cone = circuit.transitive_fanin(constraint_nets)
        constrained = [net for net in circuit.inputs if net in cone]
        learn = compile_(circuit, constraint_nets, constrained)
    if definitions:
        fill = compile_(circuit, [net for net, _ in definitions], list(circuit.inputs))
    return circuit, learn, fill


def _assert_pipelines_agree(definitions, constraints, inputs, name="recovered"):
    circuit, learn, fill = _pipeline(
        circuit_from_expressions, optimize_circuit, compile_circuit,
        definitions, constraints, inputs, name,
    )
    reference, reference_learn, reference_fill = _pipeline(
        circuit_from_expressions_reference, optimize_circuit_reference, compile_circuit_reference,
        definitions, constraints, inputs, name,
    )
    assert _table(circuit) == _table(reference)
    _assert_programs_equal(learn, reference_learn)
    _assert_programs_equal(fill, reference_fill)
    return circuit, learn, fill


@st.composite
def records(draw):
    """Random ``(definitions, constraints, declared inputs)`` of a transform.

    Expressions mix constants, NOT and AND/OR/XOR of arity 2-4 over the
    inputs, earlier definitions and earlier expressions (so subexpressions
    repeat).  A "twin" step gives two outputs the same function, which makes
    the optimizer chain output buffers.  (Every record's net is a buffer, so
    a kept net never changes owner here; the random netlists below reach
    that branch.)  One variable is never declared: the builder adds it as an
    input on first use.
    """
    declared = [f"x{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    pool = [Var(name) for name in declared] + [Var(f"x{len(declared) + 1}")]
    definitions, constraints = [], []
    next_variable = len(declared) + 2

    def expression():
        kind = draw(st.sampled_from(["const", "pool", "not", "and", "or", "xor", "xor"]))
        if kind == "const":
            return draw(st.sampled_from([TRUE, FALSE]))
        if kind == "pool":
            return draw(st.sampled_from(pool))
        if kind == "not":
            return Not(draw(st.sampled_from(pool)))
        operands = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
        return {"and": And, "or": Or, "xor": Xor}[kind](*operands)

    def define(expr):
        nonlocal next_variable
        name = f"x{next_variable}"
        next_variable += 1
        definitions.append((name, expr))
        pool.append(Var(name))

    def constrain(expr):
        constraints.append((f"__constraint_{len(constraints)}", expr))

    for _ in range(draw(st.integers(1, 10))):
        expr = expression()
        pool.append(expr)
        step = draw(st.sampled_from(["define", "define", "constrain", "twin"]))
        if step == "define":
            define(expr)
        elif step == "constrain":
            constrain(expr)
        else:
            first, second = draw(st.sampled_from([(define, constrain), (constrain, constrain),
                                                  (define, define)]))
            first(expr)
            second(expr)
    return definitions, constraints, declared


@given(records())
@settings(max_examples=300, deadline=None)
def test_random_records_match_the_object_pipeline(case):
    definitions, constraints, declared = case
    _assert_pipelines_agree(definitions, constraints, declared)


@given(optimizable_circuits())
@settings(max_examples=200, deadline=None)
def test_random_netlists_optimize_and_compile_like_the_oracle(circuit):
    """Outputs here are any gate, not only buffers, so kept nets change owner."""
    optimized = optimize_circuit(circuit)
    reference = optimize_circuit_reference(circuit)
    assert _table(optimized) == _table(reference)
    outputs = list(reference.outputs)
    _assert_programs_equal(
        compile_circuit(optimized, outputs), compile_circuit_reference(reference, outputs)
    )
    # The unoptimized table compiles in its sorted order, like the reference.
    _assert_programs_equal(
        compile_circuit(circuit, outputs), compile_circuit_reference(circuit, outputs)
    )


@pytest.mark.parametrize("name", list_instances())
def test_registry_transforms_match_the_object_pipeline(name):
    formula = get_instance(name).build_cnf()
    result = transform_cnf(formula)
    circuit, learn, fill = _assert_pipelines_agree(
        result.definitions, result.constraints, result.primary_inputs,
        formula.name or "recovered",
    )
    assert _table(result.circuit) == _table(circuit)
    plan = result.round_plan
    _assert_programs_equal(plan.learn, learn)
    _assert_programs_equal(plan.fill, fill)
