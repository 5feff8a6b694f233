"""Incremental ``retransform`` pinned against cold transforms.

The contract (documented on :func:`repro.core.transform.retransform`): for
any clause delta, the incremental result's *records* — definitions, primary
inputs, intermediate variables, primary outputs, constraints, free
variables — are identical to a cold :func:`transform_cnf` of the mutated
formula, and :meth:`complete_assignments` is bitwise identical.  The
grafted circuit may differ structurally from a cold build, so circuits are
compared by simulation, never by gate list.

Hypothesis drives random formulas through random add/retract/assume deltas
(single and chained), with the seed's transform (``tests/oracles/transform.py``)
as the ultimate oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import CNF, ClauseDelta
from tests.corpus.generators import planted_ksat
from repro.circuit.gates import GateType
from repro.circuit.simulate import simulate
from repro.core.transform import retransform, transform_cnf
from tests.oracles.transform import retransform_reference


def assert_records_match(fast, cold):
    """Record-level equality (expressions are hash-consed, so ``==`` is exact).

    ``constrained_inputs()`` is deliberately *not* compared: it is derived
    from the circuit's fanin cone, and a grafted circuit may keep an input
    in the cone that a cold build's optimizer eliminated.  The circuits are
    instead compared functionally below.
    """
    assert fast.num_variables == cold.num_variables
    assert fast.definitions == cold.definitions
    assert fast.primary_inputs == cold.primary_inputs
    assert fast.intermediate_variables == cold.intermediate_variables
    assert fast.primary_outputs == cold.primary_outputs
    assert fast.constraints == cold.constraints
    assert fast.free_variables == cold.free_variables


def assert_constraint_nets_equivalent(fast, cold, seed=7):
    nets = fast.constraint_nets()
    assert nets == cold.constraint_nets()
    if not nets or not fast.primary_inputs:
        return
    rng = np.random.default_rng(seed)
    batch = rng.random((64, len(fast.primary_inputs))) < 0.5
    fast_values = simulate(
        fast.circuit, batch, input_order=fast.primary_inputs, nets=nets
    )
    cold_values = simulate(
        cold.circuit, batch, input_order=cold.primary_inputs, nets=nets
    )
    for net in nets:
        np.testing.assert_array_equal(fast_values[net], cold_values[net])


def assert_completions_match(fast, cold, seed=0):
    rng = np.random.default_rng(seed)
    batch = rng.random((32, len(fast.primary_inputs))) < 0.5
    free = None
    if fast.free_variables:
        free = rng.random((32, len(fast.free_variables))) < 0.5
    np.testing.assert_array_equal(
        fast.complete_assignments(batch, free),
        cold.complete_assignments(batch, free),
    )


def literals_strategy(num_variables, width):
    return st.lists(
        st.integers(1, num_variables).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1, max_size=width,
    )


@st.composite
def formula_and_delta(draw):
    num_variables = draw(st.integers(4, 10))
    clauses = draw(
        st.lists(literals_strategy(num_variables, 3), min_size=4, max_size=24)
    )
    # dedup literal multiplicity inside a clause to keep retract matching simple
    clauses = [sorted(set(c), key=abs) for c in clauses]
    add = tuple(
        tuple(c)
        for c in draw(
            st.lists(literals_strategy(num_variables + 1, 3), max_size=3)
        )
    )
    retract_indices = draw(
        st.lists(st.integers(0, len(clauses) - 1), max_size=2, unique=True)
    )
    retract = tuple(tuple(clauses[i]) for i in retract_indices)
    assume = tuple(
        draw(
            st.lists(
                st.integers(1, num_variables).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                max_size=2, unique=True,
            )
        )
    )
    delta = ClauseDelta(add=add, retract=retract, assume=assume)
    return CNF(clauses, num_variables=num_variables, name="hyp"), delta


@settings(max_examples=40, deadline=None)
@given(case=formula_and_delta())
def test_retransform_matches_cold_transform(case):
    formula, delta = case
    prev = transform_cnf(formula)
    fast = retransform(prev, delta)
    if delta.is_empty:
        assert fast is prev
        return
    mutated = formula.with_delta(delta)
    cold = transform_cnf(mutated)
    assert_records_match(fast, cold)
    assert_completions_match(fast, cold)
    assert_constraint_nets_equivalent(fast, cold)


@settings(max_examples=15, deadline=None)
@given(case=formula_and_delta())
def test_retransform_matches_reference_path(case):
    formula, delta = case
    prev = transform_cnf(formula)
    fast = retransform(prev, delta)
    if delta.is_empty:
        return
    oracle = retransform_reference(prev, delta)
    assert_records_match(fast, oracle)
    assert_completions_match(fast, oracle)


def test_chained_deltas_compose():
    formula = planted_ksat(14, 36, 3, seed=5)
    first = ClauseDelta(assume=(3,))
    second = ClauseDelta(add=((1, -2, 14),), retract=(formula.clauses[0],))
    prev = transform_cnf(formula)
    step_one = retransform(prev, first)
    step_two = retransform(step_one, second)
    mutated = formula.with_delta(first).with_delta(second)
    cold = transform_cnf(mutated)
    assert_records_match(step_two, cold)
    assert_completions_match(step_two, cold)
    assert_constraint_nets_equivalent(step_two, cold)
    # the chained result itself carries a replay and can keep going
    assert step_two.replay is not None
    step_three = retransform(step_two, ClauseDelta(assume=(-7,)))
    cold_three = transform_cnf(mutated.with_delta(ClauseDelta(assume=(-7,))))
    assert_records_match(step_three, cold_three)


def test_empty_delta_returns_prev():
    formula = planted_ksat(10, 24, 3, seed=1)
    prev = transform_cnf(formula)
    assert retransform(prev, ClauseDelta()) is prev


def test_retransform_requires_replay():
    formula = planted_ksat(10, 24, 3, seed=1)
    prev = transform_cnf(formula)
    stripped = prev.__class__(
        **{
            field: getattr(prev, field)
            for field in (
                "source_name", "num_variables", "definitions", "primary_inputs",
                "intermediate_variables", "primary_outputs", "constraints",
                "circuit", "free_variables", "stats",
            )
        }
    )
    with pytest.raises(ValueError, match="replay"):
        retransform(stripped, ClauseDelta(assume=(1,)))


def test_appended_clause_can_widen_the_variable_range():
    formula = planted_ksat(8, 20, 3, seed=2)
    delta = ClauseDelta(add=((9, -10),))
    prev = transform_cnf(formula)
    fast = retransform(prev, delta)
    cold = transform_cnf(formula.with_delta(delta))
    assert fast.num_variables == 10
    assert_records_match(fast, cold)
    assert_completions_match(fast, cold)


@pytest.mark.parametrize("name", ["90-10-10-q", "90-10-3-q"])
def test_graft_never_redefines_a_new_primary_input(name):
    # Retracting this clause turns a variable the parent defined into a
    # primary input, while a kept cone of the parent's optimized circuit
    # still holds a gate named after it (structural hashing merged a prefix
    # gate into that definition's net).  Copying the gate over the input
    # used to close a combinational cycle; the graft must rebuild instead.
    from repro.instances.registry import get_instance

    formula = get_instance(name).build_cnf()
    clauses = list(formula.clauses)
    delta = ClauseDelta(retract=(clauses[len(clauses) // 2],))
    fast = retransform(transform_cnf(formula), delta)
    cold = transform_cnf(formula.with_delta(delta))
    assert_records_match(fast, cold)
    for net in fast.primary_inputs:
        assert fast.circuit.gate(net).gate_type == GateType.INPUT
    assert_completions_match(fast, cold)
    assert_constraint_nets_equivalent(fast, cold)
    retransform(fast, ClauseDelta(assume=(1,)))  # the result keeps going


def _resume_position(prev, change_position):
    """The checkpoint position ``retransform`` resumes from (its own rule)."""
    resume = 0
    for position, *_, lookahead_free in prev.replay.checkpoints:
        if position > change_position:
            break
        if position < change_position or lookahead_free:
            resume = position
    return resume


@pytest.mark.parametrize("kind", ["append", "retract", "assume"])
def test_a_duplicate_split_by_the_change_position_matches_the_reference(kind):
    # The first copy of a duplicate sits in the reused prefix and a later,
    # permuted copy in the replayed suffix: the suffix must still drop it,
    # exactly as a stream over the whole mutated sequence does.
    from repro.instances.registry import get_instance

    rows = [list(clause) for clause in get_instance("or-50-10-7-UC-10").build_cnf()]
    unit = rows[0][0]
    rows.insert(1, [unit])
    middle = len(rows) // 2
    # A copy of the clause at position 3 where the buffer is empty, so that
    # reading it would start a group of its own.
    later = next(
        position
        for position, *_, lookahead_free in transform_cnf(CNF(rows)).replay.checkpoints
        if position > middle and lookahead_free
    )
    rows.insert(later, rows[3][::-1])
    formula = CNF(rows, name="split-duplicate")
    delta = {
        "append": ClauseDelta(add=(tuple(rows[4][::-1]),)),
        "retract": ClauseDelta(retract=(tuple(rows[middle]),)),
        "assume": ClauseDelta(assume=(unit,)),
    }[kind]
    prev = transform_cnf(formula)
    change_position = middle if kind == "retract" else len(rows)
    assert _resume_position(prev, change_position) > 4
    fast = retransform(prev, delta)
    assert "circuit_graft" in fast.stats.stage_seconds  # resumed, not rebuilt
    oracle = retransform_reference(prev, delta)
    assert_records_match(fast, oracle)
    assert_completions_match(fast, oracle)
    cold = transform_cnf(formula.with_delta(delta))
    assert fast.replay.checkpoints == cold.replay.checkpoints
    assert fast.stats.fallback_groups == cold.stats.fallback_groups
