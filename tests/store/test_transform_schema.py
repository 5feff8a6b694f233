"""The ``transform`` entry: every record survives the array layout exactly.

A decoded entry must be the built formula and transform, record for record:
the formula (clauses with their literal order, name, comments), the
definitions, inputs, intermediates, outputs, constraints and free
variables, the stats, the circuit's gates in order with their fanins, its
inputs, outputs and topological order, and the replay (the CSR clause
sequence and checkpoints).  And an incremental transform derived from a
decoded parent must equal one derived from the built parent.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cnf.delta import ClauseDelta
from repro.cnf.dimacs import parse_dimacs
from repro.core.transform import retransform, transform_cnf
from repro.store import KIND_TRANSFORM
from repro.store.format import encode_entry, verify_entry
from repro.store.schema import decode_transform, encode_transform
from tests.conftest import FIG1_DIMACS, registry_instance
from tests.core.test_transform_equivalence import random_cnfs
from tests.incremental.test_retransform import formula_and_delta

RECORDS = (
    "source_name",
    "num_variables",
    "definitions",
    "primary_inputs",
    "intermediate_variables",
    "primary_outputs",
    "constraints",
    "free_variables",
)

#: A few registry instances of every family; CHANGES.md reports the check
#: over all 60.
INSTANCES = ("or-50-10-7-UC-10", "75-10-1-q", "90-10-3-q", "Prod-8", "s9234a_3_2")


def round_trip(formula, transform):
    blob = encode_entry(KIND_TRANSFORM, "sig", encode_transform(formula, transform))
    return decode_transform(verify_entry(bytearray(blob), kind=KIND_TRANSFORM))


def assert_same_circuit(decoded, built):
    assert decoded.name == built.name
    assert decoded.gates == built.gates  # names, types and fanins, in order
    assert decoded.inputs == built.inputs and decoded.outputs == built.outputs
    assert decoded.num_gates == built.num_gates
    assert decoded.topological_order() == built.topological_order()


def _counters(stats):
    """The stats without their wall-clock timings."""
    return dataclasses.replace(stats, seconds=0.0, stage_seconds={})


def assert_same_transform(decoded, built, timings=True):
    """``timings=False`` compares two separate runs, whose clocks differ."""
    for record in RECORDS:
        assert getattr(decoded, record) == getattr(built, record), record
    if timings:
        assert decoded.stats == built.stats
    else:
        assert _counters(decoded.stats) == _counters(built.stats)
    assert list(decoded.primary_outputs) == list(built.primary_outputs)
    assert_same_circuit(decoded.circuit, built.circuit)
    for array in ("literals", "offsets"):
        decoded_array, built_array = getattr(decoded.replay, array), getattr(built.replay, array)
        assert decoded_array.dtype == built_array.dtype, array
        np.testing.assert_array_equal(decoded_array, built_array)
    assert decoded.replay.checkpoints == built.replay.checkpoints


def assert_round_trips(formula, transform):
    decoded_formula, decoded = round_trip(formula, transform)
    assert decoded_formula == formula
    assert list(decoded_formula.clauses) == list(formula.clauses)
    assert (decoded_formula.name, decoded_formula.comments) == (formula.name, formula.comments)
    assert_same_transform(decoded, transform)
    # The replay is the decoded formula's own read-only CSR, not a copy.
    assert decoded.replay.literals is decoded_formula.literals
    assert decoded.replay.offsets is decoded_formula.offsets
    return decoded_formula, decoded


def test_fig1_round_trips():
    formula = parse_dimacs(FIG1_DIMACS, name="fig1")
    _, decoded = assert_round_trips(formula, transform_cnf(formula))
    assert decoded.constraints and decoded.definitions and decoded.primary_outputs == {}


@pytest.mark.parametrize("name", INSTANCES)
def test_registry_instance_round_trips(name):
    formula, transform = registry_instance(name)
    assert_round_trips(formula, transform)


@pytest.mark.parametrize(
    "delta",
    [
        ClauseDelta(add=((1, -3, 5), (-2, 7))),
        ClauseDelta(retract=((-8, -9),)),
        ClauseDelta(assume=(1,)),
    ],
    ids=["append", "retract", "assume"],
)
def test_retransform_from_a_decoded_parent(delta):
    formula = parse_dimacs(FIG1_DIMACS, name="fig1")
    built = transform_cnf(formula)
    _, decoded = round_trip(formula, built)
    child = retransform(built, delta)
    assert child is not built
    assert_same_transform(retransform(decoded, delta), child, timings=False)
    # The derived transform, stored under its own formula, round-trips too.
    assert_round_trips(formula.with_delta(delta), child)


@settings(max_examples=40, deadline=None)
@given(case=formula_and_delta())
def test_generated_formulas_round_trip(case):
    formula, delta = case
    built = transform_cnf(formula)
    _, decoded = assert_round_trips(formula, built)
    child = retransform(built, delta)
    assert_same_transform(retransform(decoded, delta), child, timings=False)
    assert_round_trips(formula.with_delta(delta), child)


@settings(max_examples=60, deadline=None)
@given(formula=random_cnfs())
def test_formulas_with_empty_duplicate_and_tautological_clauses_round_trip(formula):
    assert_round_trips(formula, transform_cnf(formula))


def test_a_variable_only_tautologies_mention_stays_free():
    from repro.cnf.formula import CNF

    formula = CNF([[1, 2], [3, -3]], num_variables=3)
    _, decoded = assert_round_trips(formula, transform_cnf(formula))
    assert decoded.free_variables == ["x3"]


def test_decoded_transform_samples_the_same_completions():
    formula, transform = registry_instance("Prod-8")
    _, decoded = round_trip(formula, transform)
    rng = np.random.default_rng(3)
    inputs = rng.random((16, len(transform.primary_inputs))) < 0.5
    free = rng.random((16, len(transform.free_variables))) < 0.5
    np.testing.assert_array_equal(
        decoded.complete_assignments(inputs, free), transform.complete_assignments(inputs, free)
    )


def test_a_transform_the_entry_cannot_hold_exactly_is_not_written():
    formula = parse_dimacs(FIG1_DIMACS, name="fig1")
    transform = transform_cnf(formula)
    other = parse_dimacs(FIG1_DIMACS, name="other")
    with pytest.raises(ValueError):
        encode_transform(other, transform)  # built from another formula
    replay = transform.replay
    transform.replay = dataclasses.replace(replay, offsets=replay.offsets[:-1])
    with pytest.raises(ValueError, match="replay"):
        encode_transform(formula, transform)  # a replay of another clause sequence
    transform.replay = None
    with pytest.raises(ValueError):
        encode_transform(formula, transform)


def test_one_transform_encodes_to_one_entry():
    """Whether the circuit's row order is its topological order is read off
    the gate table, so encoding before and after the round plan (which
    computes the order) gives the same payload."""
    formula = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    transform = transform_cnf(formula)
    before = encode_transform(formula, transform)
    assert transform.round_plan.fill is not None
    after = encode_transform(formula, transform)
    assert after.fields == before.fields
    assert after.arrays.keys() == before.arrays.keys()
    for name, array in after.arrays.items():
        np.testing.assert_array_equal(array, before.arrays[name])
