"""Tests for repro.circuit.gates."""

import pytest

from repro.circuit.gates import Gate, GateType


class TestGateType:
    def test_source_types(self):
        assert GateType.INPUT.is_source
        assert GateType.CONST0.is_source
        assert GateType.CONST1.is_source
        assert not GateType.AND.is_source

    def test_unary_types(self):
        assert GateType.NOT.is_unary
        assert GateType.BUF.is_unary
        assert not GateType.OR.is_unary


class TestGateValidation:
    def test_source_with_fanins_rejected(self):
        with pytest.raises(ValueError):
            Gate("x", GateType.INPUT, ("a",))

    def test_unary_arity_enforced(self):
        with pytest.raises(ValueError):
            Gate("x", GateType.NOT, ())
        with pytest.raises(ValueError):
            Gate("x", GateType.NOT, ("a", "b"))

    def test_nary_needs_two_fanins(self):
        with pytest.raises(ValueError):
            Gate("x", GateType.AND, ("a",))
        assert Gate("x", GateType.AND, ("a", "b")).arity == 2

    def test_valid_gates(self):
        assert Gate("i", GateType.INPUT).arity == 0
        assert Gate("n", GateType.NOT, ("i",)).arity == 1


class TestTwoInputEquivalents:
    def test_sources_and_buffers_are_free(self):
        assert Gate("i", GateType.INPUT).two_input_equivalents() == 0
        assert Gate("b", GateType.BUF, ("i",)).two_input_equivalents() == 0

    def test_inverter_costs_one(self):
        assert Gate("n", GateType.NOT, ("i",)).two_input_equivalents() == 1

    def test_wide_gates_cost_arity_minus_one(self):
        gate = Gate("g", GateType.AND, ("a", "b", "c", "d"))
        assert gate.two_input_equivalents() == 3

    def test_inverted_gates_cost_one_extra(self):
        assert Gate("g", GateType.NAND, ("a", "b")).two_input_equivalents() == 2
        assert Gate("g", GateType.AND, ("a", "b")).two_input_equivalents() == 1
        assert Gate("g", GateType.XNOR, ("a", "b")).two_input_equivalents() == 2
