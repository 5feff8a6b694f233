"""Tests for the circuit builder (repro.circuit.builder)."""

import itertools

import pytest

from repro.boolalg.expr import And, Not, Or, Var, Xor
from repro.circuit.builder import CircuitBuilder, circuit_from_expressions


class TestBuilderGates:
    def test_named_and_autonamed_nets(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        b = builder.input()
        net = builder.and_(a, b, name="out")
        assert net == "out"
        assert builder.circuit.has_net(b)

    def test_mux_semantics(self):
        builder = CircuitBuilder()
        s, t, e = builder.input("s"), builder.input("t"), builder.input("e")
        out = builder.mux(s, t, e)
        builder.output(out)
        circuit = builder.circuit
        for select, when_true, when_false in itertools.product([False, True], repeat=3):
            value = circuit.evaluate({"s": select, "t": when_true, "e": when_false})[out]
            assert value == (when_true if select else when_false)

    def test_inputs_helper(self):
        builder = CircuitBuilder()
        nets = builder.inputs(3, prefix="x")
        assert nets == ["x0", "x1", "x2"]

    def test_constant(self):
        builder = CircuitBuilder()
        one = builder.constant(True)
        builder.output(one)
        assert builder.circuit.evaluate({})[one] is True


class TestWordLevelHelpers:
    def test_ripple_adder(self):
        builder = CircuitBuilder()
        a_bits = builder.inputs(3, prefix="a")
        b_bits = builder.inputs(3, prefix="b")
        sums, carry = builder.ripple_adder(a_bits, b_bits)
        circuit = builder.circuit
        for a_value in range(8):
            for b_value in range(8):
                inputs = {f"a{i}": bool((a_value >> i) & 1) for i in range(3)}
                inputs.update({f"b{i}": bool((b_value >> i) & 1) for i in range(3)})
                values = circuit.evaluate(inputs)
                total = sum(values[s] << i for i, s in enumerate(sums))
                total += values[carry] << 3
                assert total == a_value + b_value

    def test_multiplier(self):
        builder = CircuitBuilder()
        a_bits = builder.inputs(3, prefix="a")
        b_bits = builder.inputs(3, prefix="b")
        product_bits = builder.multiplier(a_bits, b_bits)
        circuit = builder.circuit
        for a_value in range(8):
            for b_value in range(8):
                inputs = {f"a{i}": bool((a_value >> i) & 1) for i in range(3)}
                inputs.update({f"b{i}": bool((b_value >> i) & 1) for i in range(3)})
                values = circuit.evaluate(inputs)
                product = sum(values[bit] << i for i, bit in enumerate(product_bits))
                assert product == a_value * b_value

    def test_width_mismatch_rejected(self):
        builder = CircuitBuilder()
        with pytest.raises(ValueError):
            builder.ripple_adder(builder.inputs(2, "a"), builder.inputs(3, "b"))


class TestCircuitFromExpressions:
    def test_lowering_matches_expression_semantics(self):
        definitions = [
            ("t", And(Var("a"), Var("b"))),
            ("out", Or(Var("t"), Not(Var("c")))),
        ]
        circuit = circuit_from_expressions(definitions, outputs=["out"])
        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip("abc", bits))
            expected = (bits[0] and bits[1]) or not bits[2]
            assert circuit.evaluate(assignment)["out"] == expected

    def test_inputs_discovered_in_order(self):
        circuit = circuit_from_expressions([("f", And(Var("p"), Var("q")))])
        assert set(circuit.inputs) == {"p", "q"}

    def test_predeclared_inputs_fix_order(self):
        circuit = circuit_from_expressions(
            [("f", And(Var("p"), Var("q")))], inputs=["q", "p"]
        )
        assert circuit.inputs == ("q", "p")

    def test_outputs_default_to_unconsumed_nets(self):
        definitions = [("t", And(Var("a"), Var("b"))), ("f", Or(Var("t"), Var("c")))]
        circuit = circuit_from_expressions(definitions)
        assert circuit.outputs == ("f",)

    def test_forward_reference_rejected(self):
        definitions = [("f", Var("t")), ("t", Var("a"))]
        with pytest.raises(ValueError):
            circuit_from_expressions(definitions)

    def test_duplicate_definition_rejected(self):
        definitions = [("f", Var("a")), ("f", Var("b"))]
        with pytest.raises(ValueError):
            circuit_from_expressions(definitions)

    def test_xor_and_constants_lowered(self):
        definitions = [("f", Xor(Var("a"), Var("b"))), ("g", And(Var("a"), Not(Var("b"))))]
        circuit = circuit_from_expressions(definitions, outputs=["f", "g"])
        values = circuit.evaluate({"a": True, "b": False})
        assert values["f"] is True and values["g"] is True
