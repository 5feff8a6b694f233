"""Tests for the circuit netlist (repro.circuit.netlist)."""

import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, CircuitError
from tests.oracles.circuit import fanouts


def _build_chain() -> Circuit:
    circuit = Circuit("chain")
    circuit.add_input("a")
    circuit.add_gate("n1", GateType.NOT, ["a"])
    circuit.add_gate("n2", GateType.BUF, ["n1"])
    circuit.set_output("n2")
    return circuit


class TestConstruction:
    def test_counts(self, small_circuit):
        assert small_circuit.num_inputs == 3
        assert small_circuit.num_outputs == 2
        assert small_circuit.num_gates >= 3

    def test_duplicate_net_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_input("a")

    def test_unknown_fanin_rejected(self):
        circuit = Circuit()
        with pytest.raises(CircuitError):
            circuit.add_gate("g", GateType.NOT, ["missing"])

    def test_unknown_output_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().set_output("missing")

    def test_input_via_add_gate_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().add_gate("a", GateType.INPUT, [])

    def test_constants(self):
        circuit = Circuit()
        circuit.add_constant("one", True)
        circuit.add_constant("zero", False)
        assert circuit.gate("one").gate_type == GateType.CONST1
        assert circuit.gate("zero").gate_type == GateType.CONST0

    def test_output_marked_once(self):
        circuit = _build_chain()
        circuit.set_output("n2")
        assert circuit.outputs == ("n2",)


class TestStructure:
    def test_topological_order_respects_fanins(self, small_circuit):
        order = small_circuit.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for gate in small_circuit.gates:
            for fanin in gate.fanins:
                assert position[fanin] < position[gate.name]

    def test_fanin_defined_later_rejected(self):
        # Rows only point backwards, so no netlist can hold a cycle: a gate
        # cannot read a net that is defined after it.
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_gate("g1", GateType.AND, ["a", "g2"])
        circuit.add_gate("g1", GateType.BUF, ["a"])
        circuit.add_gate("g2", GateType.BUF, ["g1"])
        assert circuit.topological_order() == ["a", "g1", "g2"]

    def test_transitive_fanin(self, small_circuit):
        cone = small_circuit.transitive_fanin(["f"])
        assert "a" in cone and "b" in cone and "c" in cone and "f" in cone
        assert "g" not in cone

    def test_depth(self):
        circuit = _build_chain()
        assert circuit.depth() == 1  # buffer does not add depth

    def test_fanouts(self, small_circuit):
        # f = (a & b) | c and g = a ^ c: each net maps to its readers, in row order.
        readers = fanouts(small_circuit)
        and_net, c_net = small_circuit.gate("f").fanins
        assert c_net == "c"
        assert readers == {
            "a": [and_net, "g"],
            "b": [and_net],
            "c": ["f", "g"],
            and_net: ["f"],
            "f": [],
            "g": [],
        }

    def test_add_gate_invalidates_topo_cache(self):
        circuit = _build_chain()
        assert circuit.topological_order() == ["a", "n1", "n2"]
        circuit.add_gate("n3", GateType.NOT, ["n1"])
        assert circuit.topological_order() == ["a", "n1", "n3", "n2"]
        circuit.add_input("b")
        assert circuit.topological_order()[0] == "b"

    def test_redefining_primary_input_rejected(self):
        circuit = _build_chain()
        with pytest.raises(CircuitError):
            circuit.add_gate("a", GateType.NOT, ["n1"])
        with pytest.raises(CircuitError):
            circuit.add_input("a")
        assert circuit.gate("a").gate_type == GateType.INPUT


class TestEvaluation:
    def test_all_gate_types(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("and", GateType.AND, ["a", "b"])
        circuit.add_gate("or", GateType.OR, ["a", "b"])
        circuit.add_gate("nand", GateType.NAND, ["a", "b"])
        circuit.add_gate("nor", GateType.NOR, ["a", "b"])
        circuit.add_gate("xor", GateType.XOR, ["a", "b"])
        circuit.add_gate("xnor", GateType.XNOR, ["a", "b"])
        circuit.add_gate("not", GateType.NOT, ["a"])
        circuit.add_gate("buf", GateType.BUF, ["a"])
        values = circuit.evaluate({"a": True, "b": False})
        assert values["and"] is False
        assert values["or"] is True
        assert values["nand"] is True
        assert values["nor"] is False
        assert values["xor"] is True
        assert values["xnor"] is False
        assert values["not"] is False
        assert values["buf"] is True

    def test_small_circuit_truth(self, small_circuit):
        outputs = small_circuit.evaluate_outputs({"a": True, "b": True, "c": False})
        assert outputs["f"] is True   # (a & b) | c
        assert outputs["g"] is True   # a ^ c

    def test_missing_input_raises(self, small_circuit):
        with pytest.raises(CircuitError):
            small_circuit.evaluate({"a": True})

    def test_copy_is_independent(self, small_circuit):
        duplicate = Circuit.from_table(
            small_circuit.name,
            small_circuit.net_names(),
            small_circuit.types,
            *small_circuit.fanin_csr(),
            outputs=small_circuit.outputs,
        )
        assert duplicate.gates == small_circuit.gates
        assert duplicate.inputs == small_circuit.inputs
        assert duplicate.outputs == small_circuit.outputs
        duplicate.add_input("z")
        assert not small_circuit.has_net("z")
