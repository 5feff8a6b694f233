"""Tests for the ISCAS .bench reader/writer (repro.circuit.bench_format)."""

import itertools

import pytest

from repro.circuit.bench_format import (
    BenchFormatError,
    parse_bench,
    parse_bench_file,
    write_bench,
    write_bench_file,
)
from repro.circuit.gates import GateType

SMALL_BENCH = """\
# a tiny combinational benchmark
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(f)
OUTPUT(g)
t1 = AND(a, b)
f = OR(t1, c)
g = XOR(a, c)
"""

SEQUENTIAL_BENCH = """\
INPUT(clk_in)
OUTPUT(out)
state = DFF(next_state)
next_state = NOT(state)
out = AND(state, clk_in)
"""


class TestParsing:
    def test_structure(self):
        circuit = parse_bench(SMALL_BENCH, name="tiny")
        assert set(circuit.inputs) == {"a", "b", "c"}
        assert set(circuit.outputs) == {"f", "g"}
        assert circuit.gate("t1").gate_type == GateType.AND

    def test_semantics(self):
        circuit = parse_bench(SMALL_BENCH)
        for bits in itertools.product([False, True], repeat=3):
            values = circuit.evaluate(dict(zip(["a", "b", "c"], bits)))
            assert values["f"] == ((bits[0] and bits[1]) or bits[2])
            assert values["g"] == (bits[0] ^ bits[2])

    def test_out_of_order_definitions_resolved(self):
        text = "INPUT(a)\nOUTPUT(f)\nf = NOT(t)\nt = BUFF(a)\n"
        circuit = parse_bench(text)
        assert circuit.evaluate({"a": True})["f"] is False

    def test_dff_outputs_become_inputs(self):
        circuit = parse_bench(SEQUENTIAL_BENCH)
        assert "state" in circuit.inputs
        assert circuit.evaluate({"state": True, "clk_in": True})["out"] is True

    def test_comments_and_blank_lines_ignored(self):
        circuit = parse_bench("# comment\n\nINPUT(x)\nOUTPUT(y)\ny = NOT(x)  # inline\n")
        assert circuit.num_inputs == 1

    def test_unknown_gate_rejected(self):
        with pytest.raises(BenchFormatError):
            parse_bench("INPUT(a)\nOUTPUT(f)\nf = MAJ(a, a, a)\n")

    def test_undriven_output_rejected(self):
        with pytest.raises(BenchFormatError):
            parse_bench("INPUT(a)\nOUTPUT(f)\n")

    def test_unresolvable_fanin_rejected(self):
        with pytest.raises(BenchFormatError):
            parse_bench("INPUT(a)\nOUTPUT(f)\nf = AND(a, ghost)\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(BenchFormatError):
            parse_bench("INPUT(a)\nOUTPUT(f)\nf == AND(a, a)\n")


class TestWriting:
    def test_roundtrip_preserves_semantics(self, small_circuit):
        text = write_bench(small_circuit)
        reparsed = parse_bench(text)
        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip(small_circuit.inputs, bits))
            original = small_circuit.evaluate_outputs(assignment)
            recovered = reparsed.evaluate_outputs(assignment)
            assert original == recovered

    def test_constants_rendered_soundly(self):
        from repro.circuit.builder import CircuitBuilder

        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.constant(True)
        zero = builder.constant(False)
        builder.output(builder.and_(a, one, name="f"))
        builder.output(builder.or_(a, zero, name="g"))
        reparsed = parse_bench(write_bench(builder.circuit))
        for value in (False, True):
            values = reparsed.evaluate({"a": value})
            assert values["f"] == value
            assert values["g"] == value

    def test_file_roundtrip(self, tmp_path, small_circuit):
        path = write_bench_file(small_circuit, tmp_path / "small.bench")
        reparsed = parse_bench_file(path)
        assert set(reparsed.outputs) == set(small_circuit.outputs)
