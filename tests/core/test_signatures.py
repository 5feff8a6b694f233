"""Tests for CNF gate-signature generation and matching (repro.core.signatures)."""

import pytest

from repro.circuit.gates import GateType
from repro.core.signatures import gate_signature_clauses, match_gate_signature


def _as_clauses(raw):
    return [tuple(clause) for clause in raw]


class TestSignatureGeneration:
    def test_not_signature_matches_eq1(self):
        assert sorted(map(sorted, gate_signature_clauses(GateType.NOT, 2, [1]))) == sorted(
            map(sorted, [[2, 1], [-2, -1]])
        )

    def test_or_signature_matches_eq2(self):
        clauses = gate_signature_clauses(GateType.OR, 4, [1, 2, 3])
        assert [-4, 1, 2, 3] in clauses
        assert [4, -1] in clauses and [4, -2] in clauses and [4, -3] in clauses

    def test_and_signature_matches_eq3(self):
        clauses = gate_signature_clauses(GateType.AND, 4, [1, 2])
        assert [4, -1, -2] in clauses
        assert [-4, 1] in clauses and [-4, 2] in clauses

    def test_xor_requires_two_fanins(self):
        with pytest.raises(ValueError):
            gate_signature_clauses(GateType.XOR, 4, [1, 2, 3])

    def test_inverted_inputs_supported(self):
        clauses = gate_signature_clauses(GateType.AND, 3, [1, -2])
        assert [3, -1, 2] in clauses
        assert [-3, -2] in clauses


class TestSignatureMatching:
    @pytest.mark.parametrize(
        "gate_type, fanins",
        [
            (GateType.NOT, (1,)),
            (GateType.BUF, (1,)),
            (GateType.AND, (1, 2)),
            (GateType.AND, (1, 2, 3)),
            (GateType.OR, (1, 2)),
            (GateType.OR, (1, 2, 3, 4)),
            (GateType.XOR, (1, 2)),
            (GateType.XNOR, (1, 2)),
        ],
    )
    def test_roundtrip(self, gate_type, fanins):
        output = 9
        clauses = _as_clauses(gate_signature_clauses(gate_type, output, fanins))
        match = match_gate_signature(output, clauses)
        assert match is not None
        assert match.gate_type == gate_type
        assert match.output == output
        assert tuple(sorted(match.fanin_literals, key=abs)) == fanins

    def test_wrong_candidate_not_matched(self):
        clauses = _as_clauses(gate_signature_clauses(GateType.AND, 9, (1, 2)))
        assert match_gate_signature(1, clauses) is None

    def test_partial_group_not_matched(self):
        clauses = _as_clauses(gate_signature_clauses(GateType.AND, 9, (1, 2)))[:2]
        assert match_gate_signature(9, clauses) is None

    def test_extra_clause_not_matched(self):
        clauses = _as_clauses(
            gate_signature_clauses(GateType.OR, 9, (1, 2)) + [[3, 4]]
        )
        assert match_gate_signature(9, clauses) is None

    def test_empty_group(self):
        assert match_gate_signature(1, []) is None

    def test_nand_nor_matched_as_inverted_forms(self):
        nand_clauses = _as_clauses(gate_signature_clauses(GateType.NAND, 9, (1, 2)))
        nor_clauses = _as_clauses(gate_signature_clauses(GateType.NOR, 9, (1, 2)))
        # NAND(x) == AND signature with the output inverted; the matcher reports
        # the gate through the generic AND/OR matcher with negated output, so it
        # may legitimately return None here (the generic extraction handles it).
        for clauses in (nand_clauses, nor_clauses):
            match = match_gate_signature(9, clauses)
            if match is not None:
                assert match.gate_type in (
                    GateType.AND, GateType.OR, GateType.NAND, GateType.NOR
                )
