"""Tests for the DIMACS reader/writer (repro.cnf.dimacs)."""

import pytest

from repro.cnf.dimacs import DimacsError, parse_dimacs, parse_dimacs_file, write_dimacs, write_dimacs_file
from repro.cnf.formula import CNF


class TestParsing:
    def test_basic_document(self):
        formula = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
        assert formula.num_variables == 3
        assert list(formula) == [(1, -2), (2, 3)]

    def test_comments_preserved(self):
        formula = parse_dimacs("c hello\np cnf 1 1\nc mid comment\n1 0\n")
        assert "hello" in formula.comments
        assert "mid comment" in formula.comments

    def test_clause_spanning_lines(self):
        formula = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert formula.clauses[0] == (1, 2, 3)

    def test_missing_header_tolerated(self):
        formula = parse_dimacs("1 -2 0\n")
        assert formula.num_clauses == 1
        assert formula.num_variables == 2

    def test_percent_trailer_ignored(self):
        formula = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
        assert formula.num_clauses == 1

    def test_stray_zero_ignored(self):
        formula = parse_dimacs("p cnf 2 1\n0\n1 2 0\n")
        assert formula.num_clauses == 1

    def test_header_mismatch_recorded(self):
        formula = parse_dimacs("p cnf 2 5\n1 2 0\n")
        assert any("declared 5" in comment for comment in formula.comments)

    def test_malformed_header_raises(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf x y\n1 0\n")

    def test_non_integer_literal_raises(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\none 0\n")

    def test_over_declared_variables_kept(self):
        formula = parse_dimacs("p cnf 14 1\n1 2 0\n")
        assert formula.num_variables == 14

    def test_literal_beyond_the_header_names_its_line(self):
        # It used to widen the formula to 99,999,999,999 variables.
        with pytest.raises(DimacsError, match=r"^line 2: variable 99999999999"):
            parse_dimacs("p cnf 3 1\n1 99999999999 0\n")
        with pytest.raises(DimacsError, match=r"^line 3: variable 4"):
            parse_dimacs("p cnf 3 2\n1 2 0\n-4 0\n")

    def test_literal_before_a_narrower_header_names_its_line(self):
        with pytest.raises(DimacsError, match=r"^line 1: variable 7 .* line 2"):
            parse_dimacs("1 7 0\np cnf 3 1\n")

    @pytest.mark.parametrize("header", ["p cnf -5 1", "p cnf 5 -1"])
    def test_negative_header_count_names_its_line(self, header):
        # ``p cnf -5 1`` used to be accepted silently as one variable.
        with pytest.raises(DimacsError, match=r"^line 2: negative header count"):
            parse_dimacs(f"c x\n{header}\n1 0\n")

    def test_fig1_example(self, fig1_formula):
        assert fig1_formula.num_variables == 14
        assert fig1_formula.num_clauses == 21


class TestWriting:
    def test_roundtrip(self, fig1_formula):
        text = write_dimacs(fig1_formula)
        reparsed = parse_dimacs(text)
        assert reparsed.num_variables == fig1_formula.num_variables
        assert list(reparsed) == [c for c in fig1_formula]

    def test_header_line(self):
        text = write_dimacs(CNF([[1, -2]], num_variables=4))
        assert "p cnf 4 1" in text.splitlines()[0]

    def test_comments_optional(self):
        formula = CNF([[1]], comments=["note"])
        assert "c note" in write_dimacs(formula)
        assert "c note" not in write_dimacs(formula, include_comments=False)

    def test_file_roundtrip(self, tmp_path, fig1_formula):
        path = write_dimacs_file(fig1_formula, tmp_path / "fig1.cnf")
        loaded = parse_dimacs_file(path)
        assert loaded.num_clauses == fig1_formula.num_clauses
        assert loaded.name == "fig1"
