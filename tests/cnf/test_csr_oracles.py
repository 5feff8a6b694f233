"""The CSR formula against its oracles: reader, plan compiler and signature.

The DIMACS reader tokenises a whole document into the formula's CSR arrays,
and the evaluation plan is compiled by array operations over them.  Both
replaced a clause loop that is kept verbatim in ``tests/oracles/``; here
hypothesis writes DIMACS text with every irregularity the reader tolerates
(comments anywhere, clauses over several lines, ``\\r``, stray ``0`` lines,
``%`` trailers, repeated literals, tautologies, under-counted headers and
the odd tokens ``int`` accepts) and the two must agree on clauses, comments,
variable count and, for malformed text, the error and the line it names.
The one place they part is a literal beyond ``2**31 - 1`` with no header
before it: the loop read it, the reader refuses it on its line.

The version 2 signature hashes the CSR arrays, so every way of building one
formula gives one key; the Fig. 1 key is pinned.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf.delta import ClauseDelta
from repro.cnf.dimacs import DimacsError, parse_dimacs, write_dimacs
from repro.cnf.formula import CNF, MAX_VARIABLE, rows_csr
from repro.cnf.kernel import compile_evaluation_plan
from repro.core.signatures import formula_signature
from repro.core.transform import transform_cnf
from repro.store.format import encode_entry, verify_entry
from repro.store.schema import KIND_TRANSFORM, decode_transform, encode_transform
from tests.conftest import FIG1_DIMACS
from tests.oracles.cnf import compile_evaluation_plan_reference
from tests.oracles.dimacs import parse_dimacs_reference
from tests.oracles.signatures import formula_signature_v1

#: The version 2 signature of the Fig. 1 formula.
FIG1_SIGNATURE = "51686e1f26a64593d57eec0bc9eb709ea9181d979a760ac15a2b353f8c741d77"

#: Separators ``str.split`` splits on, ASCII and not.
SEPARATORS = (" ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\xa0", "　")
#: Tokens ``int`` reads unusually, and tokens it rejects.
ODD_TOKENS = ("-0", "1_0", "+3", "-0_2", "３", "007")
BAD_TOKENS = ("x", "1.5", "--1", "1__0", "_1", "c", "p", "%1")

separators = st.sampled_from(SEPARATORS)
padding = st.one_of(st.just(""), separators)
small_literals = st.integers(min_value=-12, max_value=12).filter(bool).map(str)
#: Literals at and beyond the ``int32`` bound, ``int64``'s minimum (which
#: ``np.abs`` leaves negative) and one wider than ``int64``.
WIDE_LITERALS = ("2147483647", "-2147483647", "2147483648", "-9223372036854775808", "9" * 25)
literals = st.one_of(*[small_literals] * 8, st.sampled_from(WIDE_LITERALS))
tokens = st.one_of(
    literals,
    literals,
    literals,
    st.just("0"),
    st.sampled_from(ODD_TOKENS),
)


@st.composite
def clause_lines(draw):
    words = draw(st.lists(tokens, min_size=1, max_size=6))
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(BAD_TOKENS)))
    line = ""
    for word in words:
        line += word + draw(separators)
    return draw(padding) + line + draw(st.sampled_from(("0", "", "0 0")))


header_lines = st.one_of(
    st.builds(
        "p cnf {} {}".format,
        st.integers(min_value=-1, max_value=13),
        st.integers(min_value=-1, max_value=15),
    ),
    st.sampled_from(("p cnf 3", "p dnf 3 2", "p cnf x 2", "p cnf 12 4 extra", "pcnf 3 2")),
)
comment_lines = st.builds(
    lambda lead, body: lead + "c" + body,
    padding,
    st.text(alphabet="ab 12-0%p\t", max_size=8),
)
other_lines = st.sampled_from(("", "0", " 0 ", "%", "% trailer", "\t"))
lines = st.one_of(clause_lines(), clause_lines(), clause_lines(), header_lines, comment_lines, other_lines)


@st.composite
def documents(draw):
    body = draw(st.lists(lines, max_size=12))
    text = ""
    for line in body:
        text += line + draw(st.sampled_from(("\n", "\n", "\r\n")))
    if draw(st.booleans()) and text:
        text = text[:-1]
    return text


def outcome(parse, text: str):
    try:
        formula = parse(text)
    except DimacsError as error:
        return "error", str(error)
    except ValueError as error:
        # The loop reads a literal beyond int32; the formula refuses it.
        return "refused", str(error)
    return (
        "formula",
        list(formula.clauses),
        formula.comments,
        formula.num_variables,
    )


def assert_matches_the_line_loop(text):
    expected = outcome(parse_dimacs_reference, text)
    actual = outcome(parse_dimacs, text)
    refused = actual[0] == "error" and re.match(
        r"line (\d+): literal (\S+) is beyond the largest variable", actual[1]
    )
    if refused:
        # The loop read the literal and failed later, if at all.
        assert abs(int(refused.group(2))) > MAX_VARIABLE
        line = int(refused.group(1))
        assert refused.group(2) in text.split("\n")[line - 1].split()
        if expected[0] == "error":
            assert int(re.match(r"line (\d+)", expected[1]).group(1)) >= line
        else:
            assert expected[0] == "refused"
    else:
        assert actual == expected
    return actual


@settings(max_examples=500, deadline=None)
@given(documents())
def test_the_reader_matches_the_line_loop(text):
    if assert_matches_the_line_loop(text)[0] == "formula":
        formula = parse_dimacs(text)
        reference = parse_dimacs_reference(text)
        offsets, literals = rows_csr(reference.clauses, np.int32)
        np.testing.assert_array_equal(formula.literals, literals)
        np.testing.assert_array_equal(formula.offsets, offsets)
        assert (formula.literals.dtype, formula.offsets.dtype) == (np.int32, np.int64)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "c only a comment",
        "p cnf 0 0\n",
        "1 -1 2 2 0\n",  # a tautology and a repeat
        "1 2\nc between\n-3 0\n",
        "1 2\np cnf 3 1\n3 0\n",  # the header mid-clause
        "p cnf 3 1\np cnf 2 1\n1 0\n",
        "3 0\np cnf 5 1\np cnf 2 1\n",  # the second header is the narrower
        "1 0\n%\n9999 0\np broken\n",
        "1 2 0\n% 0\nx\n",
        "  c indented\n\tp cnf 2 1\n 1 2 0",
        "1\r2 0\r\n-1 0\r\n",
        "1 x 0\np cnf 1\n",
        "p cnf 1\n1 x 0\n",
        "-0 1_0 +3 0\n",
        "１　２ 0\n",
        "\x85c not a comment\n",
        "1\x002 0\n",
        "p cnf 2 1\n-9223372036854775808 0\n",
        "p cnf 3 1\n1 99999999999999999999999 0\n",
        "-9223372036854775808 0\np cnf 2 1\n",
        "1 -9223372036854775808 0\n",
        "c\n1 99999999999999999999999 x 0\n",
    ],
)
def test_the_reader_matches_the_line_loop_on_edge_cases(text):
    assert_matches_the_line_loop(text)


@pytest.mark.parametrize("literal", [-(2**63), 2**31, -(2**31)])
def test_from_csr_refuses_a_literal_beyond_int32(literal):
    with pytest.raises(ValueError, match="is beyond the largest"):
        CNF.from_csr(np.array([1, literal], dtype=np.int64), np.array([0, 2]))


def test_the_largest_int32_literal_is_read():
    formula = parse_dimacs("1 -2147483647 0\n")
    assert formula.num_variables == 2**31 - 1
    assert formula.literals.tolist() == [1, -(2**31 - 1)]


# -- the evaluation plan -------------------------------------------------------------------
clause_lists = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9).filter(bool), max_size=5), max_size=14
)


def assert_plans_equal(plan, reference):
    assert (plan.num_variables, plan.num_clauses, plan.num_empty) == (
        reference.num_variables,
        reference.num_clauses,
        reference.num_empty,
    )
    assert plan.width_groups == reference.width_groups
    for field in ("literal_columns", "literal_negated", "reduce_offsets"):
        actual, expected = getattr(plan, field), getattr(reference, field)
        assert actual.dtype == expected.dtype, field
        np.testing.assert_array_equal(actual, expected, err_msg=field)


@settings(max_examples=300, deadline=None)
@given(clauses=clause_lists, extra=st.integers(min_value=0, max_value=3))
def test_the_plan_matches_the_clause_loop(clauses, extra):
    formula = CNF(clauses)
    formula = CNF(clauses, num_variables=formula.num_variables + extra)
    assert_plans_equal(
        compile_evaluation_plan(formula), compile_evaluation_plan_reference(formula)
    )
    parsed = CNF.from_csr(formula.literals, formula.offsets, formula.num_variables)
    assert_plans_equal(compile_evaluation_plan(parsed), compile_evaluation_plan_reference(formula))


def test_the_plan_matches_the_clause_loop_on_a_registry_instance():
    from repro.instances.registry import get_instance

    formula = parse_dimacs(write_dimacs(get_instance("s9234a_3_2").build_cnf()))
    assert_plans_equal(
        compile_evaluation_plan(formula), compile_evaluation_plan_reference(formula)
    )


# -- one signature per formula -------------------------------------------------------------
def test_the_fig1_signature_is_pinned():
    assert formula_signature(parse_dimacs(FIG1_DIMACS, name="fig1")) == FIG1_SIGNATURE


def test_parse_clauses_and_store_decode_share_one_signature():
    parsed = parse_dimacs(FIG1_DIMACS, name="fig1")
    built = CNF(parsed.clauses, num_variables=14)
    one_by_one = CNF([list(clause) for clause in parsed.clauses], num_variables=14)
    payload = encode_transform(parsed, transform_cnf(parsed))
    blob = encode_entry(KIND_TRANSFORM, FIG1_SIGNATURE, payload)
    decoded, _ = decode_transform(verify_entry(bytearray(blob), kind=KIND_TRANSFORM))
    for formula in (built, one_by_one, decoded):
        assert formula_signature(formula) == FIG1_SIGNATURE
    # The version 1 key of the same formula is another key.
    assert formula_signature_v1(parsed) != FIG1_SIGNATURE


def test_with_delta_has_the_signature_of_the_edited_text():
    parsed = parse_dimacs(FIG1_DIMACS)
    edited = parsed.with_delta(ClauseDelta(add=[[1, 14]], retract=[[-1, -2]], assume=[3]))
    text = FIG1_DIMACS.replace("-1 -2 0\n", "") + "1 14 0\n3 0\n"
    assert formula_signature(edited) == formula_signature(parse_dimacs(text))
    # Retractions match literal sets in any order, the same set twice takes
    # two clauses, and a new variable widens the header.
    edited = parsed.with_delta(
        ClauseDelta(add=[[15, -1]], retract=[[-5, 11, -4], [2, 1], [-2, 3]], assume=[-7])
    )
    text = (
        FIG1_DIMACS.replace("p cnf 14 21", "p cnf 15 21")
        .replace("-4 11 -5 0\n", "")
        .replace("\n1 2 0\n", "\n")
        .replace("-2 3 0\n", "")
        + "15 -1 0\n-7 0\n"
    )
    assert formula_signature(edited) == formula_signature(parse_dimacs(text))


def test_the_signature_covers_clause_order_literal_order_and_variables():
    base = formula_signature(CNF([[1, 2], [3]]))
    assert formula_signature(CNF([[3], [1, 2]])) != base
    assert formula_signature(CNF([[2, 1], [3]])) != base
    assert formula_signature(CNF([[1, 2], [3]], num_variables=4)) != base
    # Clause bounds count: (1 2)(3) is not (1)(2 3).
    assert formula_signature(CNF([[1], [2, 3]])) != base
    assert formula_signature(CNF([[1, 2, 2], [3]])) == base
