"""Equality of formulas and deltas is the identity their signatures hash.

A clause is an ``int`` tuple whose literal order is significant: two
formulas are equal exactly when their variable counts and CSR arrays are,
which is what :func:`~repro.core.signatures.formula_signature` hashes, and
two deltas are equal exactly when their :meth:`ClauseDelta.canonical
<repro.cnf.delta.ClauseDelta.canonical>` forms are.  A retraction alone
ignores literal order: it removes the clause the list-walk oracle removes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cnf.delta import ClauseDelta
from repro.cnf.formula import CNF
from repro.core.signatures import formula_signature
from tests.oracles.delta import apply_reference

literals = st.integers(min_value=-5, max_value=5).filter(bool)
#: Clauses of up to four literals, repeats and the empty clause included.
rows = st.lists(st.lists(literals, max_size=4), max_size=6)


@st.composite
def permuted(draw, clauses):
    """``clauses`` with the literals of some of them in another order."""
    return [
        list(draw(st.permutations(clause))) if draw(st.booleans()) else clause
        for clause in clauses
    ]


@st.composite
def formula_pairs(draw):
    first = draw(rows)
    second = draw(st.one_of(permuted(first), rows, st.just(first)))
    return (
        CNF(first, num_variables=draw(st.integers(0, 6))),
        CNF(second, num_variables=draw(st.integers(0, 6))),
    )


@settings(max_examples=400, deadline=None)
@given(formula_pairs())
def test_formulas_are_equal_exactly_when_their_signatures_are(pair):
    first, second = pair
    same = formula_signature(first) == formula_signature(second)
    assert (first == second) is same
    assert (second == first) is same
    assert same is (
        first.num_variables == second.num_variables and first.clauses == second.clauses
    )


@st.composite
def deltas(draw, add=rows, retract=rows, assume=st.lists(literals, max_size=2)):
    return ClauseDelta(add=draw(add), retract=draw(retract), assume=draw(assume))


@st.composite
def delta_pairs(draw):
    first = draw(deltas())
    second = draw(
        st.one_of(
            deltas(permuted(first.add), permuted(first.retract), st.just(first.assume)),
            deltas(),
            st.just(ClauseDelta(first.add, first.retract, first.assume)),
        )
    )
    return first, second


@settings(max_examples=400, deadline=None)
@given(delta_pairs())
def test_deltas_are_equal_exactly_when_their_canonical_forms_are(pair):
    first, second = pair
    same = first.canonical() == second.canonical()
    assert (first == second) is same
    if same:
        assert hash(first) == hash(second)
    assert ClauseDelta.from_dict(first.to_dict()) == first


@st.composite
def retractions(draw):
    formula = CNF(draw(rows.filter(bool)))
    clause = list(draw(st.permutations(draw(st.sampled_from(formula.clauses)))))
    if clause and draw(st.booleans()):
        clause.append(clause[0])  # a repeated literal
    return formula, clause


@settings(max_examples=400, deadline=None)
@given(retractions())
def test_a_permuted_retraction_removes_the_clause_the_oracle_removes(case):
    formula, clause = case
    delta = ClauseDelta(retract=[clause])
    mutated, _ = apply_reference(delta, formula.clauses)
    assert formula.with_delta(delta).clauses == tuple(mutated)
    assert len(mutated) == formula.num_clauses - 1
