"""The clause delta's array edit against the clause-list edit it replaced.

:meth:`ClauseDelta.apply <repro.cnf.delta.ClauseDelta.apply>` edits a
formula's CSR arrays; ``tests/oracles/delta.py`` keeps the list walk it
replaced.  Hypothesis draws formulas with repeated literals, duplicate and
empty clauses, and deltas that retract clauses with their literals
reordered or repeated, retract one clause twice, retract clauses that are
not there and append clauses over new variables.  The two must agree on the
clauses, the change position and the error text, and the formula
:meth:`CNF.with_delta <repro.cnf.formula.CNF.with_delta>` builds must have
the reference's evaluation plan, field for field, and the signature of its
DIMACS text.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf.delta import ClauseDelta
from repro.cnf.dimacs import parse_dimacs, write_dimacs
from repro.cnf.formula import CNF, MAX_VARIABLE, csr_rows
from repro.core.signatures import formula_signature
from tests.cnf.test_csr_oracles import assert_plans_equal
from tests.oracles.cnf import compile_evaluation_plan_reference
from tests.oracles.delta import apply_reference

literals = st.integers(min_value=-6, max_value=6).filter(bool)
#: Clauses of up to four literals, repeats and the empty clause included.
clauses = st.lists(literals, max_size=4)
#: Literals over variables past every drawn formula's: new variables.
wide_literals = st.integers(min_value=-12, max_value=12).filter(bool)


@st.composite
def formulas_and_deltas(draw):
    rows = draw(st.lists(clauses, max_size=10))
    if rows:
        # Duplicate clauses, with their literals in another order.
        for row in draw(st.lists(st.sampled_from(rows), max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), list(draw(st.permutations(row))))
    formula = CNF(rows, num_variables=draw(st.integers(0, 8)))
    present = [list(clause) for clause in formula.clauses]
    retract = []
    for _ in range(draw(st.integers(0, 4))):
        if present and draw(st.integers(0, 3)):
            row = list(draw(st.permutations(draw(st.sampled_from(present)))))
            if row and draw(st.booleans()):
                row.append(row[0])  # a repeated literal
        else:
            row = draw(clauses)  # most likely not in the formula
        retract.append(row)
        if not draw(st.integers(0, 3)):
            retract.append(row[::-1])  # the same clause again
    delta = ClauseDelta(
        add=draw(st.lists(st.lists(wide_literals, max_size=4), max_size=3)),
        retract=retract,
        assume=draw(st.lists(wide_literals, max_size=3)),
    )
    return formula, delta


@settings(max_examples=500, deadline=None)
@given(formulas_and_deltas())
def test_the_array_edit_matches_the_clause_list_edit(case):
    formula, delta = case
    try:
        mutated, change_position = apply_reference(delta, formula.clauses)
    except ValueError as error:
        for edit in (
            lambda: delta.apply(formula.literals, formula.offsets),
            lambda: formula.with_delta(delta),
        ):
            with pytest.raises(ValueError) as raised:
                edit()
            assert str(raised.value) == str(error)
        return
    edited_literals, edited_offsets, position = delta.apply(formula.literals, formula.offsets)
    assert csr_rows(edited_literals, edited_offsets) == mutated
    assert position == change_position
    assert (edited_literals.dtype, edited_offsets.dtype) == (np.int32, np.int64)
    assert not (edited_literals.flags.writeable or edited_offsets.flags.writeable)

    widest = max((abs(literal) for clause in mutated for literal in clause), default=0)
    reference = CNF(mutated, num_variables=max(formula.num_variables, widest))
    edited = formula.with_delta(delta)
    assert edited.num_variables == reference.num_variables
    assert_plans_equal(edited.evaluation_plan(), compile_evaluation_plan_reference(reference))
    if all(len(clause) for clause in mutated):
        # DIMACS has no empty clause: a lone ``0`` line is skipped.
        reference = parse_dimacs(write_dimacs(reference))
    assert formula_signature(edited) == formula_signature(reference)


@pytest.mark.parametrize("literal", [MAX_VARIABLE + 1, -(2**63), 10**25])
def test_an_appended_literal_beyond_int32_is_refused(literal):
    formula = CNF([[1, 2]])
    for delta in (ClauseDelta(add=[[1, literal]]), ClauseDelta(assume=[literal])):
        with pytest.raises(ValueError, match=f"variable {abs(literal)} is beyond the largest"):
            delta.apply(formula.literals, formula.offsets)
        with pytest.raises(ValueError, match="is beyond the largest"):
            formula.with_delta(delta)
