"""The stream's vectorised keep mask against the per-clause ``frozenset`` filter.

:func:`repro.core.transform.clause_keep_mask` decides, in one NumPy pass
over a formula's CSR arrays, which clauses Algorithm 1's stream reads: no
tautology, and only the first clause with each literal set.  The filter it
replaced is the oracle :func:`tests.oracles.transform.keep_mask_reference`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cnf import CNF
from repro.core.transform import clause_keep_mask
from tests.oracles.transform import keep_mask_reference


def _mask(rows):
    formula = CNF(rows)
    keep = clause_keep_mask(formula.literals, formula.offsets)
    assert keep.dtype == np.bool_ and keep.shape == (len(rows),)
    return keep.tolist()


@st.composite
def clause_sequences(draw):
    """Clauses over a few variables, drawn so that equal literal sets repeat:
    every clause is a fresh draw or a permuted copy of an earlier one."""
    num_variables = draw(st.integers(1, 5))
    literal = st.integers(1, num_variables).flatmap(lambda v: st.sampled_from([v, -v]))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.permutations(draw(st.sampled_from(rows)))))
        else:
            rows.append(draw(st.lists(literal, max_size=5, unique=True)))
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=clause_sequences())
@example(rows=[[], [1], []])  # a second empty clause is a duplicate
@example(rows=[[1, -1], [2], [-1, 1], [1, 2, -2]])  # a tautology that repeats
@example(rows=[[1, 2, 3], [3, 1, 2], [2, 1], [1], [1, 2]])  # widths differ
@example(rows=[[1], [-1], [1], [-1, 2], [2, -1]])  # units and their negations
def test_keep_mask_matches_the_frozenset_filter(rows):
    assert _mask(rows) == keep_mask_reference(rows)


@pytest.mark.parametrize(
    "rows, keep",
    [
        ([], []),
        ([[]], [True]),
        ([[], []], [True, False]),
        ([[3, -3], [3, -3]], [False, False]),
        ([[1, 2], [2, 1], [1, 2, 3], [3, 2, 1], [-1, 2]], [True, False, True, False, True]),
        ([[5], [5], [-5]], [True, False, True]),
    ],
)
def test_keep_mask_examples(rows, keep):
    assert _mask(rows) == keep


def test_keep_mask_reads_csr_built_formulas_and_wide_variables():
    widest = 2**31 - 1
    formula = CNF.from_csr(
        np.array([widest, -widest, -widest, widest, 1, widest, -1], dtype=np.int32),
        np.array([0, 1, 2, 3, 4, 6, 7], dtype=np.int64),
    )
    rows = list(formula.clauses)
    assert clause_keep_mask(formula.literals, formula.offsets).tolist() == keep_mask_reference(rows)
    assert keep_mask_reference(rows) == [True, True, False, False, True, True]
