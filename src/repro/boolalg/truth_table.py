"""Truth-table based semantic queries on Boolean expressions.

The transformation algorithm needs two semantic checks on the small
sub-expressions it derives from clause groups:

* *complement checking* — is the expression derived for ``v`` the complement
  of the expression derived for ``~v``? (Algorithm 1, line 10), and
* *constant detection* — is the accepted expression a tautology or a
  contradiction? (the primary-output classification in Algorithm 1, line 12).

Sub-expressions extracted from clause groups have small support (a handful of
variables), so exhaustive enumeration is both simple and fast.  Rather than
looping over ``2**n`` per-row assignment dictionaries, the whole table is
computed as a single arbitrary-precision *integer bitmask* — bit ``r`` holds
the expression's value on row ``r`` — with one Python big-int operation per
AST node (:func:`truth_table_bits`).  On the interned AST
(:mod:`repro.boolalg.expr`) results are additionally memoised per node, so
the transformation never enumerates the same sub-expression twice.  Every
query refuses supports wider than ``max_vars`` (default
:data:`MAX_ENUMERATION_VARS`) with a ``ValueError``; the transformation never
asks about wider ones.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.boolalg.expr import And, Const, Expr, Not, Or, Var, Xor

#: Above this support size exhaustive enumeration is refused by default.
MAX_ENUMERATION_VARS = 20

#: Tables of at most this many variables are memoised (wider tables are huge
#: integers; memoising them would pin hundreds of KB per entry).
_MEMO_MAX_VARS = 12


def _enumerable_support(
    *exprs: Expr, max_vars: int, over: Optional[Sequence[str]] = None
) -> List[str]:
    """``over``, else the sorted joint support of ``exprs``; a ``ValueError``
    when that is wider than ``max_vars``."""
    if over is not None:
        names = list(over)
    else:
        support = set()
        for expr in exprs:
            support |= expr.support()
        names = sorted(support)
    if len(names) > max_vars:
        raise ValueError(f"refusing to enumerate {len(names)} variables (> {max_vars})")
    return names


@lru_cache(maxsize=None)
def _var_mask(num_vars: int, position: int) -> int:
    """Bitmask of rows ``r`` in ``[0, 2**num_vars)`` with bit ``position`` set.

    The mask is the periodic pattern ``2**position`` zeros followed by
    ``2**position`` ones; bit ``r`` of the result equals ``(r >> position) & 1``.
    """
    block = 1 << position
    period = ((1 << block) - 1) << block  # one '0^block 1^block' period
    total_bits = 1 << num_vars
    # Replicate the period with a "repunit" multiplier: ones at every
    # multiple of the period length.
    multiplier = ((1 << total_bits) - 1) // ((1 << (2 * block)) - 1)
    return period * multiplier


def _bits_uncached(expr: Expr, names: Tuple[str, ...]) -> int:
    """Truth table of ``expr`` over ``names`` as an integer bitmask."""
    n = len(names)
    full = (1 << (1 << n)) - 1
    masks = {name: _var_mask(n, j) for j, name in enumerate(names)}
    memo: Dict[Expr, int] = {}

    def rec(e: Expr) -> int:
        cached = memo.get(e)
        if cached is not None:
            return cached
        if isinstance(e, Var):
            try:
                result = masks[e.name]
            except KeyError as exc:
                raise KeyError(f"assignment is missing variable {e.name!r}") from exc
        elif isinstance(e, Const):
            result = full if e.value else 0
        elif isinstance(e, Not):
            result = full ^ rec(e.operand)
        elif isinstance(e, And):
            result = full
            for op in e.operands:
                result &= rec(op)
        elif isinstance(e, Or):
            result = 0
            for op in e.operands:
                result |= rec(op)
        elif isinstance(e, Xor):
            result = 0
            for op in e.operands:
                result ^= rec(op)
        else:
            raise TypeError(f"unsupported expression node {type(e).__name__}")
        memo[e] = result
        return result

    return rec(expr)


@lru_cache(maxsize=32768)
def _bits_cached(expr: Expr, names: Tuple[str, ...]) -> int:
    return _bits_uncached(expr, names)


def truth_table_bits(expr: Expr, names: Sequence[str]) -> int:
    """Return the truth table of ``expr`` over ``names`` as an integer.

    Bit ``r`` of the result is the value of ``expr`` on the assignment whose
    bit ``j`` (LSB first) gives the value of ``names[j]`` — the same row
    order as :func:`truth_table`.  Narrow tables are memoised on the interned
    AST node.
    """
    key = tuple(names)
    if len(key) <= _MEMO_MAX_VARS:
        return _bits_cached(expr, key)
    return _bits_uncached(expr, key)


def truth_table(
    expr: Expr, over: Optional[Sequence[str]] = None, max_vars: int = MAX_ENUMERATION_VARS
) -> np.ndarray:
    """Return the truth table of ``expr`` as a boolean vector of length ``2**n``.

    Row ``i`` corresponds to the assignment whose bit ``j`` (LSB first, in the
    order of ``over`` or sorted support) gives the value of variable ``j``.
    """
    names = _enumerable_support(expr, max_vars=max_vars, over=over)
    n = len(names)
    bits = truth_table_bits(expr, names)
    num_rows = 2**n
    raw = bits.to_bytes((num_rows + 7) // 8, "little")
    table = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return table[:num_rows].astype(bool)


@lru_cache(maxsize=65536)
def _equivalent_cached(a: Expr, b: Expr, max_vars: int) -> bool:
    key = tuple(_enumerable_support(a, b, max_vars=max_vars))
    return truth_table_bits(a, key) == truth_table_bits(b, key)


def equivalent(a: Expr, b: Expr, max_vars: int = MAX_ENUMERATION_VARS) -> bool:
    """Return ``True`` iff ``a`` and ``b`` compute the same function.

    The comparison is over the union of both supports, so ``x & y`` and
    ``y & x`` are equivalent while ``x`` and ``x & (y | ~y)`` also are (the
    latter normalises away its vacuous variable at construction).  Results
    are memoised on the interned node pair.
    """
    return _equivalent_cached(a, b, max_vars)


@lru_cache(maxsize=65536)
def _is_complement_cached(a: Expr, b: Expr, max_vars: int) -> bool:
    key = tuple(_enumerable_support(a, b, max_vars=max_vars))
    full = (1 << (1 << len(key))) - 1
    return truth_table_bits(a, key) == full ^ truth_table_bits(b, key)


def is_complement(a: Expr, b: Expr, max_vars: int = MAX_ENUMERATION_VARS) -> bool:
    """Return ``True`` iff ``a == ~b`` as Boolean functions.

    This is the acceptance test of Algorithm 1: the expression derived for a
    candidate output variable must be the complement of the expression derived
    for its negation.  Results are memoised on the interned node pair — the
    transformation re-checks the same derived pair whenever a clause group is
    revisited, and the memo makes the repeat checks free.  The seed's per-row
    enumeration is kept as the test oracle in ``tests/oracles/transform.py``.
    """
    return _is_complement_cached(a, b, max_vars)


def is_tautology(expr: Expr, max_vars: int = MAX_ENUMERATION_VARS) -> bool:
    """Return ``True`` iff ``expr`` evaluates to 1 under every assignment."""
    names = _enumerable_support(expr, max_vars=max_vars)
    full = (1 << (1 << len(names))) - 1
    return truth_table_bits(expr, names) == full


def is_contradiction(expr: Expr, max_vars: int = MAX_ENUMERATION_VARS) -> bool:
    """Return ``True`` iff ``expr`` evaluates to 0 under every assignment."""
    names = _enumerable_support(expr, max_vars=max_vars)
    return truth_table_bits(expr, names) == 0


def satisfying_assignments(
    expr: Expr,
    over: Optional[Sequence[str]] = None,
    max_vars: int = MAX_ENUMERATION_VARS,
) -> List[Dict[str, bool]]:
    """Enumerate every satisfying assignment of ``expr`` over ``over``/its support."""
    names = _enumerable_support(expr, max_vars=max_vars, over=over)
    n = len(names)
    bits = truth_table_bits(expr, names)
    return [
        {names[j]: bool((row >> j) & 1) for j in range(n)}
        for row in range(2**n)
        if (bits >> row) & 1
    ]


def count_satisfying(
    expr: Expr,
    over: Optional[Sequence[str]] = None,
    max_vars: int = MAX_ENUMERATION_VARS,
) -> int:
    """Count the satisfying assignments (model count) of ``expr``."""
    names = _enumerable_support(expr, max_vars=max_vars, over=over)
    # bin().count over int.bit_count(): the package still supports Python 3.9.
    return bin(truth_table_bits(expr, names)).count("1")


def minterms(expr: Expr, over: Optional[Sequence[str]] = None) -> Tuple[List[int], List[str]]:
    """Return the list of minterm indices of ``expr`` and the variable order used."""
    names = _enumerable_support(expr, max_vars=MAX_ENUMERATION_VARS, over=over)
    bits = truth_table_bits(expr, names)
    indices: List[int] = []
    row = 0
    while bits:
        low = bits & -bits
        row = low.bit_length() - 1
        indices.append(row)
        bits ^= low
    return indices, names
