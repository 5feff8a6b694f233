"""Boolean expression simplification.

Two complementary strategies are provided:

* :func:`simplify_algebraic` — cheap, purely structural rewriting (absorption,
  factoring of shared literals, double-negation removal, De Morgan push-down)
  that never enumerates assignments and therefore scales to any support size;
* :func:`simplify_exact` — exact two-level Quine--McCluskey minimization for
  narrow supports, optionally followed by a simple XOR-detection pass so that
  parity structure extracted from CNF (Eq. 4 signatures) stays compact.

:func:`simplify` picks the exact route when the support is small enough and
falls back to the algebraic route otherwise, mirroring the paper's use of
SymPy's ``simplify_logic`` on the small sub-expressions produced per clause
group.

Most expressions the transformation adopts come from the gate-signature fast
path and are already *flat literal gates* — an AND/OR/XOR (possibly under one
NOT) whose operands are plain literals over distinct variables.  Such
expressions are provably fixed points of :func:`simplify` (see
:func:`is_flat_literal_gate`), so :func:`simplify` short-circuits them.  The
seed's full route, without the short circuit or the memos, is kept as the
test oracle in ``tests/oracles/transform.py``; the equivalence suite
validates the claim against it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from repro.boolalg.expr import And, Const, Expr, Not, Or, Var, Xor
from repro.boolalg.quine_mccluskey import minimize_expr
from repro.boolalg.truth_table import equivalent

#: Supports at or below this size use exact minimization.
EXACT_SIMPLIFY_MAX_VARS = 10


def _is_literal(expr: Expr) -> bool:
    return isinstance(expr, Var) or (
        isinstance(expr, Not) and isinstance(expr.operand, Var)
    )


def _is_flat_gate(expr: Expr) -> bool:
    if isinstance(expr, (And, Or)):
        return all(_is_literal(op) for op in expr.operands)
    if isinstance(expr, Xor):
        # Xor folds NOT operands into its parity flag at construction, so a
        # flat parity's operands are bare variables.
        return all(isinstance(op, Var) for op in expr.operands)
    return False


def is_flat_literal_gate(expr: Expr) -> bool:
    """Whether ``expr`` is a fixed point of :func:`simplify` by construction.

    Covers constants, literals, flat AND/OR/XOR gates over literals of
    distinct variables, flat XNOR, and NOT-wrapped flat AND/OR whose inner
    negation count cannot lose to the De Morgan dual.  The expression
    constructors already removed duplicate and complementary literals, so a
    flat AND (OR) is a single product (sum) — its own minimal two-level
    cover — and a flat XOR's parity form strictly beats its sum-of-products
    on the 2-input gate metric.  For ``Not(And(...))``/``Not(Or(...))`` the
    only competing cover Quine--McCluskey can produce is the De Morgan dual
    (a single sum/product of complemented literals): with ``n`` operands of
    which ``k`` are negated, the original costs ``n + k`` gates and the dual
    ``2n - 1 - k``, so the original wins exactly when ``2k <= n - 1`` (ties
    also land on the original: ``simplify_exact``'s ``min`` keeps the first
    of cost-equal candidates, and on a gate tie the node counts tie too).
    The transformation equivalence suite cross-checks all of this against
    the full route of the reference oracle (``tests/oracles/transform.py``).
    """
    if isinstance(expr, (Var, Const)):
        return True
    if isinstance(expr, Not):
        inner = expr.operand
        if isinstance(inner, Var):
            return True
        if isinstance(inner, Xor):
            return _is_flat_gate(inner)
        if isinstance(inner, (And, Or)) and _is_flat_gate(inner):
            negated = sum(1 for op in inner.operands if isinstance(op, Not))
            return 2 * negated <= len(inner.operands) - 1
        return False
    return _is_flat_gate(expr)


def simplify(expr: Expr, exact_max_vars: int = EXACT_SIMPLIFY_MAX_VARS) -> Expr:
    """Simplify ``expr``, preferring exact minimization on narrow supports."""
    if is_flat_literal_gate(expr):
        return expr
    support_size = len(expr.support())
    if support_size == 0:
        return expr
    if support_size <= exact_max_vars:
        return simplify_exact(expr)
    return simplify_algebraic(expr)


@lru_cache(maxsize=65536)
def _simplify_exact_cached(expr: Expr) -> Expr:
    minimized = minimize_expr(expr)
    with_xor = _detect_xor(minimized)
    best = min(
        (expr, minimized, with_xor), key=lambda e: (e.two_input_gate_count(), e.node_count())
    )
    return best


def simplify_exact(expr: Expr) -> Expr:
    """Exact minimization with XOR re-detection; guaranteed equivalent result.

    Memoised on the interned AST node (the routine is a pure function of the
    expression's structure).
    """
    return _simplify_exact_cached(expr)


def simplify_algebraic(expr: Expr) -> Expr:
    """Structural simplification: fixed-point application of local rewrite rules."""
    previous = None
    current = expr
    # Constructors already fold constants/duplicates; iterate absorption rules
    # until no further change.
    for _ in range(8):
        if current == previous:
            break
        previous = current
        current = _absorb(current)
    return current


def _absorb(expr: Expr) -> Expr:
    """Apply absorption ``x | (x & y) -> x`` and ``x & (x | y) -> x`` recursively."""
    if isinstance(expr, (Var, Const)):
        return expr
    if isinstance(expr, Not):
        return Not(_absorb(expr.operand))
    if isinstance(expr, Or):
        operands = [_absorb(op) for op in expr.operands]
        kept: List[Expr] = []
        for op in operands:
            absorbed = False
            for other in operands:
                if other is op:
                    continue
                if isinstance(op, And) and _contains_operand(op, other):
                    absorbed = True
                    break
            if not absorbed:
                kept.append(op)
        return Or(*kept)
    if isinstance(expr, And):
        operands = [_absorb(op) for op in expr.operands]
        kept = []
        for op in operands:
            absorbed = False
            for other in operands:
                if other is op:
                    continue
                if isinstance(op, Or) and _contains_operand(op, other):
                    absorbed = True
                    break
            if not absorbed:
                kept.append(op)
        return And(*kept)
    if isinstance(expr, Xor):
        return Xor(*(_absorb(op) for op in expr.operands))
    return expr


def _contains_operand(composite: Expr, candidate: Expr) -> bool:
    """Whether ``candidate`` is one of ``composite``'s direct operands."""
    return any(candidate == op for op in composite.children())


def _detect_xor(expr: Expr) -> Expr:
    """Rewrite 2-variable sum-of-products into XOR/XNOR when equivalent.

    Quine--McCluskey returns ``(a & ~b) | (~a & b)`` for parity functions; the
    probabilistic model has a dedicated (and cheaper) XOR op, so re-detecting
    the pattern reduces the gate count the sampler has to evaluate.
    """
    names = sorted(expr.support())
    if len(names) != 2:
        return expr
    a, b = Var(names[0]), Var(names[1])
    xor_expr = Xor(a, b)
    if equivalent(expr, xor_expr):
        return xor_expr
    xnor_expr = Not(Xor(a, b))
    if equivalent(expr, xnor_expr):
        return xnor_expr
    return expr
