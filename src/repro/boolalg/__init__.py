"""Self-contained symbolic Boolean algebra.

This package plays the role SymPy's ``logic`` module plays in the paper: the
transformation algorithm (Algorithm 1) needs to

* build Boolean expressions for candidate output variables from groups of
  clauses,
* check that two expressions are complements of each other,
* simplify the accepted expression before it is adopted into the multi-level,
  multi-output function.

Everything here is implemented from scratch on top of a small immutable
expression AST (:mod:`repro.boolalg.expr`), with truth-table equivalence
checking (supports up to 20 variables), algebraic simplification rules and
Quine--McCluskey two-level minimization.
"""

from repro.boolalg.expr import (
    Expr,
    Var,
    Const,
    Not,
    And,
    Or,
    Xor,
    TRUE,
    FALSE,
    ite,
    nand_,
    nor_,
    xnor_,
)
from repro.boolalg.truth_table import (
    truth_table,
    equivalent,
    is_complement,
    is_tautology,
    is_contradiction,
    satisfying_assignments,
    count_satisfying,
)
from repro.boolalg.simplify import simplify
from repro.boolalg.quine_mccluskey import minimize_minterms, minimize_expr


def clear_caches() -> None:
    """Drop every memo the boolalg layer keeps on the interned AST.

    Covers the truth-table bitmasks, the equivalence/complement memos, the
    Quine--McCluskey memo and the ``simplify_exact`` memo.  The intern table
    itself is weak and needs no clearing.  Long-lived services that stream
    many distinct formulas call this (via
    :func:`repro.core.transform.clear_transform_caches`) to bound memory.
    """
    from repro.boolalg.quine_mccluskey import _minimize_expr_cached
    from repro.boolalg.simplify import _simplify_exact_cached
    from repro.boolalg.truth_table import (
        _bits_cached,
        _equivalent_cached,
        _is_complement_cached,
    )

    _bits_cached.cache_clear()
    _equivalent_cached.cache_clear()
    _is_complement_cached.cache_clear()
    _minimize_expr_cached.cache_clear()
    _simplify_exact_cached.cache_clear()


__all__ = [
    "Expr",
    "Var",
    "Const",
    "Not",
    "And",
    "Or",
    "Xor",
    "TRUE",
    "FALSE",
    "ite",
    "nand_",
    "nor_",
    "xnor_",
    "truth_table",
    "equivalent",
    "is_complement",
    "is_tautology",
    "is_contradiction",
    "satisfying_assignments",
    "count_satisfying",
    "simplify",
    "minimize_minterms",
    "minimize_expr",
    "clear_caches",
]
