"""Boolean-expression extraction from clause groups.

This implements the ``FindBooleanExpression`` routine of Algorithm 1.  Given a
candidate output variable ``v`` and the group of clauses read so far, the
expression that must hold when ``v = 1`` is obtained from the clauses that
contain ``v`` in *negated* form: setting ``v = 1`` falsifies the ``~v``
literal, so the remainder of each such clause must be satisfied, and the
clauses that contain ``v`` positively are already satisfied and contribute
nothing (Section III-A of the paper walks through the ``x5`` example from the
``75-10-1-q`` instance).  Dually, the expression for ``~v`` comes from the
clauses containing ``v`` positively.

If the two extracted expressions are complements of each other, the group is
exactly equivalent to the definition ``v <-> f`` and the transformation can
adopt it.

A clause here is an ``int`` tuple of signed literals, a row of the
formula's CSR arrays (:func:`~repro.cnf.formula.csr_rows`): the
transformation passes the rows of its clause buffer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence

from repro.boolalg.expr import And, Expr, FALSE, Not, Or, TRUE, Var
from repro.boolalg.truth_table import _var_mask, is_complement

#: Default variable-name prefix used when mapping DIMACS indices to expression names.
VAR_PREFIX = "x"


@lru_cache(maxsize=None)
def variable_name(index: int, prefix: str = VAR_PREFIX) -> str:
    """Name of DIMACS variable ``index`` in the expression domain (``x<k>``)."""
    if index <= 0:
        raise ValueError(f"variable index must be positive, got {index}")
    return f"{prefix}{index}"


@lru_cache(maxsize=None)
def literal_to_expr(literal: int, prefix: str = VAR_PREFIX) -> Expr:
    """Convert a signed DIMACS literal into a variable or negated variable.

    Memoised: the transformation converts the same few thousand literals many
    times over, and the interned AST makes the cached node safe to share.
    """
    variable = Var(variable_name(abs(literal), prefix))
    return variable if literal > 0 else Not(variable)


def clause_to_expr(clause: Sequence[int], prefix: str = VAR_PREFIX) -> Expr:
    """Convert a clause into the disjunction of its literals (an empty clause is FALSE)."""
    if not clause:
        return FALSE
    return Or(*(literal_to_expr(literal, prefix) for literal in clause))


@lru_cache(maxsize=131072)
def _clause_remainder(literals: tuple, complement: int, prefix: str) -> Expr:
    """Disjunction of ``literals`` minus ``complement`` (FALSE when empty).

    Memoised per (clause literals, falsified literal) pair: the streaming
    transformation re-derives the same clause remainders every time a
    candidate's sub-group grows by one clause.
    """
    remaining = [lit for lit in literals if lit != complement]
    if not remaining:
        return FALSE
    return Or(*(literal_to_expr(lit, prefix) for lit in remaining))


def expression_for_literal(
    literal: int, clauses: Sequence[Sequence[int]], prefix: str = VAR_PREFIX
) -> Expr:
    """Expression that must hold when ``literal`` is true, from ``clauses``.

    Only the clauses containing the *complement* of ``literal`` contribute:
    in those clauses the complemented literal is falsified, so the disjunction
    of the remaining literals must hold.  Clauses that do not mention the
    variable at all are ignored (the caller is responsible for ensuring the
    group only contains clauses over the candidate variable).
    """
    complement = -literal
    conjuncts = [
        _clause_remainder(tuple(clause), complement, prefix)
        for clause in clauses
        if complement in clause
    ]
    if not conjuncts:
        return TRUE
    return And(*conjuncts)


def _raw_complement_check(
    variable: int, clauses: Sequence[Sequence[int]], num_vars: int, positions: Dict[int, int]
) -> bool:
    """Bitmask complement check straight off the clause literals.

    Computes the truth tables of the expressions ``expression_for_literal``
    would derive for ``variable`` and ``-variable`` — one integer bitmask per
    side, one big-int op per literal — without building the expressions.
    The expression constructors' normalisations (duplicate/complement
    folding) are semantics-preserving, and complement-ness is invariant under
    vacuous support variables, so the answer is exactly the one
    :func:`repro.boolalg.truth_table.is_complement` would give on the built
    pair.
    """
    full = (1 << (1 << num_vars)) - 1
    positive_bits = full
    negative_bits = full

    def remainder_bits(literals, skip) -> int:
        disjunction = 0
        for literal in literals:
            if literal == skip:
                continue
            mask = _var_mask(num_vars, positions[abs(literal)])
            disjunction |= mask if literal > 0 else full ^ mask
        return disjunction

    for literals in clauses:
        # A clause containing both phases (a tautology w.r.t. ``variable``)
        # contributes a remainder to *both* sides, exactly like
        # ``expression_for_literal`` does.
        if -variable in literals:
            positive_bits &= remainder_bits(literals, -variable)
        if variable in literals:
            negative_bits &= remainder_bits(literals, variable)
    return positive_bits == full ^ negative_bits


def find_boolean_expression(
    variable: int,
    clauses: Sequence[Sequence[int]],
    prefix: str = VAR_PREFIX,
    max_vars: int = 16,
) -> Optional[Expr]:
    """Attempt to extract the defining expression of ``variable`` from a clause group.

    Returns the (unsimplified) expression ``f`` with ``variable <-> f`` exactly
    equivalent to the conjunction of ``clauses`` when the extraction succeeds,
    and ``None`` when:

    * some clause in the group does not mention ``variable`` (the definition
      would silently drop that constraint),
    * the combined support is wider than ``max_vars`` (complement checking is
      refused for cost reasons; the caller falls back to other candidates or
      to the under-specified path), or
    * the expressions extracted for ``variable`` and its negation are not
      complements (the group does not define ``variable``).
    """
    if not clauses:
        return None
    for clause in clauses:
        if variable not in clause and -variable not in clause:
            return None
    return extract_definition(variable, clauses, prefix, max_vars)


def extract_definition(
    variable: int,
    clauses: Sequence[Sequence[int]],
    prefix: str = VAR_PREFIX,
    max_vars: int = 16,
) -> Optional[Expr]:
    """:func:`find_boolean_expression` without the mention check.

    Every clause must mention ``variable``; the transformation's occurrence
    index builds sub-groups that do by construction.  The accept/reject
    decision runs on big-int clause bitmasks whenever the raw support fits
    the width gate, and the expression is only built for the rare acceptance.
    """
    raw_support = set()
    keep_variable = False
    for literals in clauses:
        for literal in literals:
            raw_support.add(abs(literal))
        if variable in literals and -variable in literals:
            # A clause tautological w.r.t. the candidate keeps the
            # candidate itself in the derived expressions' support.
            keep_variable = True
    if not keep_variable:
        raw_support.discard(variable)
    if len(raw_support) <= max_vars:
        # The width gate passes whatever normalisation drops (the
        # normalised support is a subset of the raw one), so the
        # accept/reject decision can be taken on raw clause bitmasks.
        positions = {v: j for j, v in enumerate(sorted(raw_support))}
        if not _raw_complement_check(variable, clauses, len(raw_support), positions):
            return None
        return expression_for_literal(variable, clauses, prefix)
    # Wide raw support: normalisation may still shrink it under the gate,
    # so build both sides and gate on the normalised support.
    positive_expr = expression_for_literal(variable, clauses, prefix)
    negative_expr = expression_for_literal(-variable, clauses, prefix)
    support = positive_expr.support() | negative_expr.support()
    if len(support) > max_vars:
        return None
    if not is_complement(positive_expr, negative_expr):
        return None
    return positive_expr


def group_to_constraint_expr(
    clauses: Iterable[Sequence[int]], prefix: str = VAR_PREFIX
) -> Expr:
    """Conjunction of a clause group, used by the under-specified fallback path.

    The resulting expression is attached to an auxiliary output constrained to
    1, preserving the group's constraints verbatim.
    """
    return And(*(clause_to_expr(clause, prefix) for clause in clauses))


def index_of_variable(name: str, prefix: str = VAR_PREFIX) -> int:
    """Inverse of :func:`variable_name` (``"x42"`` -> 42)."""
    if not name.startswith(prefix):
        raise ValueError(f"variable name {name!r} does not start with prefix {prefix!r}")
    return int(name[len(prefix):])
