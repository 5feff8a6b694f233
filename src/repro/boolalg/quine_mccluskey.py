"""Quine--McCluskey two-level minimization.

The transformation algorithm adopts each extracted sub-expression only after
simplification ("The obtained Boolean expression is simplified before adoption
in the final circuit structure").  Sub-expressions derived from clause groups
have small support, so exact two-level minimization is affordable and gives a
compact sum-of-products form that the circuit builder then turns into gates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.boolalg.expr import And, Expr, FALSE, Not, Or, TRUE, Var
from repro.boolalg.truth_table import minterms as expr_minterms

#: An implicant is a mapping bit-position -> value where missing positions are
#: "don't care" (dashes in the classic tabulation method).
Implicant = Tuple[Tuple[int, int], ...]


def _covers(implicant: Implicant, minterm: int) -> bool:
    return all(((minterm >> pos) & 1) == val for pos, val in implicant)


def prime_implicants(minterm_list: Sequence[int], num_vars: int) -> List[Implicant]:
    """Compute all prime implicants of the given on-set.

    The tabulation keeps each implicant as ``(value, care mask)`` integers:
    two implicants merge exactly when they share a mask and their values
    differ in one cared-for bit, so each implicant looks up its partners
    (one per set bit it could clear) instead of trying every pair.
    """
    full = (1 << num_vars) - 1
    current: Set[Tuple[int, int]] = {(minterm & full, full) for minterm in set(minterm_list)}
    primes: Set[Tuple[int, int]] = set()
    while current:
        combined: Set[Tuple[int, int]] = set()
        used: Set[Tuple[int, int]] = set()
        for value, mask in current:
            bits = mask & ~value  # cared-for bits this implicant has at 0
            while bits:
                bit = bits & -bits
                bits ^= bit
                partner = (value | bit, mask)
                if partner in current:
                    combined.add((value, mask & ~bit))
                    used.add((value, mask))
                    used.add(partner)
        primes |= current - used
        current = combined
    return sorted(
        tuple((i, (value >> i) & 1) for i in range(num_vars) if (mask >> i) & 1)
        for value, mask in primes
    )


def _essential_cover(
    primes: List[Implicant], minterm_list: Sequence[int]
) -> List[Implicant]:
    """Greedy essential-prime-implicant cover (exact for the sizes we use)."""
    remaining: Set[int] = set(minterm_list)
    coverage: Dict[Implicant, FrozenSet[int]] = {
        p: frozenset(m for m in remaining if _covers(p, m)) for p in primes
    }
    chosen: List[Implicant] = []

    # Pick essential primes first: minterms covered by exactly one prime.
    changed = True
    while changed and remaining:
        changed = False
        for minterm in sorted(remaining):
            covering = [p for p in primes if minterm in coverage[p]]
            if len(covering) == 1:
                prime = covering[0]
                if prime not in chosen:
                    chosen.append(prime)
                remaining -= coverage[prime]
                changed = True
                break

    # Cover what is left greedily by maximum coverage.
    while remaining:
        best = max(primes, key=lambda p: (len(coverage[p] & remaining), -len(p)))
        if not coverage[best] & remaining:
            raise RuntimeError("prime implicants do not cover the on-set")
        chosen.append(best)
        remaining -= coverage[best]
    return chosen


def minimize_minterms(
    minterm_list: Sequence[int], names: Sequence[str]
) -> Expr:
    """Minimize an on-set given as minterm indices over ``names`` (LSB-first order)."""
    num_vars = len(names)
    unique = sorted(set(minterm_list))
    if not unique:
        return FALSE
    if len(unique) == 2**num_vars:
        return TRUE
    primes = prime_implicants(unique, num_vars)
    cover = _essential_cover(primes, unique)
    products = []
    for implicant in cover:
        literals: List[Expr] = []
        for pos, val in implicant:
            var = Var(names[pos])
            literals.append(var if val else Not(var))
        products.append(And(*literals) if literals else TRUE)
    return Or(*products)


@lru_cache(maxsize=65536)
def _minimize_expr_cached(expr: Expr, max_vars: int) -> Expr:
    names = sorted(expr.support())
    if len(names) > max_vars:
        raise ValueError(
            f"refusing Quine-McCluskey on {len(names)} variables (> {max_vars})"
        )
    on_set, order = expr_minterms(expr, over=names)
    return minimize_minterms(on_set, order)


def minimize_expr(expr: Expr, max_vars: int = 12) -> Expr:
    """Exact two-level minimization of ``expr`` (refuses supports wider than ``max_vars``).

    Results are memoised on the interned AST node, so repeated minimization
    of the same sub-expression (the transformation revisits clause groups) is
    a dictionary lookup.
    """
    if not expr.support():
        return expr
    return _minimize_expr_cached(expr, max_vars)
