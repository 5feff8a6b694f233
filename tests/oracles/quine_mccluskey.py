"""Reference oracle: the pairwise Quine--McCluskey tabulation.

Before :func:`repro.boolalg.quine_mccluskey.prime_implicants` looked up
merge partners by ``(value, care mask)``, the tabulation tried every pair of
implicants at every level, which made an 8-variable on-set cost hundreds of
thousands of merge attempts.  This module keeps that tabulation verbatim as
the reference the library's prime lists are tested against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.boolalg.quine_mccluskey import Implicant


def _implicant_from_minterm(minterm: int, num_vars: int) -> Implicant:
    return tuple((i, (minterm >> i) & 1) for i in range(num_vars))


def _try_combine(a: Implicant, b: Implicant) -> Optional[Implicant]:
    """Combine two implicants differing in exactly one specified position."""
    if len(a) != len(b):
        return None
    positions_a = {pos for pos, _ in a}
    positions_b = {pos for pos, _ in b}
    if positions_a != positions_b:
        return None
    diff = [
        pos
        for (pos, val_a), (_, val_b) in zip(a, b)
        if val_a != val_b
    ]
    if len(diff) != 1:
        return None
    removed = diff[0]
    return tuple(item for item in a if item[0] != removed)


def prime_implicants_reference(minterm_list: Sequence[int], num_vars: int) -> List[Implicant]:
    """All prime implicants of the on-set, by trying every pair at every level."""
    current: Set[Implicant] = {
        _implicant_from_minterm(m, num_vars) for m in set(minterm_list)
    }
    primes: Set[Implicant] = set()
    while current:
        combined: Set[Implicant] = set()
        used: Set[Implicant] = set()
        current_list = sorted(current)
        for i, a in enumerate(current_list):
            for b in current_list[i + 1:]:
                merged = _try_combine(a, b)
                if merged is not None:
                    combined.add(merged)
                    used.add(a)
                    used.add(b)
        primes |= current - used
        current = combined
    return sorted(primes)
