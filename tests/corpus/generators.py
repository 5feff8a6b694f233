"""Random CNF generators for the tests.

They provide workloads beyond the four benchmark families of Table II:
random k-SAT (for stress-testing the samplers away from circuit-structured
CNFs), planted-solution k-SAT (guaranteed satisfiable, used by the
property-based tests), and random Horn formulas.  Every generator is a pure
function of its seed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cnf.formula import CNF
from repro.utils.rng import RandomState, new_rng


def random_ksat(
    num_variables: int,
    num_clauses: int,
    k: int = 3,
    seed: Optional[int] = None,
    rng: Optional[RandomState] = None,
    name: str = "",
) -> CNF:
    """Generate a uniformly random k-SAT formula.

    Each clause draws ``k`` distinct variables and independent random phases.
    """
    if k > num_variables:
        raise ValueError(f"k={k} exceeds the number of variables {num_variables}")
    generator = rng if rng is not None else new_rng(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = generator.choice(num_variables, size=k, replace=False) + 1
        phases = generator.random(k) < 0.5
        clauses.append([int(v) if p else -int(v) for v, p in zip(variables, phases)])
    return CNF(clauses, num_variables=num_variables, name=name or f"random-{k}sat-{num_variables}")


def planted_ksat(
    num_variables: int,
    num_clauses: int,
    k: int = 3,
    seed: Optional[int] = None,
    rng: Optional[RandomState] = None,
    name: str = "",
) -> CNF:
    """Generate a random k-SAT formula guaranteed satisfiable by a planted assignment.

    A hidden assignment is drawn first; every generated clause is re-drawn
    until it is satisfied by the hidden assignment.  The planted solution is
    recorded in the formula comments (as signed literals) so that tests can
    recover it.
    """
    if k > num_variables:
        raise ValueError(f"k={k} exceeds the number of variables {num_variables}")
    generator = rng if rng is not None else new_rng(seed)
    planted = generator.random(num_variables) < 0.5
    clauses = []
    for _ in range(num_clauses):
        while True:
            variables = generator.choice(num_variables, size=k, replace=False) + 1
            phases = generator.random(k) < 0.5
            clause = [int(v) if p else -int(v) for v, p in zip(variables, phases)]
            if any(planted[abs(lit) - 1] == (lit > 0) for lit in clause):
                break
        clauses.append(clause)
    witness = " ".join(
        str(i + 1) if planted[i] else str(-(i + 1)) for i in range(num_variables)
    )
    return CNF(
        clauses,
        num_variables=num_variables,
        comments=[f"planted {witness}"],
        name=name or f"planted-{k}sat-{num_variables}",
    )


def planted_solution(formula: CNF) -> Optional[np.ndarray]:
    """Recover the planted assignment recorded by :func:`planted_ksat`, if any."""
    for comment in formula.comments:
        if comment.startswith("planted "):
            literals = [int(token) for token in comment.split()[1:]]
            vector = np.zeros(formula.num_variables, dtype=bool)
            for literal in literals:
                vector[abs(literal) - 1] = literal > 0
            return vector
    return None


def random_horn(
    num_variables: int,
    num_clauses: int,
    max_width: int = 4,
    seed: Optional[int] = None,
    rng: Optional[RandomState] = None,
    name: str = "",
) -> CNF:
    """Generate a random Horn formula (at most one positive literal per clause)."""
    generator = rng if rng is not None else new_rng(seed)
    clauses = []
    for _ in range(num_clauses):
        width = int(generator.integers(1, max_width + 1))
        width = min(width, num_variables)
        variables = generator.choice(num_variables, size=width, replace=False) + 1
        clause: List[int] = [-int(v) for v in variables]
        if generator.random() < 0.5:
            clause[0] = abs(clause[0])
        clauses.append(clause)
    return CNF(clauses, num_variables=num_variables, name=name or f"horn-{num_variables}")
