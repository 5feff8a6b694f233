"""UniGen-style sampler: XOR-hash partitioning for near-uniform sampling.

UniGen3 (Soos et al., CAV 2020) achieves approximate-uniformity guarantees by
intersecting the formula with random XOR constraints that partition the
solution space into roughly equal cells, enumerating one random cell and
returning a random member.  This baseline reproduces the mechanism on top of
the from-scratch CDCL solver:

1. draw ``m`` sparse random XOR constraints over the variables,
2. Tseitin-encode them into CNF and conjoin with the formula,
3. enumerate the cell's solutions (up to a pivot) with blocking clauses,
4. emit a random subset of the cell, and adapt ``m`` if the cell was empty
   (too many hashes) or overflowed the pivot (too few).

The statistical guarantees of the original are *not* claimed — this is a
behavioural stand-in with the same algorithmic skeleton and the same
CNF-level costs, which is what the throughput comparison needs.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.base import BaselineSampler, SamplerOutput
from repro.baselines.cdcl import CDCLSolver
from repro.cnf.delta import ClauseDelta
from repro.cnf.formula import CNF
from repro.core.solutions import SolutionSet
from repro.utils.rng import RandomState, new_rng


class UniGenStyleSampler(BaselineSampler):
    """Hash-based near-uniform sampler in the style of UniGen3."""

    name = "unigen-style"

    def __init__(
        self,
        seed: Optional[int] = 0,
        pivot: int = 32,
        xor_width: int = 3,
        initial_hashes: int = 2,
        max_hashes: int = 24,
        max_conflicts_per_call: Optional[int] = 50000,
    ) -> None:
        self.seed = seed
        self.pivot = pivot
        self.xor_width = xor_width
        self.initial_hashes = initial_hashes
        self.max_hashes = max_hashes
        self.max_conflicts_per_call = max_conflicts_per_call

    # -- hashing -------------------------------------------------------------------------
    def _random_xor(
        self, rng: RandomState, num_variables: int
    ) -> Tuple[List[int], bool]:
        """Draw a sparse XOR constraint: variables and the required parity."""
        width = min(self.xor_width, num_variables)
        variables = rng.choice(num_variables, size=width, replace=False) + 1
        parity = bool(rng.random() < 0.5)
        return [int(v) for v in variables], parity

    @staticmethod
    def _xor_clauses(
        variables: List[int], parity: bool, next_aux: int
    ) -> Tuple[List[List[int]], int]:
        """The clauses of ``XOR(variables) == parity`` over a chain of auxiliary variables."""
        clauses = []
        current = variables[0]
        for variable in variables[1:]:
            aux = next_aux
            next_aux += 1
            # aux == current XOR variable
            clauses.append([-aux, current, variable])
            clauses.append([-aux, -current, -variable])
            clauses.append([aux, current, -variable])
            clauses.append([aux, -current, variable])
            current = aux
        clauses.append([current] if parity else [-current])
        return clauses, next_aux

    def _hashed_formula(
        self, formula: CNF, rng: RandomState, num_hashes: int
    ) -> CNF:
        clauses: List[List[int]] = []
        next_aux = formula.num_variables + 1
        for _ in range(num_hashes):
            variables, parity = self._random_xor(rng, formula.num_variables)
            xor_clauses, next_aux = self._xor_clauses(variables, parity, next_aux)
            clauses.extend(xor_clauses)
        return formula.with_delta(ClauseDelta(add=clauses))

    # -- cell enumeration ------------------------------------------------------------------
    def _enumerate_cell(
        self, hashed: CNF, original_variables: int, rng: RandomState
    ) -> List[np.ndarray]:
        """Enumerate up to ``pivot + 1`` solutions of the hashed formula."""
        solver = CDCLSolver(
            hashed,
            seed=int(rng.integers(2**31 - 1)),
            random_polarity=True,
            max_conflicts=self.max_conflicts_per_call,
        )
        cell: List[np.ndarray] = []
        blocking = hashed
        while len(cell) <= self.pivot:
            result = solver.solve()
            if result.satisfiable is not True or result.assignment is None:
                break
            assignment = result.assignment[:original_variables]
            cell.append(assignment.copy())
            # Block this solution (projected on original variables) and rebuild.
            blocking_clause = [
                -(index + 1) if value else (index + 1)
                for index, value in enumerate(assignment)
            ]
            blocking = blocking.with_delta(ClauseDelta(add=[blocking_clause]))
            solver = CDCLSolver(
                blocking,
                seed=int(rng.integers(2**31 - 1)),
                random_polarity=True,
                max_conflicts=self.max_conflicts_per_call,
            )
        return cell

    # -- main loop ----------------------------------------------------------------------------
    def sample(
        self,
        formula: CNF,
        num_solutions: int = 1000,
        timeout_seconds: Optional[float] = None,
    ) -> SamplerOutput:
        start = time.perf_counter()
        rng = new_rng(self.seed)
        solutions = SolutionSet(formula.num_variables)
        num_hashes = self.initial_hashes
        generated = 0
        timed_out = False
        rounds = 0
        max_rounds = max(num_solutions, 16) * 4

        while len(solutions) < num_solutions and rounds < max_rounds:
            if timeout_seconds is not None and time.perf_counter() - start > timeout_seconds:
                timed_out = True
                break
            rounds += 1
            hashed = self._hashed_formula(formula, rng, num_hashes)
            cell = self._enumerate_cell(hashed, formula.num_variables, rng)
            if not cell:
                # Over-constrained: remove a hash (unless none are left, in
                # which case the formula itself may be unsatisfiable).
                if num_hashes == 0:
                    break
                num_hashes = max(num_hashes - 1, 0)
                continue
            if len(cell) > self.pivot:
                num_hashes = min(num_hashes + 1, self.max_hashes)
            generated += len(cell)
            order = rng.permutation(len(cell))
            for position in order:
                solutions.add(cell[int(position)])
                if len(solutions) >= num_solutions:
                    break
        elapsed = time.perf_counter() - start
        return SamplerOutput(
            sampler_name=self.name,
            instance_name=formula.name,
            solutions=solutions,
            num_requested=num_solutions,
            elapsed_seconds=elapsed,
            num_generated=generated,
            timed_out=timed_out,
            extra={"final_hash_count": num_hashes, "rounds": rounds},
        )
