"""Reference oracle: the seed's CNF-to-circuit transform and its routines.

Before the indexed stream loop and the bitmask/memo kernels, Algorithm 1
rescanned the whole clause buffer after every appended clause and answered
each semantic query by evaluating the expression on one assignment
dictionary per truth-table row, with nothing memoised.  The library now
ships only the indexed, memoised transform (:mod:`repro.core.transform`);
this module keeps the originals, verbatim, as the oracle it is pinned to
field for field:

* :func:`transform_reference` — the rescan-everything stream loop with its
  own accept/flush bookkeeping and free variables as every variable it
  neither took as a primary input nor defined;
* :func:`retransform_reference` — a full reference rebuild of a
  delta-mutated formula;
* :func:`keep_mask_reference` — the stream's per-clause ``frozenset``
  tautology and duplicate filter;
* :func:`equivalent`, :func:`is_complement`, :func:`minimize_expr`,
  :func:`simplify`, :func:`expression_for_literal` and
  :func:`find_boolean_expression` — the per-row enumeration, uncached
  Quine--McCluskey, full simplify route (no flat-gate short circuit) and
  rebuilt clause remainders the loop calls.

The oracle shares with the library only what has a single implementation:
the expression AST, the gate-signature matcher, the Quine--McCluskey
tabulation (:func:`~repro.boolalg.quine_mccluskey.minimize_minterms`), the
algebraic rewriter, the BDD fallback for wide supports, and the post-stream
tail (:func:`~repro.core.transform.finish_transform`: circuit lowering,
optimization, stats) and the recipe's two bounds,
:data:`~repro.core.transform.MAX_GROUP_SIZE` and
:data:`~repro.core.transform.MAX_CANDIDATE_VARS`.  It is uncached like the
seed, so a transform timed against it measures the indexed stream and the
memos alone.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.boolalg.expr import And, Const, Expr, FALSE, Not, Or, TRUE, Var, Xor
from repro.boolalg.quine_mccluskey import minimize_minterms
from repro.boolalg.simplify import EXACT_SIMPLIFY_MAX_VARS, simplify_algebraic
from repro.boolalg.truth_table import MAX_ENUMERATION_VARS
from repro.cnf.formula import CNF, csr_rows
from repro.core.extraction import (
    VAR_PREFIX,
    group_to_constraint_expr,
    literal_to_expr,
    variable_name,
)
from repro.core.signatures import match_gate_signature
from repro.core.transform import (
    MAX_CANDIDATE_VARS,
    MAX_GROUP_SIZE,
    TransformResult,
    TransformStats,
    _expr_from_gate_match,
    finish_transform,
)
from tests.oracles.bdd import BDD
from tests.oracles.delta import Row, apply_reference


# -- truth-table queries by per-row enumeration ------------------------------------------

def assignments_iter(names: Sequence[str]) -> Iterator[Dict[str, bool]]:
    """Iterate over all assignments to ``names`` in truth-table row order."""
    n = len(names)
    for row in range(2**n):
        yield {names[j]: bool((row >> j) & 1) for j in range(n)}


def _ordered_support(*exprs: Expr) -> List[str]:
    names = set()
    for expr in exprs:
        names |= expr.support()
    return sorted(names)


def equivalent(a: Expr, b: Expr, max_vars: int = MAX_ENUMERATION_VARS) -> bool:
    """Whether ``a`` and ``b`` agree on every row of their joint support."""
    names = _ordered_support(a, b)
    if len(names) > max_vars:
        manager = BDD(names)
        return manager.from_expr(a) == manager.from_expr(b)
    for assignment in assignments_iter(names):
        if a.evaluate(assignment) != b.evaluate(assignment):
            return False
    return True


def is_complement(a: Expr, b: Expr, max_vars: int = MAX_ENUMERATION_VARS) -> bool:
    """Whether ``a`` and ``b`` differ on every row of their joint support."""
    names = _ordered_support(a, b)
    if len(names) > max_vars:
        manager = BDD(names)
        return manager.from_expr(a) == manager.negate(manager.from_expr(b))
    for assignment in assignments_iter(names):
        if a.evaluate(assignment) == b.evaluate(assignment):
            return False
    return True


# -- uncached minimization and simplification --------------------------------------------

def minimize_expr(expr: Expr, max_vars: int = 12) -> Expr:
    """Quine--McCluskey on the on-set enumerated row by row, no memo."""
    if not expr.support():
        return expr
    names = sorted(expr.support())
    if len(names) > max_vars:
        raise ValueError(
            f"refusing Quine-McCluskey on {len(names)} variables (> {max_vars})"
        )
    on_set = [
        row
        for row, assignment in enumerate(assignments_iter(names))
        if expr.evaluate(assignment)
    ]
    return minimize_minterms(on_set, names)


def _detect_xor(expr: Expr) -> Expr:
    """Rewrite a 2-variable sum-of-products into XOR/XNOR when equivalent."""
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


def _simplify_exact(expr: Expr) -> Expr:
    minimized = minimize_expr(expr)
    with_xor = _detect_xor(minimized)
    return min(
        (expr, minimized, with_xor), key=lambda e: (e.two_input_gate_count(), e.node_count())
    )


def simplify(expr: Expr, exact_max_vars: int = EXACT_SIMPLIFY_MAX_VARS) -> Expr:
    """The full simplify route: exact on narrow supports, else algebraic."""
    support_size = len(expr.support())
    if support_size == 0:
        return expr
    if support_size <= exact_max_vars:
        return _simplify_exact(expr)
    return simplify_algebraic(expr)


# -- extraction with rebuilt clause remainders -------------------------------------------

def expression_for_literal(
    literal: int, clauses: Sequence[Row], prefix: str = VAR_PREFIX
) -> Expr:
    """Conjunction of the remainders of the clauses containing ``-literal``."""
    complement = -literal
    conjuncts = []
    for clause in clauses:
        if complement in clause:
            remaining = [lit for lit in clause if lit != complement]
            if not remaining:
                conjuncts.append(FALSE)
            else:
                conjuncts.append(Or(*(literal_to_expr(lit, prefix) for lit in remaining)))
    if not conjuncts:
        return TRUE
    return And(*conjuncts)


def find_boolean_expression(
    variable: int,
    clauses: Sequence[Row],
    prefix: str = VAR_PREFIX,
    max_vars: int = 16,
) -> Optional[Expr]:
    """Build both sides, gate on their support, accept complements."""
    if not clauses:
        return None
    for clause in clauses:
        if variable not in clause and -variable not in clause:
            return None
    positive_expr = expression_for_literal(variable, clauses, prefix)
    negative_expr = expression_for_literal(-variable, clauses, prefix)
    support = positive_expr.support() | negative_expr.support()
    if len(support) > max_vars:
        return None
    if not is_complement(positive_expr, negative_expr):
        return None
    return positive_expr


# -- the per-clause duplicate filter -----------------------------------------------------

def keep_mask_reference(clauses: Sequence[Sequence[int]]) -> List[bool]:
    """Which clauses the indexed stream reads, one ``frozenset`` per clause.

    The filter :func:`repro.core.transform.clause_keep_mask` replaced: a
    tautology is skipped, and so is a clause whose literal set an earlier
    kept clause had.
    """
    seen_clause_keys: Set[frozenset] = set()
    keep = []
    for clause in clauses:
        literal_set = frozenset(clause)
        if any(-literal in literal_set for literal in literal_set):
            keep.append(False)  # tautology
            continue
        if literal_set in seen_clause_keys:
            keep.append(False)  # duplicate
            continue
        seen_clause_keys.add(literal_set)
        keep.append(True)
    return keep


# -- the rescan-everything transform -----------------------------------------------------

class _ReferenceState:
    """The records a stream builds, in the order the seed discovered them."""

    def __init__(self, num_names: int, stats: TransformStats) -> None:
        self.stats = stats
        self.names: List[str] = [""] + [
            variable_name(index) for index in range(1, num_names + 1)
        ]
        self.definitions: List[Tuple[str, Expr]] = []
        self.defined: Set[str] = set()
        self.defined_vars: Set[int] = set()
        self.primary_inputs: List[str] = []
        self.primary_input_set: Set[str] = set()
        self.input_vars: Set[int] = set()
        self.primary_outputs: Dict[str, bool] = {}
        self.constraints: List[Tuple[str, Expr]] = []

    def name_of(self, variable: int) -> str:
        if variable < len(self.names):
            return self.names[variable]
        return variable_name(variable)

    def mark_input(self, name: str) -> None:
        if name not in self.primary_input_set and name not in self.defined:
            self.primary_input_set.add(name)
            self.primary_inputs.append(name)
            self.input_vars.add(int(name[len(VAR_PREFIX):]))

    def mark_input_var(self, variable: int) -> None:
        if variable in self.input_vars or variable in self.defined_vars:
            return
        name = self.name_of(variable)
        self.primary_input_set.add(name)
        self.primary_inputs.append(name)
        self.input_vars.add(variable)

    def accept_definition(self, variable: int, expr: Expr) -> None:
        name = self.name_of(variable)
        expr = simplify(expr)
        for support_name in sorted(expr.support()):
            self.mark_input(support_name)
        self.definitions.append((name, expr))
        self.defined.add(name)
        self.defined_vars.add(variable)
        if isinstance(expr, Const):
            self.primary_outputs[name] = expr.value
            self.stats.constant_definitions += 1

    def flush_group(self, buffer: Sequence[Row]) -> None:
        if not buffer:
            return
        expr = group_to_constraint_expr(buffer)
        if len(expr.support()) <= MAX_CANDIDATE_VARS:
            expr = simplify(expr)
        for support_name in sorted(expr.support()):
            self.mark_input(support_name)
        # Variables simplified away still need a value during completion.
        for clause in buffer:
            for literal in clause:
                self.mark_input_var(abs(literal))
        self.constraints.append((f"__constraint_{len(self.constraints)}", expr))
        self.stats.fallback_groups += 1


def _try_definition(
    state: _ReferenceState,
    variable: int,
    subgroup: Sequence[Row],
) -> Optional[Expr]:
    match = match_gate_signature(variable, subgroup)
    if match is not None and not any(
        abs(literal) == variable for literal in match.fanin_literals
    ):
        state.stats.signature_matches += 1
        return _expr_from_gate_match(match)
    expr = find_boolean_expression(variable, subgroup, max_vars=MAX_CANDIDATE_VARS)
    if expr is not None:
        state.stats.generic_matches += 1
    return expr


def _stream_reference(clauses: Sequence[Row], state: _ReferenceState) -> None:
    """Append each clause, rescan the buffer for a definition, flush."""
    buffer: List[Row] = []

    def try_accept() -> bool:
        candidate_order: List[int] = []
        seen: Set[int] = set()
        for clause in buffer:
            for literal in clause:
                variable = abs(literal)
                if variable not in seen:
                    seen.add(variable)
                    candidate_order.append(variable)
        for variable in candidate_order:
            if variable in state.defined_vars or variable in state.input_vars:
                continue
            subgroup = [
                clause
                for clause in buffer
                if variable in clause or -variable in clause
            ]
            expr = _try_definition(state, variable, subgroup)
            if expr is not None:
                state.accept_definition(variable, expr)
                name = state.name_of(variable)
                for clause in subgroup:
                    for literal in clause:
                        other = state.name_of(abs(literal))
                        if other != name:
                            state.mark_input(other)
                consumed = {id(clause) for clause in subgroup}
                buffer[:] = [clause for clause in buffer if id(clause) not in consumed]
                return True
        return False

    seen_clauses: Set[frozenset] = set()
    for position, clause in enumerate(clauses):
        if any(-literal in clause for literal in clause):
            continue
        clause_key = frozenset(clause)
        if clause_key in seen_clauses:
            continue
        seen_clauses.add(clause_key)
        buffer.append(clause)
        while try_accept():
            pass
        if not buffer:
            continue
        if len(buffer) >= MAX_GROUP_SIZE:
            state.flush_group(buffer)
            buffer.clear()
            continue
        next_clause = clauses[position + 1] if position + 1 < len(clauses) else None
        if next_clause is not None:
            buffer_variables = {abs(lit) for cl in buffer for lit in cl}
            next_variables = {abs(lit) for lit in next_clause}
            if buffer_variables.isdisjoint(next_variables):
                state.flush_group(buffer)
                buffer.clear()
    state.flush_group(buffer)
    buffer.clear()


def transform_reference(formula: CNF) -> TransformResult:
    """The seed's ``transform_cnf``: same result, no index or memo."""
    start = time.perf_counter()
    clauses = list(formula.clauses)
    stats = TransformStats(num_clauses=len(clauses))
    stats.cnf_operations = formula.two_input_operation_count()
    state = _ReferenceState(formula.num_variables, stats)
    _stream_reference(clauses, state)
    # Variables the stream neither took as inputs nor defined are free.
    covered = state.input_vars | state.defined_vars
    free_variables = [
        variable_name(index)
        for index in range(1, formula.num_variables + 1)
        if index not in covered
    ]
    return finish_transform(formula, state, free_variables, (), start)


def retransform_reference(prev: TransformResult, delta) -> TransformResult:
    """Rebuild ``prev``'s formula under ``delta`` from scratch, on the oracle.

    The clause sequence is ``delta`` applied to the exact sequence ``prev``
    consumed and the variable range widens to the appended clauses — what
    :func:`repro.core.transform.retransform` must reproduce record for
    record.
    """
    replay = prev.replay
    if delta.is_empty:
        return prev
    mutated, _ = apply_reference(delta, csr_rows(replay.literals, replay.offsets))
    num_variables = prev.num_variables
    for clause in delta.appended_clauses():
        for literal in clause:
            num_variables = max(num_variables, abs(literal))
    return transform_reference(CNF(mutated, num_variables=num_variables, name=prev.source_name))
