"""Algorithm 1: transforming a CNF into a multi-level, multi-output function.

The transformation streams over the clause list, maintaining a buffer ``SC``
of not-yet-consumed clauses.  After each clause is appended it tries to
identify a variable ``v`` such that the buffered group is exactly equivalent
to a definition ``v <-> f(other variables)``:

1. a *signature fast path* first checks whether the group is the CNF
   signature of a primary gate (Eqs. 1--4, :mod:`repro.core.signatures`);
2. otherwise the *generic extraction* derives the expression for ``v`` from
   the clauses containing ``~v`` and the expression for ``~v`` from the
   clauses containing ``v`` and accepts when the two are complements
   (:mod:`repro.core.extraction`), exactly as the ``x5`` walk-through in
   Section III-A.

Accepted definitions turn ``v`` into an *intermediate variable*; variables
feeding the definition that are not themselves defined become *primary
inputs* and can never be re-defined later (the circuit must stay acyclic).
A definition that simplifies to a constant marks ``v`` as a *primary output*
pinned to that constant (the paper's Fig. 1 ``x10 = 1`` case arises this way
when the unit clause is adjacent; when it is not, the constraint falls out of
the under-specified path below).

Groups that cannot be interpreted as a definition — the paper's
*under-specified* sub-clauses — are flushed verbatim: their conjunction
becomes an auxiliary output constrained to 1.  Flushing happens when the
buffered group shares no variable with the next clause, when the buffer
reaches :data:`MAX_GROUP_SIZE` clauses, or at the end of the clause stream.
This keeps the transformation *exactly equivalence-preserving over the
original variables*: every original clause is represented either inside a
definition or inside a constrained auxiliary output.

The clause-stream loop reads the formula's CSR arrays: one ``tolist`` each
gives the int-tuple literal rows and variable rows its buffer slots hold, and
one NumPy pass gives the keep mask (:func:`clause_keep_mask`) that drops
tautologies and repeated literal sets before a clause reaches the buffer.
It keeps a literal-occurrence index over the buffer, so each appended clause
only re-examines the candidate variables whose sub-group actually changed;
failed ``(variable, sub-group)`` attempts are cached and never retried until
the sub-group changes.  Both the candidate order and every accept/flush
decision are a pure function of the buffer contents, so the loop is
decision-for-decision identical to the seed's rescan-everything loop.  That
loop, with the seed's uncached truth-table, minimization and extraction
routines, is kept as the test oracle in ``tests/oracles/transform.py``; it
shares :func:`finish_transform` (circuit lowering, optimization, stats) with
:func:`transform_cnf`.

There is one recipe, the paper's: every attempt tries the signature match
first, every adopted expression is simplified, and the lowered circuit is
always optimized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.boolalg.expr import And, Const, Expr, Not, Or, Xor
from repro.boolalg.simplify import simplify
from repro.circuit.builder import circuit_from_expressions, expression_lowerer
from repro.circuit.netlist import Circuit
from repro.circuit.optimize import optimize_circuit
from repro.circuit.stats import two_input_gate_equivalents
from repro.cnf.formula import CNF, csr_rows, two_input_operation_count
from repro.core.extraction import (
    VAR_PREFIX,
    extract_definition,
    group_to_constraint_expr,
    literal_to_expr,
    variable_name,
)
from repro.core.signatures import GateMatch, match_gate_signature
from repro.engine.compiler import adopt_program, compiled_program_for, program_key
from repro.engine.executor import execute_bool
from repro.engine.program import CompiledProgram
from repro.circuit.gates import GATE_CODES, GateType
from repro import obs

_INPUT, _BUF = GATE_CODES[GateType.INPUT], GATE_CODES[GateType.BUF]

_perf = time.perf_counter

#: The clause buffer is flushed as an under-specified group once it holds
#: this many clauses.
MAX_GROUP_SIZE = 64
#: Widest support a complement check enumerates; a candidate wider than this
#: is not a definition, and a flushed group wider than this is not simplified.
MAX_CANDIDATE_VARS = 12

#: Registered form of :attr:`TransformStats.stage_seconds` — every stage
#: bucket also accumulates here, process-wide, so ``repro-sat obs`` and the
#: Prometheus export see transform time without threading stats objects.
_STAGE_SECONDS = obs.counter(
    "repro_transform_stage_seconds_total",
    "Wall-clock seconds spent per CNF->circuit transform stage.",
    labels=("stage",),
)
_TRANSFORM_RUNS = obs.counter(
    "repro_transform_runs_total",
    "Completed CNF->circuit transforms by mode.",
    labels=("mode",),
)


@dataclass
class TransformStats:
    """Bookkeeping counters recorded while transforming a CNF."""

    seconds: float = 0.0
    num_clauses: int = 0
    num_definitions: int = 0
    signature_matches: int = 0
    generic_matches: int = 0
    fallback_groups: int = 0
    constant_definitions: int = 0
    cnf_operations: int = 0
    circuit_operations: int = 0
    #: Wall-clock seconds per transform stage.  ``stream`` covers the whole
    #: clause-stream loop and *contains* ``signature`` (gate-signature
    #: matching), ``extraction`` (generic extraction + complement checks),
    #: ``simplify`` (expression simplification before adoption) and ``flush``
    #: (under-specified group fallback); ``free_vars``, ``circuit_build`` and
    #: ``optimize`` (the one topological pass of
    #: :func:`~repro.circuit.optimize.optimize_circuit`: constant folding,
    #: buffer collapsing, structural hashing and the dangling sweep) follow
    #: the loop.  This is the per-result record (what
    #: ``transform --profile`` prints); the registered counter
    #: ``repro_transform_stage_seconds_total{stage=...}`` in :mod:`repro.obs`
    #: is the process-wide one — both are fed by :meth:`add_stage`.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock time into a named stage bucket.

        Dual-writes the per-result :attr:`stage_seconds` dict and the
        process-wide ``repro_transform_stage_seconds_total`` counter.
        """
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
        _STAGE_SECONDS.inc(seconds, stage)

    @property
    def operations_reduction(self) -> float:
        """CNF ops / circuit ops in 2-input gate equivalents (Fig. 4 middle)."""
        if self.circuit_operations == 0:
            return float("inf")
        return self.cnf_operations / self.circuit_operations


#: One stream checkpoint: ``(clause position, definitions, inputs,
#: constraints, signature matches, generic matches, fallback groups, constant
#: definitions, lookahead-free)``.  Recorded only at *empty-buffer*
#: boundaries, where the stream's entire forward-reaching state is the record
#: lists — the occurrence index, versions and failure memo are all empty or
#: unreachable (``failed_version`` can never spuriously match a fresh
#: version: any consume bumps versions after a failure), and the keep mask
#: (:func:`clause_keep_mask`) is a function of the clause sequence alone — so
#: a replay from the checkpoint with fresh dictionaries is
#: decision-identical.  The final flag is ``False`` when the buffer was
#: emptied by the disjoint-lookahead flush at the previous position — that
#: flush *examined this position's clause*, so such a checkpoint is invalid
#: when the clause at exactly this position changed.
_Checkpoint = Tuple[int, int, int, int, int, int, int, int, bool]


@dataclass(frozen=True, eq=False)
class TransformReplay:
    """Everything :func:`retransform` needs to resume a previous transform:
    the exact clause sequence the transform consumed, as read-only CSR
    ``literals`` (``int32``) and ``offsets`` (``int64``), and the stream's
    empty-buffer checkpoints."""

    literals: np.ndarray
    offsets: np.ndarray
    checkpoints: Tuple[_Checkpoint, ...]


def _variable_rows(names: Sequence[str]) -> np.ndarray:
    """0-based variable rows of ``x<i>`` net names as an ``intp`` index map."""
    return np.array([int(name[len(VAR_PREFIX):]) - 1 for name in names], dtype=np.intp)


@dataclass(frozen=True)
class RoundPlan:
    """Everything a sampling round executes, compiled once per transform.

    A round learns the constrained inputs with :attr:`learn` (the
    constrained cone's program: the paper's differentiable circuit model,
    Eq. 7, with the constrained inputs as its columns; ``None`` without
    constraints — then the round is pure random draws), routes learned bits
    and random draws into a variable-major ``(num_variables, batch)`` matrix
    through the ``*_rows`` maps, and fills the defined variables with
    :attr:`fill` (the defined nets over the primary inputs, ``None`` without
    definitions).  Each map is an ``intp`` array of 0-based variable rows
    (empty maps too, so they index as no-ops); the input, defined and free
    rows write every row exactly once.

    The plan holds only names, index arrays and compiled programs — no
    ``Circuit``, no ``Expr`` and no clause list — so it is the artifact
    store's hot ``round`` entry: a store hit decodes it (with the formula's
    :class:`~repro.cnf.kernel.CNFEvalPlan`) and nothing else.
    """

    num_variables: int
    constrained_inputs: Tuple[str, ...]
    unconstrained_inputs: Tuple[str, ...]
    defined_nets: Tuple[str, ...]
    learn: Optional[CompiledProgram]
    fill: Optional[CompiledProgram]
    input_rows: np.ndarray
    constrained_rows: np.ndarray
    unconstrained_rows: np.ndarray
    free_rows: np.ndarray
    defined_rows: np.ndarray

    def fill_defined_rows(self, rows: np.ndarray) -> None:
        """Simulate the defined variables into variable-major ``rows`` in place.

        ``rows`` is ``(num_variables, batch)`` with its primary-input rows set.
        """
        if self.fill is None:
            return
        values = execute_bool(self.fill, rows[self.input_rows].T)
        rows[self.defined_rows] = values[self.fill.output_slots]


@dataclass
class TransformResult:
    """The recovered multi-level, multi-output Boolean function.

    Attributes
    ----------
    definitions:
        Ordered ``(variable name, expression)`` pairs; each expression only
        references primary inputs or earlier definitions.
    primary_inputs:
        Names of the primary-input variables (original CNF variables that are
        never defined by an expression).
    intermediate_variables:
        Names of the defined (non-constant) variables.
    primary_outputs:
        Variables whose definition collapsed to a constant, mapped to that
        constant (the paper's primary-output classification).
    constraints:
        ``(auxiliary output name, expression)`` pairs; every expression must
        evaluate to 1 in a satisfying assignment.  These are the heads of the
        paper's *constrained paths*.
    circuit:
        The lowered :class:`~repro.circuit.netlist.Circuit`; its primary
        outputs are the constraint nets.
    free_variables:
        Original variables that are neither primary inputs nor defined (no
        record reads them, so any value works), ascending.
    """

    source_name: str
    num_variables: int
    definitions: List[Tuple[str, Expr]]
    primary_inputs: List[str]
    intermediate_variables: List[str]
    primary_outputs: Dict[str, bool]
    constraints: List[Tuple[str, Expr]]
    circuit: Circuit
    free_variables: List[str] = field(default_factory=list)
    stats: TransformStats = field(default_factory=TransformStats)
    #: Replay record consumed by :func:`retransform` (clause sequence and
    #: stream checkpoints).  Not part of the result's value.
    replay: Optional[TransformReplay] = field(default=None, repr=False, compare=False)

    # -- path analysis -------------------------------------------------------------
    def constraint_nets(self) -> List[str]:
        """Names of the constrained output nets in the circuit."""
        return [name for name, _ in self.constraints]

    def constrained_inputs(self) -> List[str]:
        """Primary inputs on constrained paths (those the GD sampler must learn)."""
        return list(self.round_plan.constrained_inputs)

    def unconstrained_inputs(self) -> List[str]:
        """Primary inputs only on unconstrained paths (any random value works)."""
        return list(self.round_plan.unconstrained_inputs)

    # -- reconstruction of full CNF assignments ------------------------------------------
    @cached_property
    def round_plan(self) -> "RoundPlan":
        """The sampling round compiled once per transform (see :class:`RoundPlan`).

        Built on first use and memoised, so every sampler over this transform
        shares one plan; its programs come from (and stay in) the circuit's
        program memo.  The store keeps the plan as an entry of its own, and a
        decoded transform adopts its programs (:meth:`adopt_programs`).
        """
        cone = self.circuit.transitive_fanin(self.constraint_nets())
        constrained = tuple(name for name in self.primary_inputs if name in cone)
        unconstrained = tuple(name for name in self.primary_inputs if name not in cone)
        defined = tuple(name for name, _ in self.definitions)
        learn = fill = None
        if self.constraints:
            learn = compiled_program_for(self.circuit, self.constraint_nets(), constrained)
        if defined:
            fill = compiled_program_for(self.circuit, defined, self.primary_inputs)
        return RoundPlan(
            num_variables=self.num_variables,
            constrained_inputs=constrained,
            unconstrained_inputs=unconstrained,
            defined_nets=defined,
            learn=learn,
            fill=fill,
            input_rows=_variable_rows(self.primary_inputs),
            constrained_rows=_variable_rows(constrained),
            unconstrained_rows=_variable_rows(unconstrained),
            free_rows=_variable_rows(self.free_variables),
            defined_rows=_variable_rows(defined),
        )

    def adopt_programs(self, plan: RoundPlan) -> None:
        """Seed the circuit's program memo with a stored round plan's programs.

        After a store load, :meth:`round_plan` and every
        :func:`~repro.engine.compiler.compiled_program_for` call for those
        cones are then memo hits on the very program objects the plan holds.
        """
        if plan.learn is not None:
            adopt_program(
                self.circuit,
                program_key(self.constraint_nets(), plan.constrained_inputs),
                plan.learn,
            )
        if plan.fill is not None:
            adopt_program(
                self.circuit, program_key(plan.defined_nets, self.primary_inputs), plan.fill
            )

    def fill_defined_rows(self, rows: np.ndarray) -> None:
        """Simulate the defined variables into variable-major ``rows`` in place.

        ``rows`` is ``(num_variables, batch)`` with its primary-input rows set
        (see :meth:`RoundPlan.fill_defined_rows`).
        """
        self.round_plan.fill_defined_rows(rows)

    def complete_assignments(
        self,
        input_matrix: np.ndarray,
        free_values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Expand primary-input assignments to full original-variable assignments.

        ``input_matrix`` is ``(batch, len(primary_inputs))`` boolean, ordered
        like :attr:`primary_inputs`.  Defined variables are computed by
        simulating the recovered circuit; free variables receive
        ``free_values`` (``(batch, len(free_variables))``, else ``ValueError``)
        or 0.  Returns a ``(batch, num_variables)`` boolean matrix, column
        ``j`` holding variable ``j + 1``.

        The result is the transposed view of a variable-major
        ``(num_variables, batch)`` matrix: the round plan's index maps route
        each group of rows in one fancy-indexed assignment and
        :meth:`fill_defined_rows` fills the rest.  The per-column reference
        lives in ``tests/oracles/``.
        """
        input_matrix = np.asarray(input_matrix, dtype=np.bool_)
        batch = input_matrix.shape[0]
        if input_matrix.shape[1] != len(self.primary_inputs):
            raise ValueError(
                f"expected {len(self.primary_inputs)} input columns, "
                f"got {input_matrix.shape[1]}"
            )
        plan = self.round_plan
        rows = np.zeros((self.num_variables, batch), dtype=np.bool_)
        rows[plan.input_rows] = input_matrix.T
        if free_values is not None:
            free_values = np.asarray(free_values, dtype=np.bool_)
            expected = (batch, len(self.free_variables))
            if free_values.shape != expected:
                raise ValueError(
                    f"expected free_values of shape (batch, len(free_variables)) "
                    f"= {expected}, got {free_values.shape}"
                )
            rows[plan.free_rows] = free_values.T
        self.fill_defined_rows(rows)
        return rows.T

    def summary(self) -> Dict[str, object]:
        """Compact description used by the evaluation reports."""
        return {
            "instance": self.source_name,
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs) + len(self.constraints),
            "intermediate_variables": len(self.intermediate_variables),
            "constraints": len(self.constraints),
            "circuit_gates": self.circuit.num_gates,
            "ops_reduction": self.stats.operations_reduction,
            "transform_seconds": self.stats.seconds,
        }


def _expr_from_gate_match(match: GateMatch) -> Expr:
    """Build the defining expression encoded by a recognised gate signature."""
    fanin_exprs = [literal_to_expr(lit) for lit in match.fanin_literals]
    gate_type = match.gate_type
    if gate_type == GateType.NOT:
        return Not(fanin_exprs[0])
    if gate_type == GateType.BUF:
        return fanin_exprs[0]
    if gate_type == GateType.AND:
        return And(*fanin_exprs)
    if gate_type == GateType.NAND:
        return Not(And(*fanin_exprs))
    if gate_type == GateType.OR:
        return Or(*fanin_exprs)
    if gate_type == GateType.NOR:
        return Not(Or(*fanin_exprs))
    if gate_type == GateType.XOR:
        return Xor(*fanin_exprs)
    if gate_type == GateType.XNOR:
        return Not(Xor(*fanin_exprs))
    raise ValueError(f"unsupported gate match {gate_type}")


class _TransformState:
    """Classification state of the clause-stream loop.

    Holds the growing definition/input/output/constraint records and performs
    the accept/flush bookkeeping in exactly the order the original algorithm
    did (the order in which primary inputs are discovered is observable in
    :attr:`TransformResult.primary_inputs`).
    """

    def __init__(self, num_names: int, stats: TransformStats) -> None:
        self.stats = stats
        #: Plain-float accumulators for the per-attempt stages; flushed into
        #: ``stats.stage_seconds`` once per transform (a dict update per
        #: attempt showed up in profiles at ~10k calls per instance).
        self.signature_seconds = 0.0
        self.extraction_seconds = 0.0
        self.simplify_seconds = 0.0
        #: ``names[v]`` is the expression-domain name of DIMACS variable v.
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
        names = self.names
        if variable < len(names):
            return names[variable]
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
        start = _perf()
        expr = simplify(expr)
        self.simplify_seconds += _perf() - start
        for support_name in sorted(expr.support()):
            self.mark_input(support_name)
        self.definitions.append((name, expr))
        self.defined.add(name)
        self.defined_vars.add(variable)
        if isinstance(expr, Const):
            self.primary_outputs[name] = expr.value
            self.stats.constant_definitions += 1

    def flush_group(self, buffer: Sequence[Sequence[int]]) -> None:
        if not buffer:
            return
        start = _perf()
        expr = group_to_constraint_expr(buffer)
        # The simplify gate tracks the generic extraction's complement budget.
        if len(expr.support()) <= MAX_CANDIDATE_VARS:
            simplify_start = _perf()
            expr = simplify(expr)
            self.simplify_seconds += _perf() - simplify_start
        for support_name in sorted(expr.support()):
            self.mark_input(support_name)
        # Variables simplified away from the constraint expression still need a
        # value during completion; classify them as primary inputs as well.
        for clause in buffer:
            for literal in clause:
                self.mark_input_var(abs(literal))
        constraint_name = f"__constraint_{len(self.constraints)}"
        self.constraints.append((constraint_name, expr))
        self.stats.fallback_groups += 1
        self.stats.add_stage("flush", _perf() - start)

    def add_attempt_stages(self) -> None:
        """Flush the per-attempt stage accumulators into ``stats``."""
        for stage, seconds in (
            ("signature", self.signature_seconds),
            ("extraction", self.extraction_seconds),
            ("simplify", self.simplify_seconds),
        ):
            if seconds:
                self.stats.add_stage(stage, seconds)


def _try_definition(
    state: _TransformState, variable: int, subgroup: Sequence[Tuple[int, ...]]
) -> Optional[Expr]:
    """Signature match then generic extraction for one candidate variable."""
    stats = state.stats
    start = _perf()
    match = match_gate_signature(variable, subgroup)
    state.signature_seconds += _perf() - start
    if match is not None and not any(
        abs(literal) == variable for literal in match.fanin_literals
    ):
        stats.signature_matches += 1
        return _expr_from_gate_match(match)
    start = _perf()
    # The occurrence index builds sub-groups that mention the candidate by
    # construction, so the extraction core runs without the mention check.
    expr = extract_definition(variable, subgroup, max_vars=MAX_CANDIDATE_VARS)
    state.extraction_seconds += _perf() - start
    if expr is not None:
        stats.generic_matches += 1
    return expr


def clause_keep_mask(literals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Which clauses of a CSR clause sequence the stream reads (``bool``).

    A tautology is dropped, and so is every clause whose literal *set* an
    earlier kept clause already has (duplicates are redundant in a
    conjunction and would only linger in the group buffer); the first
    occurrence stays.  The clauses must not repeat a literal, as a
    :class:`~repro.cnf.formula.CNF`'s never do.  The mask depends on the
    clause sequence alone, so a suffix replay reads the whole sequence's
    mask.  The per-clause ``frozenset`` filter it replaced is the oracle in
    ``tests/oracles/transform.py``.
    """
    widths = np.diff(offsets)
    owners = np.repeat(np.arange(widths.size, dtype=np.int64), widths)
    signed = literals.astype(np.int64)
    # One key per literal: its clause, its variable, then its sign.  Sorted,
    # each clause's literals sit together in one canonical order, and the two
    # phases of a variable sit side by side.
    keys = np.sort((owners << 32) | (np.abs(signed) << 1) | (signed < 0))
    keep = np.ones(widths.size, dtype=np.bool_)
    both_phases = (keys[1:] >> 1) == (keys[:-1] >> 1)
    keep[keys[1:][both_phases] >> 32] = False
    canonical = (keys & 0xFFFFFFFF).astype(np.uint32)
    # Equal sets have equal widths: compare the canonical rows width by width.
    by_width = np.argsort(widths, kind="stable")
    for group in np.split(by_width, np.flatnonzero(np.diff(widths[by_width])) + 1):
        width = int(widths[group[0]]) if group.size else 0
        if width == 0:
            keep[group[1:]] = False  # every empty clause after the first
            continue
        rows = canonical[offsets[group][:, None] + np.arange(width)]
        # A stable sort: ``first`` holds each distinct row's first occurrence.
        _, first = np.unique(
            rows.view(np.dtype((np.void, 4 * width))).ravel(), return_index=True
        )
        repeat = np.ones(group.size, dtype=np.bool_)
        repeat[first] = False
        keep[group[repeat]] = False
    return keep


def _stream(
    literals: np.ndarray,
    offsets: np.ndarray,
    state: _TransformState,
    checkpoints: Optional[List[_Checkpoint]] = None,
    start: int = 0,
    resume_lookahead_flush: bool = False,
) -> None:
    """Literal-occurrence-indexed clause-stream loop over clauses ``start..``
    of a CSR clause sequence.

    The clauses are read as int-tuple literal rows and variable rows, one
    ``tolist`` each, and :func:`clause_keep_mask` says which of them enter
    the buffer.  Buffer clauses live in integer *slots* (monotonically
    increasing ids, so ascending slot order is buffer order).
    ``occurrences[v]`` holds the live slots mentioning variable ``v`` — a
    candidate's sub-group is read straight from the index instead of
    rescanning the buffer.  ``versions[v]`` counts how often
    ``occurrences[v]`` changed and ``failed_version[v]`` remembers the
    version of the last unsuccessful attempt; since both the signature match
    and the generic extraction are pure functions of ``(v, sub-group)``, a
    candidate whose sub-group did not change since its last failure is
    skipped with two dictionary lookups.

    When ``checkpoints`` is a list, a :data:`_Checkpoint` is appended at every
    empty-buffer boundary (including one at end-of-stream when the final flush
    had nothing buffered); :func:`retransform` resumes suffix replays from
    them by passing the checkpoint's position as ``start``.
    """
    # Rows of the streamed clauses only; the mask reads the whole sequence.
    base = offsets[start]
    suffix, suffix_offsets = literals[base:], offsets[start:] - base
    rows = csr_rows(suffix, suffix_offsets)
    # Kept clauses mention each variable exactly once, so the literal order
    # doubles as the distinct-variable order.
    variable_rows = csr_rows(np.abs(suffix), suffix_offsets)
    keep = clause_keep_mask(literals, offsets)[start:].tolist()
    slots: Dict[int, Tuple[int, ...]] = {}
    slot_vars: Dict[int, Tuple[int, ...]] = {}
    occurrences: Dict[int, Set[int]] = {}
    versions: Dict[int, int] = {}
    order: List[int] = []
    failed_version: Dict[int, int] = {}
    next_slot = 0
    stats = state.stats

    def record_checkpoint(position: int, lookahead_free: bool) -> None:
        checkpoints.append(
            (
                position,
                len(state.definitions),
                len(state.primary_inputs),
                len(state.constraints),
                stats.signature_matches,
                stats.generic_matches,
                stats.fallback_groups,
                stats.constant_definitions,
                lookahead_free,
            )
        )

    defined_vars = state.defined_vars
    input_vars = state.input_vars

    def try_accept() -> bool:
        seen_vars: Set[int] = set()
        for slot in order:
            for variable in slot_vars[slot]:
                if variable in seen_vars:
                    continue
                seen_vars.add(variable)
                if variable in defined_vars or variable in input_vars:
                    continue
                if failed_version.get(variable) == versions[variable]:
                    continue
                subgroup_key = sorted(occurrences[variable])
                expr = _try_definition(
                    state, variable, [slots[sid] for sid in subgroup_key]
                )
                if expr is None:
                    failed_version[variable] = versions[variable]
                    continue
                state.accept_definition(variable, expr)
                # Algorithm 1 (lines 17-21): every other variable of the consumed
                # group that is not already defined becomes a primary input, even
                # if simplification dropped it from the adopted expression —
                # otherwise it would never receive a value during completion.
                for sid in subgroup_key:
                    for other in slot_vars[sid]:
                        if other != variable:
                            state.mark_input_var(other)
                consume(subgroup_key)
                return True
        return False

    def consume(subgroup_key: List[int]) -> None:
        for sid in subgroup_key:
            variables = slot_vars.pop(sid)
            del slots[sid]
            for variable in variables:
                remaining = occurrences[variable]
                remaining.discard(sid)
                versions[variable] += 1
                if not remaining:
                    del occurrences[variable]
        order[:] = [sid for sid in order if sid in slots]

    def flush() -> None:
        if not order:
            return
        state.flush_group([slots[sid] for sid in order])
        slots.clear()
        slot_vars.clear()
        occurrences.clear()
        order.clear()
        failed_version.clear()

    last = len(rows) - 1
    # Resumed replays seed the flag so the checkpoint they re-record at their
    # first position carries the same lookahead provenance the original did.
    lookahead_flush = resume_lookahead_flush
    for index, clause in enumerate(rows):
        if checkpoints is not None and not order:
            record_checkpoint(start + index, not lookahead_flush)
        lookahead_flush = False
        if not keep[index]:
            continue
        slot = next_slot
        next_slot += 1
        slots[slot] = clause
        variables = slot_vars[slot] = variable_rows[index]
        order.append(slot)
        for variable in variables:
            occurrence_set = occurrences.get(variable)
            if occurrence_set is None:
                occurrences[variable] = {slot}
                versions[variable] = versions.get(variable, 0) + 1
            else:
                occurrence_set.add(slot)
                versions[variable] += 1
        while try_accept():
            # Keep accepting: consuming one sub-group may unblock another
            # candidate that was waiting on the same buffer.
            pass
        if not order:
            continue
        if len(order) >= MAX_GROUP_SIZE:
            flush()
            continue
        if index < last and all(
            variable not in occurrences for variable in variable_rows[index + 1]
        ):
            flush()
            lookahead_flush = True
    if checkpoints is not None and not order:
        # End-of-stream checkpoint, recorded only when nothing was buffered: a
        # trailing under-specified group's flush depends on the stream ending
        # here, which an append-only delta would change.  The disjoint
        # lookahead cannot fire at the final position, so the flag is only
        # ever False here for an empty resumed stream carrying its seed.
        record_checkpoint(start + len(rows), not lookahead_flush)
    flush()


def clear_transform_caches() -> None:
    """Drop every process-level memo the transform relies on.

    Clears the boolalg truth-table/minimization memos and the extraction
    layer's literal/remainder memos.  Long-lived services streaming many
    distinct formulas call this to bound memory; a timed cold transform
    calls it first so it starts genuinely cold.
    """
    import repro.boolalg as boolalg
    from repro.core import extraction

    boolalg.clear_caches()
    extraction._clause_remainder.cache_clear()
    extraction.literal_to_expr.cache_clear()
    extraction.variable_name.cache_clear()


def _free_variables(num_variables: int, state: _TransformState) -> List[str]:
    """Every original variable the stream neither took as a primary input
    nor defined, ascending: no record reads it, so any value works (a
    variable no clause mentions, or one only tautological clauses do)."""
    covered = state.input_vars | state.defined_vars
    return [state.names[v] for v in range(1, num_variables + 1) if v not in covered]


def transform_cnf(formula: CNF) -> TransformResult:
    """Run the transformation algorithm on ``formula``.

    Traced as a ``transform.cnf`` span when telemetry is enabled; stage
    timings always accumulate into ``repro_transform_stage_seconds_total``.
    """
    with obs.span("transform.cnf") as tspan:
        result = _transform_cnf_impl(formula)
        tspan.set("clauses", result.stats.num_clauses)
        tspan.set("definitions", result.stats.num_definitions)
    _TRANSFORM_RUNS.inc(1.0, "cold")
    return result


def _transform_cnf_impl(formula: CNF) -> TransformResult:
    start = _perf()
    stats = TransformStats(num_clauses=formula.num_clauses)
    stats.cnf_operations = formula.two_input_operation_count()

    state = _TransformState(num_names=formula.num_variables, stats=stats)

    checkpoints: List[_Checkpoint] = []
    stream_start = _perf()
    _stream(formula.literals, formula.offsets, state, checkpoints=checkpoints)
    stats.add_stage("stream", _perf() - stream_start)
    state.add_attempt_stages()

    free_start = _perf()
    free_variables = _free_variables(formula.num_variables, state)
    stats.add_stage("free_vars", _perf() - free_start)
    return finish_transform(formula, state, free_variables, checkpoints, start)


def finish_transform(
    formula: CNF,
    state,
    free_variables: List[str],
    checkpoints: Sequence[_Checkpoint],
    start: float,
) -> TransformResult:
    """Lower a finished clause stream's records and package the result.

    The post-stream tail of :func:`transform_cnf`, shared with the reference
    oracle: ``state`` carries the ``definitions``, ``primary_inputs``,
    ``primary_outputs``, ``constraints`` and ``stats`` the stream produced
    and ``start`` is the transform's ``perf_counter`` start.
    """
    stats = state.stats
    definitions = state.definitions
    constraints = state.constraints
    primary_inputs = state.primary_inputs
    primary_outputs = state.primary_outputs

    build_start = _perf()
    all_definitions = definitions + constraints
    circuit = circuit_from_expressions(
        all_definitions,
        outputs=[name for name, _ in constraints],
        inputs=primary_inputs,
        name=formula.name or "recovered",
    )
    stats.add_stage("circuit_build", _perf() - build_start)
    if constraints:
        optimize_start = _perf()
        # Keep the defined nets alive (and named) through optimization by
        # marking them as outputs, so complete_assignments can still read them.
        for name, _ in definitions:
            circuit.set_output(name)
        circuit = optimize_circuit(circuit)
        stats.add_stage("optimize", _perf() - optimize_start)

    stats.circuit_operations = two_input_gate_equivalents(circuit)
    stats.num_definitions = len(definitions)
    stats.seconds = _perf() - start

    intermediate_variables = [
        name for name, _ in definitions if name not in primary_outputs
    ]
    replay = TransformReplay(formula.literals, formula.offsets, tuple(checkpoints))
    return TransformResult(
        source_name=formula.name,
        num_variables=formula.num_variables,
        definitions=definitions,
        primary_inputs=primary_inputs,
        intermediate_variables=intermediate_variables,
        primary_outputs=primary_outputs,
        constraints=constraints,
        circuit=circuit,
        free_variables=free_variables,
        stats=stats,
        replay=replay,
    )


class _GraftUnsafe(Exception):
    """Raised when the incremental circuit graft would collide with a copied
    net name; the caller falls back to a full rebuild."""


def _graft_circuit(
    prev_circuit: Circuit,
    state: _TransformState,
    num_kept_definitions: int,
    num_kept_constraints: int,
    name: str,
) -> Circuit:
    """Build the incremental circuit: copy kept cones, lower new records.

    The kept prefix records' nets all survive in ``prev_circuit`` by name
    (optimization marks every definition and constraint net as an output, and
    keeps every output's name), and their transitive-fanin
    cones reference only prefix-known inputs — structural hashing merges
    gates with *identical* fanins only, so a cone's leaf inputs never change.
    Copying those cones verbatim skips the global re-optimization that
    dominates a cold transform; new records are lowered on top with fresh
    internal names.  Raises :class:`_GraftUnsafe` in the rare case a net
    name would be defined twice: a new record's net already exists in the
    copied region, or a copied gate is named after a variable the new
    stream takes as a primary input (both possible when structural hashing
    merged a prefix gate into a suffix record's net).
    """
    kept_nets = [net for net, _ in state.definitions[:num_kept_definitions]]
    kept_nets += [net for net, _ in state.constraints[:num_kept_constraints]]
    new_records = (
        state.definitions[num_kept_definitions:]
        + state.constraints[num_kept_constraints:]
    )
    circuit = Circuit(name)
    for input_name in state.primary_inputs:
        circuit.add_input(input_name)
    index = circuit._index
    if kept_nets:
        cone = prev_circuit._cone(prev_circuit._rows_of(kept_nets))
        prev_names, prev_types, prev_fanins = (
            prev_circuit._names,
            prev_circuit._types,
            prev_circuit._fanins,
        )
        for row in prev_circuit._topological():
            if not cone[row] or prev_types[row] == _INPUT:
                continue  # cone leaves are prefix inputs, pre-declared above
            net = prev_names[row]
            if net in index:
                raise _GraftUnsafe(net)  # a gate named after a new input
            fanins = tuple([index[prev_names[fanin]] for fanin in prev_fanins[row]])
            circuit._append(net, prev_types[row], fanins)

    def variable(net: str) -> int:
        row = index.get(net)
        if row is None:
            raise _GraftUnsafe(net)
        return row

    lower = expression_lowerer(circuit, variable)
    for net, expr in new_records:
        if net in index:
            raise _GraftUnsafe(net)
        driver = lower(expr)
        circuit._append(net, _BUF, (driver,))

    for net, _ in state.constraints:
        circuit.set_output(net)
    if state.constraints:
        # Mirror transform_cnf's optimize path, which keeps defined nets
        # readable by marking them as outputs.
        for net, _ in state.definitions:
            circuit.set_output(net)
    return circuit


def retransform(prev: TransformResult, delta) -> TransformResult:
    """Traced front end of :func:`_retransform_impl` (span
    ``transform.retransform``; counts under ``mode="incremental"``)."""
    with obs.span("transform.retransform") as tspan:
        result = _retransform_impl(prev, delta)
        tspan.set("clauses", result.stats.num_clauses)
    if result is not prev:
        _TRANSFORM_RUNS.inc(1.0, "incremental")
    return result


def _retransform_impl(prev: TransformResult, delta) -> TransformResult:
    """Transform the delta-mutated formula incrementally, reusing ``prev``.

    ``delta`` is a :class:`~repro.cnf.delta.ClauseDelta` applied to the exact
    clause sequence ``prev`` consumed (recorded on ``prev.replay``).  It
    restores the stream state from the latest valid empty-buffer
    checkpoint at or before the first changed clause position, replays only
    the suffix, and grafts the new records onto the previously optimized
    circuit (:func:`_graft_circuit`) — on instances where the change touches
    a late suffix this is an order of magnitude cheaper than a cold
    :func:`transform_cnf`.

    The contract, pinned by ``tests/incremental``: every *record* of the
    result (definitions, primary inputs, intermediate variables, primary
    outputs, constraints, free variables) is identical to a fresh transform
    of the mutated formula, and ``complete_assignments`` is bitwise
    identical; the grafted *circuit* is functionally equivalent but not
    re-optimized globally, so its gate structure may differ from a cold
    build's.  The oracle, a full reference rebuild, lives in
    ``tests/oracles/transform.py``.

    An empty delta returns ``prev`` itself.
    """
    replay = prev.replay
    if replay is None:
        raise ValueError(
            "prev carries no replay record; it must come from transform_cnf "
            "or retransform"
        )
    if delta.is_empty:
        return prev
    literals, offsets, change_position = delta.apply(replay.literals, replay.offsets)
    num_variables = prev.num_variables
    for clause in delta.appended_clauses():
        for literal in clause:
            variable = -literal if literal < 0 else literal
            if variable > num_variables:
                num_variables = variable
    name = prev.source_name

    checkpoint: Optional[_Checkpoint] = None
    for candidate in replay.checkpoints:
        if candidate[0] > change_position:
            break
        if candidate[0] == change_position and not candidate[8]:
            # Reached via the disjoint-lookahead flush, which examined the
            # clause at exactly the change position — invalid to resume from.
            continue
        checkpoint = candidate
    if checkpoint is None or checkpoint[0] == 0:
        # No reusable prefix (or a prev recorded without checkpoints): a
        # full transform also rebuilds the optimized circuit.
        return transform_cnf(CNF.from_csr(literals, offsets, num_variables, name=name))

    start = _perf()
    (
        position,
        num_definitions,
        num_inputs,
        num_constraints,
        signature_matches,
        generic_matches,
        fallback_groups,
        constant_definitions,
        lookahead_free,
    ) = checkpoint

    stats = TransformStats(num_clauses=offsets.size - 1)
    stats.cnf_operations = two_input_operation_count(literals, offsets)
    stats.signature_matches = signature_matches
    stats.generic_matches = generic_matches
    stats.fallback_groups = fallback_groups
    stats.constant_definitions = constant_definitions

    state = _TransformState(num_names=num_variables, stats=stats)
    state.definitions = list(prev.definitions[:num_definitions])
    state.defined = {net for net, _ in state.definitions}
    state.defined_vars = {
        int(net[len(VAR_PREFIX):]) for net in state.defined
    }
    state.primary_inputs = list(prev.primary_inputs[:num_inputs])
    state.primary_input_set = set(state.primary_inputs)
    state.input_vars = {
        int(net[len(VAR_PREFIX):]) for net in state.primary_inputs
    }
    state.primary_outputs = {
        net: expr.value
        for net, expr in state.definitions
        if isinstance(expr, Const)
    }
    state.constraints = list(prev.constraints[:num_constraints])

    checkpoints = [c for c in replay.checkpoints if c[0] < position]
    stream_start = _perf()
    _stream(
        literals,
        offsets,
        state,
        checkpoints=checkpoints,
        start=position,
        resume_lookahead_flush=not lookahead_free,
    )
    stats.add_stage("stream", _perf() - stream_start)
    state.add_attempt_stages()

    free_start = _perf()
    free_variables = _free_variables(num_variables, state)
    stats.add_stage("free_vars", _perf() - free_start)

    graft_start = _perf()
    try:
        circuit = _graft_circuit(
            prev.circuit,
            state,
            num_definitions,
            num_constraints,
            name=name or "recovered",
        )
    except _GraftUnsafe:
        return transform_cnf(CNF.from_csr(literals, offsets, num_variables, name=name))
    stats.add_stage("circuit_graft", _perf() - graft_start)

    stats.circuit_operations = two_input_gate_equivalents(circuit)
    stats.num_definitions = len(state.definitions)
    stats.seconds = _perf() - start

    intermediate_variables = [
        net for net, _ in state.definitions if net not in state.primary_outputs
    ]
    new_replay = TransformReplay(literals, offsets, tuple(checkpoints))
    return TransformResult(
        source_name=name,
        num_variables=num_variables,
        definitions=state.definitions,
        primary_inputs=state.primary_inputs,
        intermediate_variables=intermediate_variables,
        primary_outputs=state.primary_outputs,
        constraints=state.constraints,
        circuit=circuit,
        free_variables=free_variables,
        stats=stats,
        replay=new_replay,
    )
