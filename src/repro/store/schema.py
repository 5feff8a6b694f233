"""Per-kind entry schemas: what each store entry holds and how it is checked.

The store keeps two entry kinds under one formula signature, both
:class:`~repro.store.format.FlatPayload` s — JSON ``fields`` plus named
arrays, read back as zero-copy views — so loading an entry never executes
anything from disk:

* ``round`` — the hot entry: the transform's
  :class:`~repro.core.transform.RoundPlan` — its row maps, its ``learn`` and
  ``fill`` :class:`~repro.engine.program.CompiledProgram` s — and the
  formula's :class:`~repro.cnf.kernel.CNFEvalPlan`.  Scalars and names sit
  in ``fields``; every array is a named blob (``input_rows``,
  ``learn.opcodes``, ``plan.literal_columns``, ...).
* ``transform`` — the formula and its
  :class:`~repro.core.transform.TransformResult`, decoded only on demand.
  The formula is CSR (``formula.literals`` ``int32`` plus
  ``formula.offsets`` ``int64``; its name, comments and variable count are
  fields).  Definitions and constraints share one interned expression DAG:
  a node table of ``expr.opcodes`` (``uint8``), ``expr.variables``
  (``int32``) and CSR ``expr.children`` that point only to earlier nodes,
  rebuilt in one forward pass through the :mod:`~repro.boolalg.expr`
  constructors; ``definitions.variables``/``definitions.roots`` and
  ``constraints.roots`` index it.  The circuit is its gate names, ``uint8``
  gate types and CSR fanins that point to earlier gates: the netlist's own
  gate table (:attr:`Circuit.types <repro.circuit.netlist.Circuit.types>`,
  :meth:`~repro.circuit.netlist.Circuit.fanin_csr`), written and read back
  (:meth:`~repro.circuit.netlist.Circuit.from_table`) with no per-gate
  objects, plus whether its row order is its topological order; the stream
  checkpoints are one ``(N, 9)`` ``int64`` table and
  :class:`~repro.core.transform.TransformStats` is a field.  The primary
  outputs, intermediate and free variables, the circuit's inputs and
  outputs and the replay's clause sequence are derived, not stored: a
  transform is written only when its replay's CSR arrays equal the
  formula's, and the decoded replay is the decoded formula's own
  ``literals``/``offsets``, with no clause built.

A checksum is not a MAC, and the C kernels index the slot matrix without
bounds checks, so every field is validated before any object is built.
:func:`decode_round` checks exact dtypes, lengths and names per array; each
program's :meth:`~repro.engine.program.CompiledProgram.check` (operands
below their own out slot, known opcodes, input columns and output slots in
range); row maps inside the variable range and
sized like the programs that fill them; a CNF plan whose width groups,
clause offsets and literal columns agree; and input, defined and free rows
that write every variable row exactly once.  :func:`decode_transform`
checks literals inside the declared variables with no repeat within a
clause; known opcodes and gate types with the right arity; children and
fanins that point backwards; expressions that the constructors rebuild
node for node; distinct definition and input variables; circuit inputs
that are the primary inputs and nets for every record; stats that agree
with the records; and checkpoints that start at the stream's start and
only move forward within the records.  Any violation is a
:class:`~repro.store.format.StoreFormatError` — a miss, never a crash or
wrong rows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.boolalg.expr import FALSE, TRUE, And, Const, Expr, Not, Or, Var, Xor
from repro.circuit.netlist import Circuit
from repro.cnf.formula import CNF, MAX_VARIABLE, rows_csr
from repro.cnf.kernel import CNFEvalPlan
from repro.core.extraction import VAR_PREFIX, variable_name
from repro.core.transform import RoundPlan, TransformReplay, TransformResult, TransformStats
from repro.engine.program import ARRAY_DTYPES, CompiledProgram
from repro.store.format import FlatPayload, StoreFormatError, VerifiedEntry

#: Entry kinds (directory names under ``objects/``).
KIND_ROUND = "round"
KIND_TRANSFORM = "transform"

ALL_KINDS = (KIND_ROUND, KIND_TRANSFORM)

#: ``RoundPlan`` row maps and the name tuple each one is sized like.
_ROW_MAPS = {
    "input_rows": None,
    "constrained_rows": "constrained_inputs",
    "unconstrained_rows": "unconstrained_inputs",
    "free_rows": None,
    "defined_rows": "defined_nets",
}
_PROGRAMS = ("learn", "fill")
_PROGRAM_INTS = ("num_slots", "num_inputs", "input_width", "const0_slot", "const1_slot")
_PLAN_ARRAYS = {
    "literal_columns": np.intp,
    "literal_negated": np.bool_,
    "reduce_offsets": np.intp,
}

#: Expression node opcodes of the ``transform`` entry's DAG table.
OP_FALSE, OP_TRUE, OP_VAR, OP_NOT, OP_AND, OP_OR, OP_XOR = range(7)
_NARY = {OP_AND: And, OP_OR: Or, OP_XOR: Xor}
_NARY_OPS = {cls: op for op, cls in _NARY.items()}
#: Columns of a stream checkpoint the counts of which are bounded by a record
#: list (1-3) or a stats counter (4-7); see ``core.transform._Checkpoint``.
_CHECKPOINT_STATS = (
    "signature_matches",
    "generic_matches",
    "fallback_groups",
    "constant_definitions",
)


# -- encoding -----------------------------------------------------------------------------
def _join(names) -> str:
    """A name list as one JSON string, each name ended by a space.

    One long string with nothing to escape parses and checksums many times
    faster than a JSON list of thousands of short ones (a fill program
    names every defined variable).  Net names never contain whitespace
    (the BENCH format splits on it); a name that did would fail the write,
    never the read.
    """
    for name in names:
        if not name or " " in name:
            raise ValueError(f"net name {name!r} cannot be stored")
    return "".join(f"{name} " for name in names)


def encode_round(round_plan: RoundPlan, plan: CNFEvalPlan) -> FlatPayload:
    """The ``round`` entry of one artifact as fields plus named arrays."""
    fields: Dict[str, Any] = {
        "num_variables": round_plan.num_variables,
        "constrained_inputs": _join(round_plan.constrained_inputs),
        "unconstrained_inputs": _join(round_plan.unconstrained_inputs),
        "defined_nets": _join(round_plan.defined_nets),
        "plan": {
            "num_variables": plan.num_variables,
            "num_clauses": plan.num_clauses,
            "num_empty": plan.num_empty,
            "width_groups": [list(group) for group in plan.width_groups],
        },
    }
    arrays = {name: getattr(round_plan, name) for name in _ROW_MAPS}
    arrays.update({f"plan.{name}": getattr(plan, name) for name in _PLAN_ARRAYS})
    for role in _PROGRAMS:
        program = getattr(round_plan, role)
        if program is None:
            fields[role] = None
            continue
        fields[role] = {name: getattr(program, name) for name in _PROGRAM_INTS}
        fields[role]["source_name"] = program.source_name
        fields[role]["cone_inputs"] = _join(program.cone_inputs)
        if role == "learn":
            # The fill program's outputs are the defined nets, stored once.
            fields[role]["output_nets"] = _join(program.output_nets)
        for name in ARRAY_DTYPES:
            arrays[f"{role}.{name}"] = getattr(program, name)
    return FlatPayload(fields=fields, arrays=arrays)


def _variable_id(name: str) -> int:
    """``k`` of the net name ``x<k>``; ``ValueError`` for any other name."""
    digits = name[len(VAR_PREFIX):]
    if not (
        name.startswith(VAR_PREFIX) and digits.isdigit() and variable_name(int(digits)) == name
    ):
        raise ValueError(f"net {name!r} is not a variable and cannot be stored")
    return int(digits)


class _ExprTable:
    """Interns expressions into one node table, children before parents."""

    def __init__(self) -> None:
        self.index: Dict[Expr, int] = {}
        self.opcodes: List[int] = []
        self.variables: List[int] = []
        self.children: List[List[int]] = []

    def add(self, root: Expr) -> int:
        index = self.index
        stack = [root]
        while stack:
            node = stack[-1]
            if node in index:
                stack.pop()
                continue
            pending = [child for child in node.children() if child not in index]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            variable = 0
            if isinstance(node, Const):
                opcode = OP_TRUE if node.value else OP_FALSE
            elif isinstance(node, Var):
                opcode, variable = OP_VAR, _variable_id(node.name)
            elif isinstance(node, Not):
                opcode = OP_NOT
            else:
                opcode = _NARY_OPS[type(node)]
            index[node] = len(self.opcodes)
            self.opcodes.append(opcode)
            self.variables.append(variable)
            self.children.append([index[child] for child in node.children()])
        return index[root]

    def arrays(self) -> Dict[str, np.ndarray]:
        offsets, children = rows_csr(self.children, np.int32)
        return {
            "expr.opcodes": np.asarray(self.opcodes, dtype=np.uint8),
            "expr.variables": np.asarray(self.variables, dtype=np.int32),
            "expr.child_offsets": offsets,
            "expr.children": children,
        }


def _check_variables(covered: np.ndarray, num_variables: int) -> None:
    """The defined and input variables are distinct variables of the formula."""
    _check_range("defined and input variables", covered, 1, num_variables + 1)
    if _repeats(covered):
        raise ValueError("a variable is defined twice or both defined and an input")


def _derived_records(
    num_variables: int, definitions: List[Tuple[str, Expr]], covered: np.ndarray
) -> Tuple[Dict[str, bool], List[str], List[str]]:
    """``(primary outputs, intermediate variables, free variables)``.

    The records a transform derives from its definitions: the definitions
    that collapsed to a constant, the others, and every variable not in
    ``covered`` (the defined and input variables), ascending.
    """
    outputs = {net: expr.value for net, expr in definitions if isinstance(expr, Const)}
    intermediate = [net for net, _ in definitions if net not in outputs]
    free = np.ones(num_variables + 1, dtype=np.bool_)
    free[0] = False
    free[covered] = False
    return outputs, intermediate, [variable_name(v) for v in np.flatnonzero(free).tolist()]


def encode_transform(formula: CNF, transform: TransformResult) -> FlatPayload:
    """The ``transform`` entry of one artifact as fields plus named arrays.

    Raises :class:`ValueError` when the transform is not one a
    :class:`TransformResult` decodes back to exactly (say, it was not built
    from ``formula``, or carries no replay record).
    """
    replay = transform.replay
    if (
        replay is None
        or not np.array_equal(replay.literals, formula.literals)
        or not np.array_equal(replay.offsets, formula.offsets)
    ):
        raise ValueError("the transform's replay is not the formula's clause sequence")
    num_variables = formula.num_variables
    if num_variables > MAX_VARIABLE or (
        transform.num_variables,
        transform.source_name,
    ) != (num_variables, formula.name):
        raise ValueError("the transform was not built from this formula")
    for index, (net, _) in enumerate(transform.constraints):
        if net != f"__constraint_{index}":
            raise ValueError(f"constraint net {net!r} cannot be stored")
    circuit = transform.circuit
    if list(circuit.outputs) != _outputs(transform.definitions, transform.constraints) or list(
        circuit.inputs
    ) != list(transform.primary_inputs):
        raise ValueError("the circuit's inputs or outputs are not the transform's")
    inputs = np.asarray([_variable_id(net) for net in transform.primary_inputs], dtype=np.int32)
    defined = np.asarray([_variable_id(net) for net, _ in transform.definitions], dtype=np.int32)
    covered = np.concatenate((defined, inputs))
    _check_variables(covered, num_variables)
    if _derived_records(num_variables, transform.definitions, covered) != (
        transform.primary_outputs,
        transform.intermediate_variables,
        transform.free_variables,
    ):
        raise ValueError("the transform's derived records disagree with its definitions")

    table = _ExprTable()
    arrays = {
        "definitions.variables": defined,
        "definitions.roots": np.asarray(
            [table.add(expr) for _, expr in transform.definitions], dtype=np.int32
        ),
        "constraints.roots": np.asarray(
            [table.add(expr) for _, expr in transform.constraints], dtype=np.int32
        ),
        "primary_inputs": inputs,
        **table.arrays(),
    }
    arrays["formula.offsets"], arrays["formula.literals"] = formula.offsets, formula.literals

    arrays["circuit.fanin_offsets"], arrays["circuit.fanins"] = circuit.fanin_csr()
    arrays["circuit.types"] = circuit.types
    arrays["checkpoints"] = np.asarray(replay.checkpoints, dtype=np.int64).reshape(-1, 9)
    fields = {
        "formula": {
            "name": formula.name,
            "comments": list(formula.comments),
            "num_variables": num_variables,
        },
        "circuit": {
            "name": circuit.name,
            "gate_names": _join(circuit.net_names()),
            # Whether the row order is the topological order, read off the
            # table, so one transform always encodes to one entry.
            "topological": list(circuit._topological()) == list(range(len(circuit))),
        },
        "stats": dataclasses.asdict(transform.stats),
    }
    return FlatPayload(fields=fields, arrays=arrays)


# -- decoding -----------------------------------------------------------------------------
class _Reader:
    """Typed access to an entry's fields and arrays; ``ValueError`` on a mismatch."""

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        self.arrays = arrays
        self.used = set()

    @staticmethod
    def integer(fields: Dict[str, Any], key: str, minimum: int = 0) -> int:
        value = fields[key]
        if type(value) is not int or value < minimum:
            raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
        return value

    @staticmethod
    def names(fields: Dict[str, Any], key: str) -> list:
        """The names :func:`_join` wrote under ``key``."""
        value = fields[key]
        if not isinstance(value, str) or (value and not value.endswith(" ")):
            raise ValueError(f"{key} must be space-terminated names")
        return value.split(" ")[:-1]

    def array(self, key: str, dtype, length: Optional[int] = None) -> np.ndarray:
        array = self.arrays[key]
        self.used.add(key)
        if array.dtype != dtype or array.ndim != 1:
            raise ValueError(f"{key} must be a 1-D {np.dtype(dtype)} array")
        if length is not None and array.shape[0] != length:
            raise ValueError(f"{key} has {array.shape[0]} entries, expected {length}")
        return array

    def rows(self, key: str, num_variables: int, length: Optional[int]) -> np.ndarray:
        rows = self.array(key, np.intp, length)
        _check_range(key, rows, 0, num_variables)
        return rows

    def csr(
        self, offsets_key: str, values_key: str, num_rows: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, values)`` of a CSR pair whose row ``i`` only indexes
        rows before ``i`` (children and fanins point backwards)."""
        offsets = self.array(offsets_key, np.int64, num_rows + 1)
        values = self.array(values_key, np.int32)
        widths = np.diff(offsets)
        if not offsets.size or offsets[0] != 0 or offsets[-1] != values.size or np.any(widths < 0):
            raise ValueError(f"{offsets_key} are not offsets into {values_key}")
        if values.size:
            owners = np.repeat(np.arange(widths.size), widths)
            if int(values.min()) < 0 or np.any(values >= owners):
                raise ValueError(f"{values_key} must point to earlier rows")
        return offsets, values


def _repeats(values: np.ndarray) -> bool:
    """Whether some value occurs twice."""
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def _check_range(key: str, values: np.ndarray, low: int, high: int) -> None:
    """Every value of ``values`` lies in ``[low, high)``."""
    if values.size and not (low <= int(values.min()) and int(values.max()) < high):
        raise ValueError(f"{key} has a value outside [{low}, {high})")


def _program(
    reader: _Reader, role: str, fields: Any, output_nets: Optional[list] = None
) -> Optional[CompiledProgram]:
    if fields is None:
        return None
    if not isinstance(fields, dict):
        raise ValueError(f"{role} must be an object")
    source_name = fields["source_name"]
    if not isinstance(source_name, str):
        raise ValueError(f"{role}.source_name must be a string")
    program = CompiledProgram(
        source_name=source_name,
        num_slots=reader.integer(fields, "num_slots"),
        num_inputs=reader.integer(fields, "num_inputs"),
        cone_inputs=reader.names(fields, "cone_inputs"),
        input_width=reader.integer(fields, "input_width"),
        const0_slot=reader.integer(fields, "const0_slot", minimum=-1),
        const1_slot=reader.integer(fields, "const1_slot", minimum=-1),
        output_nets=reader.names(fields, "output_nets") if output_nets is None else output_nets,
        **{
            name: reader.array(f"{role}.{name}", dtype)
            for name, dtype in ARRAY_DTYPES.items()
        },
    )
    program.check()
    return program


def _cnf_plan(reader: _Reader, fields: Any, num_variables: int) -> CNFEvalPlan:
    if not isinstance(fields, dict):
        raise ValueError("plan must be an object")
    if reader.integer(fields, "num_variables") != num_variables:
        raise ValueError("the CNF plan and the round disagree on the variable count")
    num_empty = reader.integer(fields, "num_empty")
    groups = fields["width_groups"]
    if not isinstance(groups, list):
        raise ValueError("width_groups must be a list")
    stop = 0
    widths, counts = [], []
    for group in groups:
        if not (isinstance(group, list) and len(group) == 3):
            raise ValueError(f"malformed width group {group!r}")
        group_fields = dict(zip(("start", "stop", "width"), group))
        start = reader.integer(group_fields, "start")
        group_stop = reader.integer(group_fields, "stop", minimum=start + 1)
        width = reader.integer(group_fields, "width", minimum=(widths[-1] if widths else 0) + 1)
        if start != stop:
            raise ValueError("width groups are not contiguous")
        stop = group_stop
        widths.append(width)
        counts.append(group_stop - start)
    offsets = reader.array("plan.reduce_offsets", np.intp, stop)
    clause_widths = np.repeat(np.asarray(widths, dtype=np.intp), counts)
    ends = np.cumsum(clause_widths)
    if not np.array_equal(offsets, ends - clause_widths):
        raise ValueError("clause offsets disagree with the width groups")
    num_literals = int(ends[-1]) if ends.size else 0
    columns = reader.rows("plan.literal_columns", num_variables, num_literals)
    negated = reader.array("plan.literal_negated", np.bool_, num_literals)
    if negated.size and int(negated.view(np.uint8).max()) > 1:
        raise ValueError("literal signs are not booleans")
    if reader.integer(fields, "num_clauses") != stop + num_empty:
        raise ValueError("clause count disagrees with the width groups")
    return CNFEvalPlan(
        num_variables=num_variables,
        num_clauses=stop + num_empty,
        literal_columns=columns,
        literal_negated=negated,
        reduce_offsets=offsets,
        width_groups=tuple(tuple(group) for group in groups),
        num_empty=num_empty,
    )


def _check_rows(rows: Dict[str, np.ndarray], num_variables: int) -> None:
    """The row maps write each variable exactly once, as a transform does.

    Input, defined and free rows partition the variable rows, and the
    constrained and unconstrained rows split the input rows.
    """
    written = np.concatenate((rows["input_rows"], rows["defined_rows"], rows["free_rows"]))
    if not np.array_equal(np.bincount(written, minlength=num_variables), np.ones(num_variables)):
        raise ValueError("the row maps do not write every variable row exactly once")
    split = np.concatenate((rows["constrained_rows"], rows["unconstrained_rows"]))
    if not np.array_equal(np.sort(split), np.sort(rows["input_rows"])):
        raise ValueError("input rows are not the constrained plus unconstrained rows")


def _round(payload: FlatPayload) -> Tuple[RoundPlan, CNFEvalPlan]:
    fields, reader = payload.fields, _Reader(payload.arrays)
    if not isinstance(fields, dict):
        raise ValueError("fields must be an object")
    num_variables = reader.integer(fields, "num_variables")
    names = {
        key: tuple(reader.names(fields, key))
        for key in ("constrained_inputs", "unconstrained_inputs", "defined_nets")
    }
    rows = {
        key: reader.rows(key, num_variables, None if sized is None else len(names[sized]))
        for key, sized in _ROW_MAPS.items()
    }
    plan = _cnf_plan(reader, fields["plan"], num_variables)
    _check_rows(rows, num_variables)
    learn = _program(reader, "learn", fields["learn"])
    fill = _program(reader, "fill", fields["fill"], list(names["defined_nets"]))
    if (learn.input_width if learn else 0) != len(rows["constrained_rows"]):
        raise ValueError("the learn program's width differs from the constrained rows")
    if fill is None:
        if len(rows["defined_rows"]):
            raise ValueError("defined rows without a fill program")
    elif fill.input_width != len(rows["input_rows"]) or len(fill.output_slots) != len(
        rows["defined_rows"]
    ):
        raise ValueError("the fill program does not match the input and defined rows")
    if reader.used != set(payload.arrays):
        raise ValueError(f"unexpected arrays {sorted(set(payload.arrays) - reader.used)}")
    return RoundPlan(num_variables=num_variables, learn=learn, fill=fill, **names, **rows), plan


def _formula(reader: _Reader, fields: Any) -> CNF:
    if not isinstance(fields, dict):
        raise ValueError("formula must be an object")
    num_variables = reader.integer(fields, "num_variables")
    name, comments = fields["name"], fields["comments"]
    if num_variables > MAX_VARIABLE or not isinstance(name, str):
        raise ValueError("malformed formula fields")
    if not (isinstance(comments, list) and all(isinstance(line, str) for line in comments)):
        raise ValueError("formula comments must be strings")
    literals = reader.array("formula.literals", np.int32)
    offsets = reader.array("formula.offsets", np.int64)
    formula = CNF.from_csr(literals, offsets, num_variables, comments, name)
    if formula.num_variables != num_variables:
        raise ValueError("formula.literals reach beyond the declared variables")
    if formula.literals.size != literals.size:
        raise ValueError("a clause repeats a literal")
    return formula


def _expressions(reader: _Reader, num_variables: int) -> List[Expr]:
    """The DAG node table, rebuilt node by node through the constructors."""
    opcodes = reader.array("expr.opcodes", np.uint8)
    count = opcodes.size
    variables = reader.array("expr.variables", np.int32, count)
    offsets, children = reader.csr("expr.child_offsets", "expr.children", count)
    arity = np.diff(offsets)
    is_var = opcodes == OP_VAR
    if (
        np.any(opcodes > OP_XOR)
        or np.any(arity[opcodes <= OP_VAR] != 0)
        or np.any(arity[opcodes == OP_NOT] != 1)
        or np.any(arity[opcodes > OP_NOT] < 2)
    ):
        raise ValueError("an expression node has an unknown opcode or a wrong arity")
    if np.any(variables[~is_var] != 0):
        raise ValueError("only variable nodes carry a variable")
    _check_range("expr.variables", variables[is_var], 1, num_variables + 1)
    # Leaves first, then each operator over its (earlier) operands, in order.
    nodes: List[Expr] = [TRUE] * count
    for index, variable in zip(np.flatnonzero(is_var).tolist(), variables[is_var].tolist()):
        nodes[index] = Var(variable_name(variable))
    for index in np.flatnonzero(opcodes == OP_FALSE).tolist():
        nodes[index] = FALSE
    inner = np.flatnonzero(opcodes > OP_VAR)
    node_at, children = nodes.__getitem__, children.tolist()
    starts, stops = offsets[inner].tolist(), offsets[inner + 1].tolist()
    for index, opcode, start, stop in zip(inner.tolist(), opcodes[inner].tolist(), starts, stops):
        if opcode == OP_NOT:
            node = Not(nodes[children[start]])
            canonical = type(node) is Not
        else:
            cls = _NARY[opcode]
            operands = tuple(map(node_at, children[start:stop]))
            node = cls(*operands)
            canonical = type(node) is cls and node.operands == operands
        if not canonical:
            raise ValueError(f"expression node {index} is not in constructor form")
        nodes[index] = node
    return nodes


def _circuit(reader: _Reader, fields: Any, outputs: List[str]) -> Circuit:
    """The netlist, its inputs being its ``INPUT`` gates in order
    (:meth:`Circuit.from_table <repro.circuit.netlist.Circuit.from_table>`
    checks the table)."""
    if not isinstance(fields, dict):
        raise ValueError("circuit must be an object")
    name, topological = fields["name"], fields["topological"]
    if not isinstance(name, str) or not isinstance(topological, bool):
        raise ValueError("malformed circuit fields")
    names = reader.names(fields, "gate_names")
    return Circuit.from_table(
        name,
        names,
        reader.array("circuit.types", np.uint8, len(names)),
        reader.array("circuit.fanin_offsets", np.int64, len(names) + 1),
        reader.array("circuit.fanins", np.int32),
        outputs,
        topological,
    )


def _outputs(definitions: List[Tuple[str, Expr]], constraints: List[Tuple[str, Expr]]) -> List[str]:
    """The circuit's outputs: the constraint nets, then (to keep them alive
    through optimization) the definition nets when there are constraints."""
    nets = [net for net, _ in constraints]
    if constraints:
        nets += [net for net, _ in definitions]
    return nets


def _stats(fields: Any) -> TransformStats:
    if not isinstance(fields, dict) or set(fields) != {
        field.name for field in dataclasses.fields(TransformStats)
    }:
        raise ValueError("stats must hold exactly the TransformStats fields")
    stages = fields["stage_seconds"]
    if not (
        type(fields["seconds"]) is float
        and isinstance(stages, dict)
        and all(type(seconds) is float for seconds in stages.values())
    ):
        raise ValueError("stats seconds must be floats")
    counts = {
        key: _Reader.integer(fields, key)
        for key in fields
        if key not in ("seconds", "stage_seconds")
    }
    return TransformStats(seconds=fields["seconds"], stage_seconds=dict(stages), **counts)


def _checkpoints(reader: _Reader, limits: List[int]) -> Tuple[Tuple[Any, ...], ...]:
    """The stream checkpoints: from the stream's start (position 0, nothing
    recorded), positions strictly increasing, counts never decreasing and
    never past ``limits`` (clauses, records and stats counters)."""
    table = reader.arrays["checkpoints"]
    reader.used.add("checkpoints")
    if table.dtype != np.int64 or table.ndim != 2 or table.shape[1] != 9 or not table.shape[0]:
        raise ValueError("checkpoints must be an (N, 9) int64 table, N > 0")
    steps = np.diff(table[:, :8], axis=0)
    if (
        np.any(table[0] != (0,) * 8 + (1,))
        or np.any(steps[:, 0] <= 0)
        or np.any(steps[:, 1:] < 0)
        or np.any(table[-1, :8] > np.asarray(limits))
        or np.any((table[:, 8] != 0) & (table[:, 8] != 1))
    ):
        raise ValueError("checkpoints do not move forward within the records")
    return tuple(zip(*table[:, :8].T.tolist(), table[:, 8].astype(bool).tolist()))


def _transform(payload: FlatPayload) -> Tuple[CNF, TransformResult]:
    fields, reader = payload.fields, _Reader(payload.arrays)
    if not isinstance(fields, dict):
        raise ValueError("fields must be an object")
    formula = _formula(reader, fields["formula"])
    num_variables = formula.num_variables
    nodes = _expressions(reader, num_variables)
    roots = {
        key: reader.array(key, np.int32)
        for key in ("definitions.roots", "constraints.roots")
    }
    for key, indices in roots.items():
        _check_range(key, indices, 0, len(nodes))
    defined = reader.array("definitions.variables", np.int32, roots["definitions.roots"].size)
    inputs = reader.array("primary_inputs", np.int32)
    variables = np.concatenate((defined, inputs))
    _check_variables(variables, num_variables)
    node_at = nodes.__getitem__
    definitions = list(
        zip(map(variable_name, defined.tolist()), map(node_at, roots["definitions.roots"].tolist()))
    )
    constraints = [
        (f"__constraint_{index}", node)
        for index, node in enumerate(map(node_at, roots["constraints.roots"].tolist()))
    ]
    primary_inputs = list(map(variable_name, inputs.tolist()))
    primary_outputs, intermediate, free = _derived_records(num_variables, definitions, variables)
    stats = _stats(fields["stats"])
    if (
        stats.num_clauses != formula.num_clauses
        or stats.num_definitions != len(definitions)
        or stats.signature_matches + stats.generic_matches != len(definitions)
        or stats.fallback_groups != len(constraints)
        or stats.constant_definitions != len(primary_outputs)
    ):
        raise ValueError("the stats disagree with the records")
    checkpoints = _checkpoints(
        reader,
        [
            formula.num_clauses,
            len(definitions),
            len(primary_inputs),
            len(constraints),
            *(getattr(stats, name) for name in _CHECKPOINT_STATS),
        ],
    )
    circuit = _circuit(reader, fields["circuit"], _outputs(definitions, constraints))
    if list(circuit.inputs) != primary_inputs:
        raise ValueError("the circuit's inputs are not the primary inputs")
    if not all(circuit.has_net(net) for net, _ in definitions):
        raise ValueError("a definition has no net in the circuit")
    if reader.used != set(payload.arrays):
        raise ValueError(f"unexpected arrays {sorted(set(payload.arrays) - reader.used)}")
    transform = TransformResult(
        source_name=formula.name,
        num_variables=num_variables,
        definitions=definitions,
        primary_inputs=primary_inputs,
        intermediate_variables=intermediate,
        primary_outputs=primary_outputs,
        constraints=constraints,
        circuit=circuit,
        free_variables=free,
        stats=stats,
        replay=TransformReplay(formula.literals, formula.offsets, checkpoints),
    )
    return formula, transform


def _decoded(entry: VerifiedEntry, build):
    """``build(payload)``, with every malformation a :class:`StoreFormatError`."""
    try:
        return build(entry.decode())
    except StoreFormatError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise StoreFormatError(f"invalid {entry.kind} entry: {error}") from error


def decode_round(entry: VerifiedEntry) -> Tuple[RoundPlan, CNFEvalPlan]:
    """The ``(RoundPlan, CNFEvalPlan)`` of a verified ``round`` entry."""
    return _decoded(entry, _round)


def decode_transform(entry: VerifiedEntry) -> Tuple[CNF, TransformResult]:
    """The ``(formula, TransformResult)`` of a verified ``transform`` entry."""
    return _decoded(entry, _transform)


_DECODERS = {KIND_ROUND: decode_round, KIND_TRANSFORM: decode_transform}


def decode(entry: VerifiedEntry) -> Any:
    """Decode a verified entry by its kind's schema (the store's read path).

    An entry of a kind without a schema decodes to its bare
    :class:`~repro.store.format.FlatPayload`.
    """
    decoder = _DECODERS.get(entry.kind)
    return entry.decode() if decoder is None else decoder(entry)
