"""Per-kind entry schemas: what each store entry holds and how it is checked.

The store keeps two entry kinds under one formula signature:

* ``round`` — the hot entry, written in the container's pickle-free
  ``"arrays"`` layout (:mod:`repro.store.format`).  It holds the
  transform's :class:`~repro.core.transform.RoundPlan` — its row maps, its
  ``learn`` and ``fill`` :class:`~repro.engine.program.CompiledProgram` s —
  and the formula's :class:`~repro.cnf.kernel.CNFEvalPlan`.  Scalars and
  names sit in the header's JSON ``fields``; every array is a named blob
  (``input_rows``, ``learn.opcodes``, ``plan.literal_columns``, ...) read
  back as a zero-copy view.
* ``transform`` — the formula and its
  :class:`~repro.core.transform.TransformResult`, still pickled (circuits
  and expression trees are object graphs), decoded only on demand.

A checksum is not a MAC, and the C kernels index the slot matrix without
bounds checks, so :func:`decode_round` validates every field of a round
entry before anything can execute it: exact dtypes, lengths and names per
array; each program's :meth:`~repro.engine.program.CompiledProgram.check`
(operands below their own out slot, known opcodes, a consistent block
table, input columns and output slots in range); row maps inside the
variable range and sized like the programs that fill them; and a CNF plan
whose width groups, clause offsets and literal columns agree; and input,
defined and free rows that write every variable row exactly once.  Any
violation is a :class:`~repro.store.format.StoreFormatError` — a miss, never
a crash or wrong rows.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.cnf.kernel import CNFEvalPlan
from repro.core.transform import RoundPlan
from repro.engine.program import ARRAY_DTYPES, CompiledProgram
from repro.store.format import LAYOUT_ARRAYS, FlatPayload, StoreFormatError, VerifiedEntry

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
        if rows.size and not (0 <= int(rows.min()) and int(rows.max()) < num_variables):
            raise ValueError(f"{key} indexes a row outside [0, {num_variables})")
        return rows


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


def decode_round(entry: VerifiedEntry) -> Tuple[RoundPlan, CNFEvalPlan]:
    """The ``(RoundPlan, CNFEvalPlan)`` of a verified ``round`` entry.

    Never unpickles: an entry in any layout other than ``"arrays"`` is
    rejected before its payload is touched.
    """
    if entry.layout != LAYOUT_ARRAYS:
        raise StoreFormatError(f"round entry in the {entry.layout!r} layout")
    try:
        return _round(entry.decode())
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, StoreFormatError):
            raise
        raise StoreFormatError(f"invalid round entry: {error}") from error


def decode(entry: VerifiedEntry) -> Any:
    """Decode a verified entry by its kind's schema (the store's read path)."""
    if entry.kind == KIND_ROUND:
        return decode_round(entry)
    return entry.decode()
