"""The multi-level, multi-output circuit (netlist) data structure.

A :class:`Circuit` is a gate table.  Row ``i`` is one net: its name, its
``uint8`` gate type code (index into :data:`~repro.circuit.gates.GATE_TYPES`)
and its fanins, the indices of earlier rows.  Rows are only ever appended and
a gate can only read nets defined before it, so the table is acyclic by
construction and its row order is a topological order.  Primary inputs are
``INPUT`` rows, in declaration order; any net can be marked as a primary
output.

The transformation algorithm (:mod:`repro.core.transform`) produces one of
these from a CNF: the builder appends rows, the optimizer walks the integer
table, and the engine compiler lowers it.  Readers that walk names — the CLI
report, the Verilog and ``.bench`` writers, :meth:`Circuit.evaluate`, the
probabilistic model and the Tseitin encoder — see
:class:`~repro.circuit.gates.Gate` records, which are views built on demand
by :meth:`Circuit.gate`, :attr:`Circuit.gates` and iteration.  The array form
of the table (:attr:`Circuit.types`, :meth:`Circuit.fanin_csr`,
:meth:`Circuit.from_table`) is what the artifact store persists.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.circuit.gates import GATE_CODES, GATE_TYPES, Gate, GateType
from repro.cnf.formula import rows_csr

_INPUT = GATE_CODES[GateType.INPUT]
_CONST0 = GATE_CODES[GateType.CONST0]
_CONST1 = GATE_CODES[GateType.CONST1]
_BUF = GATE_CODES[GateType.BUF]
_NOT = GATE_CODES[GateType.NOT]


class CircuitError(ValueError):
    """Raised on malformed circuit operations (unknown nets, redefinitions)."""


class Circuit:
    """A combinational netlist: an append-only table of gates over named nets."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._names: List[str] = []
        self._index: Dict[str, int] = {}  # net name -> row
        self._types = bytearray()  # one gate type code per row
        self._fanins: List[Tuple[int, ...]] = []  # earlier rows each row reads
        self._inputs: List[int] = []
        self._outputs: List[int] = []
        self._output_set: Set[int] = set()  # mirrors _outputs for O(1) membership
        self._topo: Optional[Sequence[int]] = None  # rows in topological order
        self._engine_cache: Dict[object, object] = {}

    # -- construction ----------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        self._define(name, _INPUT, ())
        return name

    def add_gate(self, name: str, gate_type: GateType, fanins: Sequence[str]) -> str:
        """Add a gate driving net ``name`` from already-defined fanin nets."""
        if gate_type == GateType.INPUT:
            raise CircuitError("use add_input to declare primary inputs")
        rows = []
        for fanin in fanins:
            row = self._index.get(fanin)
            if row is None:
                raise CircuitError(f"gate {name!r} references undefined net {fanin!r}")
            rows.append(row)
        Gate(name, gate_type, tuple(fanins))  # the arity check
        self._define(name, GATE_CODES[gate_type], tuple(rows))
        return name

    def add_constant(self, name: str, value: bool) -> str:
        """Add a constant driver net."""
        self._define(name, _CONST1 if value else _CONST0, ())
        return name

    def set_output(self, name: str) -> None:
        """Mark an existing net as a primary output."""
        row = self._index.get(name)
        if row is None:
            raise CircuitError(f"cannot mark unknown net {name!r} as output")
        self._mark_output(row)

    def _mark_output(self, row: int) -> None:
        if row not in self._output_set:
            self._output_set.add(row)
            self._outputs.append(row)

    def _define(self, name: str, code: int, fanins: Tuple[int, ...]) -> int:
        if name in self._index:
            raise CircuitError(f"net {name!r} is already defined")
        return self._append(name, code, fanins)

    def _append(self, name: str, code: int, fanins: Tuple[int, ...]) -> int:
        """Append one row whose name is new and whose fanins are earlier rows."""
        row = len(self._names)
        self._names.append(name)
        self._index[name] = row
        self._types.append(code)
        self._fanins.append(fanins)
        if code == _INPUT:
            self._inputs.append(row)
        self._topo = None
        if self._engine_cache:
            self._engine_cache.clear()
        return row

    @classmethod
    def _from_rows(
        cls,
        name: str,
        names: List[str],
        types: bytearray,
        fanins: List[Tuple[int, ...]],
        outputs: Iterable[int],
        topological: bool,
    ) -> "Circuit":
        """Adopt already-valid table columns (the optimizer's and the store's path)."""
        circuit = cls(name)
        circuit._names = names
        circuit._index = dict(zip(names, range(len(names))))
        circuit._types = types
        circuit._fanins = fanins
        circuit._inputs = [row for row, code in enumerate(types) if code == _INPUT]
        for row in outputs:
            circuit._mark_output(row)
        if topological:
            circuit._topo = range(len(names))
        return circuit

    @classmethod
    def from_table(
        cls,
        name: str,
        names: Sequence[str],
        types: np.ndarray,
        fanin_offsets: np.ndarray,
        fanins: np.ndarray,
        outputs: Iterable[str] = (),
        topological: bool = False,
    ) -> "Circuit":
        """Build a circuit from its gate table, the inverse of :attr:`types`
        and :meth:`fanin_csr`.

        Raises :class:`CircuitError` unless the names are distinct, every
        type code is known, every row's fanin count fits its type, every
        fanin points to an earlier row and every output names a net.
        ``topological`` installs the row order as :meth:`topological_order`
        (the order the optimizer emits its result in).
        """
        names = list(names)
        count = len(names)
        types = np.asarray(types)
        offsets = np.asarray(fanin_offsets)
        fanins = np.asarray(fanins)
        if len(set(names)) != count:
            raise CircuitError("gate names repeat")
        if types.shape != (count,) or offsets.shape != (count + 1,) or fanins.ndim != 1:
            raise CircuitError("the gate table's columns disagree in length")
        arity = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != fanins.size or np.any(arity < 0):
            raise CircuitError("fanin_offsets are not offsets into fanins")
        source = types <= _CONST1
        unary = (types == _BUF) | (types == _NOT)
        if (
            np.any((types < 0) | (types >= len(GATE_TYPES)))
            or np.any(arity[source] != 0)
            or np.any(arity[unary] != 1)
            or np.any(arity[~(source | unary)] < 2)
        ):
            raise CircuitError("a gate has an unknown type or a wrong arity")
        if fanins.size:
            readers = np.repeat(np.arange(count), arity)
            if int(fanins.min()) < 0 or np.any(fanins >= readers):
                raise CircuitError("a gate reads a net that is not defined before it")
        flat = fanins.tolist()
        bounds = offsets.tolist()
        rows = [tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])]
        circuit = cls._from_rows(
            name, names, bytearray(types.astype(np.uint8).tobytes()), rows, (), topological
        )
        for output in outputs:
            circuit.set_output(output)
        return circuit

    def engine_cache(self) -> Dict[object, object]:
        """Per-netlist memo for compiled engine programs.

        Owned by :func:`repro.engine.compiler.compiled_program_for`; cleared
        automatically whenever a net is added so cached programs can never go
        stale.
        """
        return self._engine_cache

    # -- the table -------------------------------------------------------------------
    @property
    def types(self) -> np.ndarray:
        """The gate type codes, one ``uint8`` per row (a read-only copy)."""
        return np.frombuffer(bytes(self._types), dtype=np.uint8)

    def fanin_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(int64 offsets, int32 fanins)``: row ``i`` reads the rows
        ``fanins[offsets[i]:offsets[i + 1]]``, all of them below ``i``."""
        return rows_csr(self._fanins, np.int32)

    def _rows_of(self, nets: Iterable[str]) -> List[int]:
        index = self._index
        rows = []
        for net in nets:
            row = index.get(net)
            if row is None:
                raise CircuitError(f"unknown net {net!r}")
            rows.append(row)
        return rows

    # -- accessors ---------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary-input net names in declaration order."""
        names = self._names
        return tuple([names[row] for row in self._inputs])

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary-output net names in declaration order."""
        names = self._names
        return tuple([names[row] for row in self._outputs])

    def _view(self, row: int) -> Gate:
        names = self._names
        return Gate.unchecked(
            names[row], GATE_TYPES[self._types[row]], tuple([names[f] for f in self._fanins[row]])
        )

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """All gates in definition order (views built on each call)."""
        return tuple(map(self._view, range(len(self._names))))

    def gate(self, name: str) -> Gate:
        """Return (a view of) the gate driving net ``name``."""
        row = self._index.get(name)
        if row is None:
            raise CircuitError(f"unknown net {name!r}")
        return self._view(row)

    def has_net(self, name: str) -> bool:
        """Whether a net with this name exists."""
        return name in self._index

    def net_names(self) -> Tuple[str, ...]:
        """All net names in definition order."""
        return tuple(self._names)

    @property
    def num_gates(self) -> int:
        """Number of non-source gates (logic gates, including buffers and inverters)."""
        types = self._types
        return len(types) - types.count(_INPUT) - types.count(_CONST0) - types.count(_CONST1)

    @property
    def num_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self._outputs)

    # -- structure -----------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Return net names in topological order (fanins before fanouts).

        The order is a last-in-first-out Kahn sort of the table, which the
        engine compiler schedules its ops in; a circuit the optimizer
        emitted (or the store decoded as such) has its row order installed
        as this order instead.
        """
        names = self._names
        return [names[row] for row in self._topological()]

    def _topological(self) -> Sequence[int]:
        """Rows in :meth:`topological_order` (memoised; do not mutate)."""
        if self._topo is None:
            fanins = self._fanins
            in_degree = list(map(len, fanins))
            consumers: List[List[int]] = [[] for _ in fanins]
            ready: List[int] = []
            for row, row_fanins in enumerate(fanins):
                if not row_fanins:
                    ready.append(row)
                for fanin in row_fanins:
                    consumers[fanin].append(row)
            order: List[int] = []
            ready_append, order_append = ready.append, order.append
            while ready:
                current = ready.pop()
                order_append(current)
                for consumer in consumers[current]:
                    remaining = in_degree[consumer] - 1
                    in_degree[consumer] = remaining
                    if remaining == 0:
                        ready_append(consumer)
            self._topo = order
        return self._topo

    def _cone(self, rows: Iterable[int]) -> bytearray:
        """A 0/1 mark per row: the transitive fanin of ``rows`` (inclusive)."""
        mark = bytearray(len(self._names))
        fanins = self._fanins
        stack = list(rows)
        while stack:
            row = stack.pop()
            if not mark[row]:
                mark[row] = 1
                stack.extend(fanins[row])
        return mark

    def transitive_fanin(self, nets: Iterable[str]) -> Set[str]:
        """Return all nets in the transitive fanin cone of ``nets`` (inclusive)."""
        mark = self._cone(self._rows_of(nets))
        names = self._names
        return {names[row] for row, marked in enumerate(mark) if marked}

    def depth(self) -> int:
        """Logic depth: longest input-to-output path counted in logic gates."""
        types, fanins = self._types, self._fanins
        level = [0] * len(types)
        for row in self._topological():
            code = types[row]
            if code > _CONST1:
                increment = 0 if code == _BUF else 1
                level[row] = increment + max(level[f] for f in fanins[row])
        return max(level, default=0)

    # -- evaluation -----------------------------------------------------------------------
    def evaluate(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate the circuit on a single input vector; returns values of every net."""
        values: Dict[str, bool] = {}
        for row in self._topological():
            gate = self._view(row)
            values[gate.name] = _evaluate_gate(gate, values, input_values)
        return values

    def evaluate_outputs(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate and return only the primary-output values."""
        values = self.evaluate(input_values)
        return {name: values[name] for name in self.outputs}

    # -- protocol -----------------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, gates={self.num_gates})"
        )


def _evaluate_gate(
    gate: Gate, values: Dict[str, bool], input_values: Dict[str, bool]
) -> bool:
    """Evaluate a single gate given already-computed fanin values."""
    if gate.gate_type == GateType.INPUT:
        try:
            return bool(input_values[gate.name])
        except KeyError as exc:
            raise CircuitError(f"missing value for primary input {gate.name!r}") from exc
    if gate.gate_type == GateType.CONST0:
        return False
    if gate.gate_type == GateType.CONST1:
        return True
    fanin_values = [values[f] for f in gate.fanins]
    if gate.gate_type == GateType.BUF:
        return fanin_values[0]
    if gate.gate_type == GateType.NOT:
        return not fanin_values[0]
    if gate.gate_type == GateType.AND:
        return all(fanin_values)
    if gate.gate_type == GateType.NAND:
        return not all(fanin_values)
    if gate.gate_type == GateType.OR:
        return any(fanin_values)
    if gate.gate_type == GateType.NOR:
        return not any(fanin_values)
    if gate.gate_type == GateType.XOR:
        result = False
        for value in fanin_values:
            result ^= value
        return result
    if gate.gate_type == GateType.XNOR:
        result = False
        for value in fanin_values:
            result ^= value
        return not result
    raise CircuitError(f"unsupported gate type {gate.gate_type}")
