"""The multi-level, multi-output circuit (netlist) data structure.

A :class:`Circuit` is a DAG of named gates.  Primary inputs are ``INPUT``
gates; any net can be marked as a primary output.  The transformation
algorithm (:mod:`repro.core.transform`) produces one of these from a CNF, and
the probabilistic sampler model (:mod:`repro.core.model`) walks it in
topological order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuit.gates import Gate, GateType


class CircuitError(ValueError):
    """Raised on malformed circuit operations (cycles, unknown nets, redefinitions)."""


class Circuit:
    """A combinational netlist: a DAG of gates over named nets."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._gates: Dict[str, Gate] = {}
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._output_set: set = set()        # mirrors _outputs for O(1) membership
        self._order: List[str] = []          # insertion order of gate definitions
        self._num_logic_gates = 0            # running count of non-source gates
        self._topo_cache: Optional[List[str]] = None
        self._engine_cache: Dict[object, object] = {}

    # -- construction ----------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        self._define(Gate(name, GateType.INPUT))
        self._inputs.append(name)
        return name

    def add_gate(self, name: str, gate_type: GateType, fanins: Sequence[str]) -> str:
        """Add a gate driving net ``name`` from already-defined fanin nets."""
        if gate_type == GateType.INPUT:
            raise CircuitError("use add_input to declare primary inputs")
        for fanin in fanins:
            if fanin not in self._gates:
                raise CircuitError(
                    f"gate {name!r} references undefined net {fanin!r}"
                )
        self._define(Gate(name, gate_type, tuple(fanins)))
        return name

    def add_constant(self, name: str, value: bool) -> str:
        """Add a constant driver net."""
        self._define(Gate(name, GateType.CONST1 if value else GateType.CONST0))
        return name

    def set_output(self, name: str) -> None:
        """Mark an existing net as a primary output."""
        if name not in self._gates:
            raise CircuitError(f"cannot mark unknown net {name!r} as output")
        if name not in self._output_set:
            self._output_set.add(name)
            self._outputs.append(name)

    def _define(self, gate: Gate) -> None:
        if gate.name in self._gates:
            raise CircuitError(f"net {gate.name!r} is already defined")
        self._gates[gate.name] = gate
        self._order.append(gate.name)
        if not gate.gate_type.is_source:
            self._num_logic_gates += 1
        self._topo_cache = None
        self._engine_cache.clear()

    def _define_unchecked(self, gate: Gate, is_input: bool = False) -> None:
        """Append a gate from an already-validated source (rebuild paths).

        Skips the duplicate-name check and per-call cache invalidation; the
        caller guarantees unique names and a freshly constructed circuit.
        """
        self._gates[gate.name] = gate
        self._order.append(gate.name)
        if is_input:
            self._inputs.append(gate.name)
        elif gate.fanins:
            self._num_logic_gates += 1
        elif not gate.gate_type.is_source:
            self._num_logic_gates += 1

    def engine_cache(self) -> Dict[object, object]:
        """Per-netlist memo for compiled engine programs.

        Owned by :func:`repro.engine.compiler.compiled_program_for`; cleared
        automatically whenever the netlist is mutated so cached programs can
        never go stale.
        """
        return self._engine_cache

    def __getstate__(self):
        # Compiled programs are serialised separately (repro.store keeps a
        # round's programs in its own entry and re-adopts them on decode); a
        # pickled netlist travels without its memo so the cache is never
        # embedded twice and a restored circuit starts consistent with a
        # freshly built one.
        state = dict(self.__dict__)
        state["_engine_cache"] = {}
        return state

    # -- accessors ---------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary-input net names in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary-output net names in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """All gates in definition order."""
        return tuple(self._gates[name] for name in self._order)

    def gate(self, name: str) -> Gate:
        """Return the gate driving net ``name``."""
        try:
            return self._gates[name]
        except KeyError as exc:
            raise CircuitError(f"unknown net {name!r}") from exc

    def has_net(self, name: str) -> bool:
        """Whether a net with this name exists."""
        return name in self._gates

    def net_names(self) -> Tuple[str, ...]:
        """All net names in definition order."""
        return tuple(self._order)

    @property
    def num_gates(self) -> int:
        """Number of non-source gates (logic gates, including buffers and inverters)."""
        return self._num_logic_gates

    @property
    def num_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self._outputs)

    def fanouts(self) -> Dict[str, List[str]]:
        """Map each net to the list of gate names that consume it."""
        result: Dict[str, List[str]] = {name: [] for name in self._order}
        for gate in self._gates.values():
            for fanin in gate.fanins:
                result[fanin].append(gate.name)
        return result

    # -- structure -----------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Return net names in topological order (fanins before fanouts).

        Raises :class:`CircuitError` if the netlist contains a combinational
        cycle (which the transformation algorithm must never produce).
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        gates = self._gates
        in_degree: Dict[str, int] = {}
        consumers: Dict[str, List[str]] = {}
        ready: List[str] = []
        for name in self._order:
            fanins = gates[name].fanins
            in_degree[name] = len(fanins)
            if not fanins:
                ready.append(name)
            for fanin in fanins:
                existing = consumers.get(fanin)
                if existing is None:
                    consumers[fanin] = [name]
                else:
                    existing.append(name)
        order: List[str] = []
        empty: List[str] = []
        consumers_get = consumers.get
        ready_append = ready.append
        order_append = order.append
        while ready:
            current = ready.pop()
            order_append(current)
            for consumer in consumers_get(current, empty):
                remaining = in_degree[consumer] - 1
                in_degree[consumer] = remaining
                if remaining == 0:
                    ready_append(consumer)
        if len(order) != len(self._order):
            raise CircuitError("circuit contains a combinational cycle")
        self._topo_cache = order
        return list(order)

    def transitive_fanin(self, nets: Iterable[str]) -> Set[str]:
        """Return all nets in the transitive fanin cone of ``nets`` (inclusive)."""
        seen: Set[str] = set()
        stack = list(nets)
        gates = self._gates
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            try:
                gate = gates[current]
            except KeyError as exc:
                raise CircuitError(f"unknown net {current!r}") from exc
            stack.extend(gate.fanins)
        return seen

    def depth(self) -> int:
        """Logic depth: longest input-to-output path counted in logic gates."""
        level: Dict[str, int] = {}
        for name in self.topological_order():
            gate = self._gates[name]
            if gate.gate_type.is_source:
                level[name] = 0
            else:
                increment = 0 if gate.gate_type == GateType.BUF else 1
                level[name] = increment + max(level[f] for f in gate.fanins)
        if not level:
            return 0
        return max(level.values())

    # -- evaluation -----------------------------------------------------------------------
    def evaluate(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate the circuit on a single input vector; returns values of every net."""
        values: Dict[str, bool] = {}
        for name in self.topological_order():
            gate = self._gates[name]
            values[name] = _evaluate_gate(gate, values, input_values)
        return values

    def evaluate_outputs(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate and return only the primary-output values."""
        values = self.evaluate(input_values)
        return {name: values[name] for name in self._outputs}

    # -- editing ---------------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Return a deep copy (gate records are immutable and therefore shared)."""
        duplicate = Circuit(name or self.name)
        duplicate._gates = dict(self._gates)
        duplicate._inputs = list(self._inputs)
        duplicate._outputs = list(self._outputs)
        duplicate._output_set = set(self._output_set)
        duplicate._order = list(self._order)
        duplicate._num_logic_gates = self._num_logic_gates
        return duplicate  # fresh engine cache: the copy may be mutated freely

    def replace_gate(self, name: str, gate_type: GateType, fanins: Sequence[str]) -> None:
        """Redefine the function driving an existing net (used by the optimizer)."""
        if name not in self._gates:
            raise CircuitError(f"unknown net {name!r}")
        if name in self._inputs:
            raise CircuitError(f"cannot redefine primary input {name!r}")
        was_logic = not self._gates[name].gate_type.is_source
        self._gates[name] = Gate(name, gate_type, tuple(fanins))
        self._num_logic_gates += int(not gate_type.is_source) - int(was_logic)
        self._topo_cache = None
        self._engine_cache.clear()

    # -- protocol -----------------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._gates)

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
