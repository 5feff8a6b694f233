"""Circuit statistics: gate counts, 2-input gate equivalents, depth.

The ops-reduction ablation (Fig. 4, middle) reports the number of bit-wise
operations in the CNF divided by the number of operations in the recovered
multi-level, multi-output function, both measured in *2-input gate
equivalents*.  :func:`two_input_gate_equivalents` provides the circuit-side
number; :meth:`repro.cnf.formula.CNF.two_input_operation_count` the CNF side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.circuit.gates import GATE_CODES, GateType
from repro.circuit.netlist import Circuit

_NOT = GATE_CODES[GateType.NOT]
_INVERTED_CODES = frozenset(
    GATE_CODES[gate_type] for gate_type in (GateType.NAND, GateType.NOR, GateType.XNOR)
)


@dataclass(frozen=True)
class CircuitStats:
    """Summary statistics of a circuit."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_nets: int
    depth: int
    two_input_equivalents: int
    gate_type_counts: Dict[str, int]

    def as_dict(self) -> Dict[str, object]:
        """Return the statistics as a plain dictionary (for report rendering)."""
        return {
            "name": self.name,
            "num_inputs": self.num_inputs,
            "num_outputs": self.num_outputs,
            "num_gates": self.num_gates,
            "num_nets": self.num_nets,
            "depth": self.depth,
            "two_input_equivalents": self.two_input_equivalents,
            "gate_type_counts": dict(self.gate_type_counts),
        }


def two_input_gate_equivalents(circuit: Circuit) -> int:
    """Total cost of the circuit in 2-input gate equivalents.

    The sum of :meth:`Gate.two_input_equivalents <repro.circuit.gates.Gate.two_input_equivalents>`
    over every gate, read from the gate table.
    """
    total = 0
    for code, fanins in zip(circuit._types, circuit._fanins):
        if code == _NOT:
            total += 1
        elif code > _NOT:  # AND .. XNOR
            total += max(len(fanins) - 1, 1) + (code in _INVERTED_CODES)
    return total


def gate_type_histogram(circuit: Circuit) -> Dict[str, int]:
    """Count gates by type (excluding primary inputs)."""
    histogram: Dict[str, int] = {}
    for gate in circuit.gates:
        if gate.gate_type == GateType.INPUT:
            continue
        histogram[gate.gate_type.value] = histogram.get(gate.gate_type.value, 0) + 1
    return histogram


def circuit_stats(circuit: Circuit) -> CircuitStats:
    """Compute the full statistics record for ``circuit``."""
    return CircuitStats(
        name=circuit.name,
        num_inputs=circuit.num_inputs,
        num_outputs=circuit.num_outputs,
        num_gates=circuit.num_gates,
        num_nets=len(circuit),
        depth=circuit.depth(),
        two_input_equivalents=two_input_gate_equivalents(circuit),
        gate_type_counts=gate_type_histogram(circuit),
    )


def operations_reduction(cnf_operations: int, circuit: Circuit) -> float:
    """Ops-reduction ratio: CNF operations / circuit operations (Fig. 4 middle).

    Returns ``inf`` when the circuit needs no operations at all (fully
    unconstrained instances).
    """
    circuit_operations = two_input_gate_equivalents(circuit)
    if circuit_operations == 0:
        return float("inf")
    return cnf_operations / circuit_operations
