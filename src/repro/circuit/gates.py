"""Gate types and gate records for the netlist representation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple


class GateType(str, Enum):
    """Supported gate functions.

    ``INPUT`` marks primary-input nodes, ``CONST0``/``CONST1`` are constant
    drivers, ``BUF`` is an identity buffer, and the remaining types mirror the
    operators whose CNF signatures the paper enumerates (Eqs. 1--4) plus the
    probabilistic relaxations of Table I.
    """

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"

    @property
    def is_source(self) -> bool:
        """Whether nodes of this type have no fanins."""
        return self in _SOURCE_TYPES

    @property
    def is_unary(self) -> bool:
        """Whether the gate takes exactly one input."""
        return self in _UNARY_TYPES


#: Frozen membership sets back the hot-path type predicates (tuple-building
#: properties showed up in transform profiles at ~100k calls per instance).
_SOURCE_TYPES = frozenset((GateType.INPUT, GateType.CONST0, GateType.CONST1))
_UNARY_TYPES = frozenset((GateType.BUF, GateType.NOT))

#: The netlist's ``uint8`` gate type codes (index = code, the declaration
#: order above).  The artifact store persists them, so they never change.
GATE_TYPES = tuple(GateType)
GATE_CODES = {gate_type: code for code, gate_type in enumerate(GATE_TYPES)}


@dataclass(frozen=True)
class Gate:
    """A single gate: an output net driven by a function of fanin nets.

    Nets are referred to by string names; the :class:`~repro.circuit.netlist.Circuit`
    owns the name space.
    """

    name: str
    gate_type: GateType
    fanins: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.gate_type.is_source and self.fanins:
            raise ValueError(f"{self.gate_type.value} gate {self.name!r} cannot have fanins")
        if self.gate_type.is_unary and len(self.fanins) != 1:
            raise ValueError(
                f"{self.gate_type.value} gate {self.name!r} needs exactly 1 fanin, "
                f"got {len(self.fanins)}"
            )
        if (
            not self.gate_type.is_source
            and not self.gate_type.is_unary
            and len(self.fanins) < 2
        ):
            raise ValueError(
                f"{self.gate_type.value} gate {self.name!r} needs at least 2 fanins, "
                f"got {len(self.fanins)}"
            )

    @staticmethod
    def unchecked(name: str, gate_type: GateType, fanins: Tuple[str, ...] = ()) -> "Gate":
        """Build a gate skipping arity validation.

        For internal rebuild paths (optimizer, sweeps, store decoding) whose
        gates come from an already-validated circuit; constructing via
        ``__init__`` showed up in transform profiles at tens of thousands of
        calls per instance.
        """
        gate = object.__new__(Gate)
        object.__setattr__(gate, "name", name)
        object.__setattr__(gate, "gate_type", gate_type)
        object.__setattr__(gate, "fanins", fanins)
        return gate

    @property
    def arity(self) -> int:
        """Number of fanins."""
        return len(self.fanins)

    def two_input_equivalents(self) -> int:
        """Cost of this gate in 2-input gate equivalents (Fig. 4 middle metric)."""
        if self.gate_type.is_source or self.gate_type == GateType.BUF:
            return 0
        if self.gate_type == GateType.NOT:
            return 1
        base = max(self.arity - 1, 1)
        if self.gate_type in (GateType.NAND, GateType.NOR, GateType.XNOR):
            # Decompose as the base gate followed by an inverter.
            return base + 1
        return base
