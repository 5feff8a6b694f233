"""Convenience builders turning Boolean expressions into circuits.

The transformation algorithm produces an ordered list of
``output variable -> Boolean expression`` definitions; :func:`circuit_from_expressions`
lowers that list into a :class:`~repro.circuit.netlist.Circuit` by appending
one gate-table row per operator node (:func:`expression_lowerer`, shared with
the incremental transform's graft); no gate record is built on the way.  The
object builder it replaced is the reference in ``tests/oracles/circuit.py``.

:class:`CircuitBuilder` offers a lower-level fluent API used by the
benchmark-instance generators to describe circuits directly (adders,
comparators, ISCAS-style random logic blocks, ...).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.boolalg.expr import And, Const, Expr, Not, Or, Var, Xor
from repro.circuit.gates import GATE_CODES, GateType
from repro.circuit.netlist import Circuit

_INPUT, _CONST0, _CONST1, _BUF, _NOT = (
    GATE_CODES[t]
    for t in (GateType.INPUT, GateType.CONST0, GateType.CONST1, GateType.BUF, GateType.NOT)
)
_NARY_CODES = {
    And: GATE_CODES[GateType.AND],
    Or: GATE_CODES[GateType.OR],
    Xor: GATE_CODES[GateType.XOR],
}


class CircuitBuilder:
    """Fluent helper for constructing circuits gate by gate.

    Net names are generated automatically (``n<k>``) unless provided, and
    convenience methods exist for each gate type.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.circuit = Circuit(name)
        self._counter = 0

    def _fresh(self, prefix: str = "n") -> str:
        while True:
            self._counter += 1
            candidate = f"{prefix}{self._counter}"
            if not self.circuit.has_net(candidate):
                return candidate

    # -- declarations ---------------------------------------------------------------
    def input(self, name: Optional[str] = None) -> str:
        """Declare a primary input and return its net name."""
        return self.circuit.add_input(name or self._fresh("in"))

    def inputs(self, count: int, prefix: str = "in") -> List[str]:
        """Declare ``count`` primary inputs named ``<prefix>0 .. <prefix>{count-1}``."""
        return [self.circuit.add_input(f"{prefix}{i}") for i in range(count)]

    def constant(self, value: bool, name: Optional[str] = None) -> str:
        """Add a constant driver."""
        return self.circuit.add_constant(name or self._fresh("const"), value)

    def output(self, net: str) -> str:
        """Mark a net as primary output and return it."""
        self.circuit.set_output(net)
        return net

    # -- gates -------------------------------------------------------------------------
    def gate(self, gate_type: GateType, fanins: Sequence[str], name: Optional[str] = None) -> str:
        """Add an arbitrary gate and return its net name."""
        return self.circuit.add_gate(name or self._fresh(), gate_type, fanins)

    def not_(self, a: str, name: Optional[str] = None) -> str:
        """Inverter."""
        return self.gate(GateType.NOT, [a], name)

    def buf(self, a: str, name: Optional[str] = None) -> str:
        """Buffer (identity)."""
        return self.gate(GateType.BUF, [a], name)

    def and_(self, *fanins: str, name: Optional[str] = None) -> str:
        """AND gate."""
        return self.gate(GateType.AND, list(fanins), name)

    def or_(self, *fanins: str, name: Optional[str] = None) -> str:
        """OR gate."""
        return self.gate(GateType.OR, list(fanins), name)

    def nand_(self, *fanins: str, name: Optional[str] = None) -> str:
        """NAND gate."""
        return self.gate(GateType.NAND, list(fanins), name)

    def nor_(self, *fanins: str, name: Optional[str] = None) -> str:
        """NOR gate."""
        return self.gate(GateType.NOR, list(fanins), name)

    def xor_(self, *fanins: str, name: Optional[str] = None) -> str:
        """XOR gate."""
        return self.gate(GateType.XOR, list(fanins), name)

    def xnor_(self, *fanins: str, name: Optional[str] = None) -> str:
        """XNOR gate."""
        return self.gate(GateType.XNOR, list(fanins), name)

    def mux(self, select: str, when_true: str, when_false: str, name: Optional[str] = None) -> str:
        """2:1 multiplexer ``select ? when_true : when_false``."""
        not_select = self.not_(select)
        takes_true = self.and_(select, when_true)
        takes_false = self.and_(not_select, when_false)
        return self.or_(takes_true, takes_false, name=name)

    # -- word-level helpers (used by the instance generators) -----------------------------
    def ripple_adder(self, a_bits: Sequence[str], b_bits: Sequence[str]) -> Tuple[List[str], str]:
        """Ripple-carry adder; returns (sum bits LSB-first, carry-out net)."""
        if len(a_bits) != len(b_bits):
            raise ValueError("operand widths differ")
        carry = self.constant(False)
        sums: List[str] = []
        for a, b in zip(a_bits, b_bits):
            partial = self.xor_(a, b)
            sums.append(self.xor_(partial, carry))
            carry = self.or_(self.and_(a, b), self.and_(partial, carry))
        return sums, carry

    def multiplier(self, a_bits: Sequence[str], b_bits: Sequence[str]) -> List[str]:
        """Array multiplier; returns product bits LSB-first (width = len(a)+len(b))."""
        width = len(a_bits) + len(b_bits)
        zero = self.constant(False)
        accumulator: List[str] = [zero] * width
        for shift, b in enumerate(b_bits):
            partial = [zero] * width
            for position, a in enumerate(a_bits):
                partial[position + shift] = self.and_(a, b)
            accumulator = self._add_words(accumulator, partial)
        return accumulator

    def _add_words(self, a_bits: Sequence[str], b_bits: Sequence[str]) -> List[str]:
        sums, _ = self.ripple_adder(list(a_bits), list(b_bits))
        return sums


def expression_lowerer(
    circuit: Circuit, variable: Callable[[str], int]
) -> Callable[[Expr], int]:
    """A function appending the gate rows of one expression to ``circuit``.

    It returns the row driving the expression's value.  Every operator node
    becomes a fresh ``n<k>`` row (a repeated subexpression is lowered again;
    the optimizer merges the copies), every constant a fresh ``const<k>``
    row, with ``k`` counting up across both names from the first free one,
    and a variable is the row ``variable(name)`` returns.
    """
    index = circuit._index
    counter = 0

    def fresh(prefix: str = "n") -> str:
        nonlocal counter
        while True:
            counter += 1
            candidate = f"{prefix}{counter}"
            if candidate not in index:
                return candidate

    append = circuit._append

    def lower(expr: Expr) -> int:
        if isinstance(expr, Var):
            return variable(expr.name)
        if isinstance(expr, Const):
            return append(fresh("const"), _CONST1 if expr.value else _CONST0, ())
        if isinstance(expr, Not):
            fanins = (lower(expr.operand),)
            code = _NOT
        else:
            code = _NARY_CODES.get(type(expr))
            if code is None:
                raise TypeError(f"unsupported expression node {type(expr).__name__}")
            fanins = tuple([lower(operand) for operand in expr.operands])
        return append(fresh(), code, fanins)

    return lower


def circuit_from_expressions(
    definitions: Sequence[Tuple[str, Expr]],
    outputs: Optional[Iterable[str]] = None,
    inputs: Optional[Iterable[str]] = None,
    name: str = "circuit",
) -> Circuit:
    """Lower ordered ``(net name, expression)`` definitions into a circuit.

    Expressions may reference primary inputs and previously defined nets by
    name.  ``inputs`` may pre-declare primary inputs (and fixes their order);
    any referenced variable that is neither defined nor declared is added as a
    primary input on first use.  Each definition's net is a buffer of its
    expression's row.  ``outputs`` marks primary outputs; when omitted, nets
    that no other definition consumes are marked automatically.
    """
    circuit = Circuit(name)
    defined_names = {net for net, _ in definitions}

    for input_name in inputs or []:
        circuit.add_input(input_name)

    index = circuit._index

    def variable(net: str) -> int:
        row = index.get(net)
        if row is not None:
            return row
        if net in defined_names:
            raise ValueError(
                f"definition of {net!r} is used before it is defined; "
                "definitions must be topologically ordered"
            )
        return circuit._append(net, _INPUT, ())

    lower = expression_lowerer(circuit, variable)
    for net_name, expr in definitions:
        if net_name in index:
            raise ValueError(f"net {net_name!r} defined twice")
        driver = lower(expr)
        circuit._append(net_name, _BUF, (driver,))

    if outputs is not None:
        for output_name in outputs:
            circuit.set_output(output_name)
    else:
        consumed = set()
        for fanins in circuit._fanins:
            consumed.update(fanins)
        for net_name, _ in definitions:
            row = index[net_name]
            if row not in consumed:
                circuit._mark_output(row)
    return circuit
