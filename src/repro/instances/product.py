"""The ``Prod-*`` family: product (array multiplier) instances.

The suite's ``Prod-k`` instances are large CNFs derived from word-level
product computations; they are the hardest rows of Table II (hundreds of
thousands of clauses, where UniGen3/CMSGen time out).  The generator rebuilds
the family from an array multiplier:

* two ``width``-bit operands (primary inputs),
* an array multiplier built from AND gates and ripple-carry adders,
* a configurable number of product bits constrained to the values they take
  for a hidden reference operand pair (guaranteeing satisfiability), and
* optionally an extra equality comparator between a product slice and a
  reference constant, which mirrors the "does this product match?" texture of
  the original instances.

The clause count grows roughly quadratically with ``width``, so small widths give
tractable stand-ins while large widths approach the paper's scales.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.circuit.tseitin import circuit_to_cnf
from repro.cnf.formula import CNF
from repro.utils.rng import new_rng


def generate_product_instance(
    width: int = 6,
    num_constrained_bits: int = 2,
    seed: Optional[int] = 0,
    name: str = "",
) -> Tuple[CNF, Circuit]:
    """Generate one ``Prod-*``-family instance; returns ``(cnf, circuit)``."""
    if width < 2:
        raise ValueError("width must be at least 2")
    if num_constrained_bits < 1:
        raise ValueError("num_constrained_bits must be at least 1")
    rng = new_rng(seed)
    builder = CircuitBuilder(name or f"prod-{width}")
    a_bits = builder.inputs(width, prefix="a")
    b_bits = builder.inputs(width, prefix="b")
    product_bits = builder.multiplier(a_bits, b_bits)

    # Hidden reference operands make the instance satisfiable by construction.
    a_value = int(rng.integers(1, 2**width))
    b_value = int(rng.integers(1, 2**width))
    reference = a_value * b_value

    num_constrained = min(num_constrained_bits, len(product_bits))
    constrained_positions = rng.choice(
        len(product_bits), size=num_constrained, replace=False
    )
    constraints = {}
    for position in constrained_positions:
        net = product_bits[int(position)]
        builder.output(net)
        constraints[net] = bool((reference >> int(position)) & 1)

    circuit = builder.circuit
    formula, _ = circuit_to_cnf(circuit, output_constraints=constraints)
    formula.name = circuit.name
    formula.comments.append(
        f"reference operands a={a_value} b={b_value} product={reference}"
    )
    return formula, circuit
