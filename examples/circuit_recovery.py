#!/usr/bin/env python3
"""Recovering circuit structure from a CNF (Algorithm 1 as a standalone tool).

The transformation at the heart of the paper is useful beyond sampling: it
restores the multi-level logic structure that the Tseitin transformation
flattened into clauses (related work: Roy et al., Fu et al.).  This example

1. builds a reference circuit (a small ALU slice),
2. Tseitin-encodes it to CNF — throwing the structure away,
3. runs the transformation to recover a multi-level, multi-output function,
4. compares the recovered gate count against the CNF's operation count, and
5. exports the recovered circuit as structural Verilog.

Run with:  python examples/circuit_recovery.py
"""

from repro import transform_cnf
from repro.circuit import CircuitBuilder, circuit_stats, circuit_to_cnf, to_verilog


def build_alu_slice():
    """A 4-bit ALU slice: add, bitwise AND/OR/XOR selected by two control bits."""
    builder = CircuitBuilder("alu-slice")
    a_bits = builder.inputs(4, prefix="a")
    b_bits = builder.inputs(4, prefix="b")
    op0 = builder.input("op0")
    op1 = builder.input("op1")

    sums, _ = builder.ripple_adder(a_bits, b_bits)
    for position in range(4):
        and_bit = builder.and_(a_bits[position], b_bits[position])
        or_bit = builder.or_(a_bits[position], b_bits[position])
        xor_bit = builder.xor_(a_bits[position], b_bits[position])
        # op1 op0: 00 -> add, 01 -> and, 10 -> or, 11 -> xor
        logic = builder.mux(op0, and_bit, or_bit)
        logic_or_xor = builder.mux(op0, xor_bit, logic)
        result = builder.mux(op1, logic_or_xor, builder.mux(op0, and_bit, sums[position]))
        builder.output(builder.buf(result, name=f"y{position}"))
    return builder.circuit


def main() -> None:
    circuit = build_alu_slice()
    original = circuit_stats(circuit)
    print("--- Reference circuit ---")
    print(f"inputs={original.num_inputs}  outputs={original.num_outputs}  "
          f"gates={original.num_gates}  2-input equivalents={original.two_input_equivalents}")

    # Flatten to CNF, constraining every output to 1 (a verification-style query:
    # "find input vectors that drive all result bits high").
    formula, _ = circuit_to_cnf(circuit, output_constraints={net: True for net in circuit.outputs})
    formula.name = "alu-slice"
    print(f"\n--- Tseitin CNF ---")
    print(f"variables={formula.num_variables}  clauses={formula.num_clauses}  "
          f"2-input operations={formula.two_input_operation_count()}")

    result = transform_cnf(formula)
    recovered = circuit_stats(result.circuit)
    print(f"\n--- Recovered multi-level function (Algorithm 1) ---")
    print(f"primary inputs        : {len(result.primary_inputs)}")
    print(f"intermediate variables: {len(result.intermediate_variables)}")
    print(f"constraint outputs    : {len(result.constraints)}")
    print(f"2-input equivalents   : {recovered.two_input_equivalents}")
    print(f"operation reduction   : {result.stats.operations_reduction:.1f}x over the CNF")
    print(f"signature matches     : {result.stats.signature_matches}  "
          f"(generic extractions: {result.stats.generic_matches}, "
          f"fallback groups: {result.stats.fallback_groups})")

    verilog = to_verilog(result.circuit, module_name="recovered_alu_slice")
    print("\n--- Structural Verilog of the recovered circuit (first 25 lines) ---")
    print("\n".join(verilog.splitlines()[:25]))
    print("    ...")


if __name__ == "__main__":
    main()
