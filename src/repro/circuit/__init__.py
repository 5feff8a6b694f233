"""Gate-level circuit substrate.

The transformation algorithm of the paper recovers a *multi-level,
multi-output Boolean function* from a CNF; this package provides the netlist
data structure that holds it, plus everything a downstream user needs to work
with the recovered circuit: evaluation, 64-way bit-parallel simulation,
re-encoding to CNF (Tseitin), structural optimization, gate
statistics (2-input gate equivalents, used in Fig. 4's ops-reduction metric)
and structural Verilog export.
"""

from repro.circuit.gates import GateType, Gate
from repro.circuit.netlist import Circuit
from repro.circuit.builder import CircuitBuilder, circuit_from_expressions
from repro.circuit.tseitin import circuit_to_cnf
from repro.circuit.simulate import simulate
from repro.circuit.stats import CircuitStats, circuit_stats, two_input_gate_equivalents
from repro.circuit.optimize import optimize_circuit
from repro.circuit.verilog import to_verilog
from repro.circuit.bench_format import (
    parse_bench,
    parse_bench_file,
    write_bench,
    write_bench_file,
)

__all__ = [
    "GateType",
    "Gate",
    "Circuit",
    "CircuitBuilder",
    "circuit_from_expressions",
    "circuit_to_cnf",
    "simulate",
    "CircuitStats",
    "circuit_stats",
    "two_input_gate_equivalents",
    "optimize_circuit",
    "to_verilog",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "write_bench_file",
]
