"""Property-based end-to-end invariants (hypothesis).

Random circuits are Tseitin-encoded, transformed and sampled; every reported
solution must satisfy the original CNF, and the transformation must stay
exactly equivalence-preserving over the primary-input space.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dpll import DPLLSolver
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.tseitin import circuit_to_cnf
from tests.corpus.generators import planted_ksat
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.transform import transform_cnf
from tests.conftest import all_assignments

_BINARY_GATES = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR]


@st.composite
def constrained_circuit_cnfs(draw):
    """A random small circuit with its output constrained to a reachable value."""
    num_inputs = draw(st.integers(2, 4))
    num_gates = draw(st.integers(2, 8))
    builder = CircuitBuilder("hyp")
    nets = builder.inputs(num_inputs, prefix="i")
    for _ in range(num_gates):
        gate_type = draw(st.sampled_from(_BINARY_GATES + [GateType.NOT]))
        if gate_type == GateType.NOT:
            nets.append(builder.not_(draw(st.sampled_from(nets))))
        else:
            first = draw(st.sampled_from(nets))
            second = draw(st.sampled_from(nets))
            nets.append(builder.gate(gate_type, [first, second]))
    output = nets[-1]
    builder.output(output)
    circuit = builder.circuit
    # Pick a constraint value the circuit can actually reach so the CNF is SAT.
    reference = {name: draw(st.booleans()) for name in circuit.inputs}
    value = circuit.evaluate(reference)[output]
    formula, _ = circuit_to_cnf(circuit, output_constraints={output: value})
    formula.name = "hyp"
    return formula


@given(constrained_circuit_cnfs())
@settings(max_examples=25, deadline=None)
def test_transform_preserves_model_count(formula):
    """Projected onto the variables the CNF actually mentions, the set of valid
    completions must equal the exact model set (free variables are sampled at
    random by the sampler, so they are projected out here)."""
    transform = transform_cnf(formula)
    mentioned = sorted({abs(lit) for clause in formula.clauses for lit in clause})
    columns = [index - 1 for index in mentioned]
    matrix = all_assignments(len(transform.primary_inputs))
    completed = transform.complete_assignments(matrix)
    valid = formula.evaluate_batch(completed)
    distinct_valid = {tuple(row.tolist()) for row in completed[valid][:, columns]}
    dpll_models = {
        tuple(model[columns].tolist()) for model in DPLLSolver(formula).enumerate_models()
    }
    assert distinct_valid == dpll_models


@given(constrained_circuit_cnfs())
@settings(max_examples=15, deadline=None)
def test_sampler_reports_only_valid_solutions(formula):
    config = SamplerConfig(batch_size=32, seed=0, max_rounds=2)
    result = GradientSATSampler(formula, config=config).sample(8)
    matrix = result.solution_matrix()
    if matrix.shape[0]:
        assert formula.evaluate_batch(matrix).all()


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_sampler_valid_on_planted_ksat(seed):
    """Random (non-circuit) CNFs exercise the under-specified fallback path."""
    formula = planted_ksat(12, 30, seed=seed)
    config = SamplerConfig(batch_size=64, seed=0, max_rounds=3)
    result = GradientSATSampler(formula, config=config).sample(5)
    matrix = result.solution_matrix()
    if matrix.shape[0]:
        assert formula.evaluate_batch(matrix).all()


@given(constrained_circuit_cnfs())
@settings(max_examples=20, deadline=None)
def test_ops_reduction_at_least_parity(formula):
    transform = transform_cnf(formula)
    assert transform.stats.circuit_operations <= transform.stats.cnf_operations
