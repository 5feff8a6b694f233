"""The CNF→circuit transform pinned to the seed's algorithms.

``transform_cnf`` (literal-occurrence index, failure caching, shape-dispatched
signature matching, interned expressions with memoised bitmask truth tables,
vectorised bookkeeping) must be decision-for-decision identical to the seed
implementation, kept as the oracle in ``tests/oracles/transform.py``.  The
oracle runs the original algorithms — rescan-everything stream loop, per-row
dictionary truth-table enumeration, non-memoised Quine--McCluskey — so these
properties cross-check the bitmask kernel and every memo against it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolalg.expr import And, Not, Or, Var, Xor
from repro.boolalg.simplify import is_flat_literal_gate, simplify
from repro.boolalg.truth_table import equivalent, is_complement, truth_table
from repro.cnf.clause import Clause
from repro.cnf.formula import CNF
from repro.core.extraction import find_boolean_expression
from repro.core.signatures import gate_signature_clauses
from repro.core.transform import transform_cnf
from repro.circuit.gates import GateType
from tests.conftest import all_assignments
from tests.oracles import transform as oracle
from tests.oracles.completion import complete_reference


# -- strategies --------------------------------------------------------------------------

@st.composite
def random_cnfs(draw):
    """Small random CNFs: arbitrary clauses, possible duplicates/tautologies/empties."""
    num_variables = draw(st.integers(1, 6))
    extra_declared = draw(st.integers(0, 2))
    num_clauses = draw(st.integers(1, 10))
    clauses = draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(1, num_variables), st.booleans()).map(
                    lambda pair: pair[0] if pair[1] else -pair[0]
                ),
                min_size=0,
                max_size=4,
            ),
            min_size=num_clauses,
            max_size=num_clauses,
        )
    )
    return CNF(clauses, num_variables=num_variables + extra_declared, name="hyp")


@st.composite
def gate_stream_cnfs(draw):
    """Structured CNFs: a stream of gate signatures, Tseitin-style.

    This is the shape the signature fast path and the occurrence index are
    built for: each gate's clause group mentions the previous gates' outputs.
    """
    num_inputs = draw(st.integers(2, 4))
    num_gates = draw(st.integers(1, 6))
    clauses = []
    next_var = num_inputs + 1
    available = list(range(1, num_inputs + 1))
    for _ in range(num_gates):
        gate_type = draw(
            st.sampled_from(
                [GateType.NOT, GateType.BUF, GateType.AND, GateType.NAND,
                 GateType.OR, GateType.NOR, GateType.XOR, GateType.XNOR]
            )
        )
        arity = 1 if gate_type in (GateType.NOT, GateType.BUF) else 2
        fanins = draw(
            st.lists(
                st.sampled_from(available), min_size=arity, max_size=arity,
                unique=True,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=arity, max_size=arity))
        if gate_type in (GateType.XOR, GateType.XNOR):
            signs = [True] * arity  # XOR signatures use positive fanins
        literals = [f if sign else -f for f, sign in zip(fanins, signs)]
        output = next_var
        next_var += 1
        clauses.extend(gate_signature_clauses(gate_type, output, literals))
        available.append(output)
    # Optionally constrain the last output to 1 (the paper's Fig. 1 shape).
    if draw(st.booleans()):
        clauses.append([available[-1]])
    return CNF(clauses, num_variables=next_var - 1, name="gates")


@st.composite
def literal_exprs(draw):
    """Flat and shallow nested expressions over a tiny variable pool."""
    names = ["x1", "x2", "x3", "x4"]

    def literal():
        name = draw(st.sampled_from(names))
        return Var(name) if draw(st.booleans()) else Not(Var(name))

    kind = draw(st.sampled_from(["and", "or", "xor", "nested"]))
    arity = draw(st.integers(1, 4))
    operands = [literal() for _ in range(arity)]
    if kind == "and":
        expr = And(*operands)
    elif kind == "or":
        expr = Or(*operands)
    elif kind == "xor":
        expr = Xor(*operands)
    else:
        inner = Or(*operands)
        expr = And(inner, literal(), Or(literal(), literal()))
    if draw(st.booleans()):
        expr = Not(expr)
    return expr


# -- helpers -----------------------------------------------------------------------------

def assert_transforms_identical(fast, reference):
    assert fast.definitions == reference.definitions
    assert fast.primary_inputs == reference.primary_inputs
    assert fast.intermediate_variables == reference.intermediate_variables
    assert fast.primary_outputs == reference.primary_outputs
    assert fast.constraints == reference.constraints
    assert fast.free_variables == reference.free_variables
    assert fast.num_variables == reference.num_variables
    fast_gates = [(g.name, g.gate_type, g.fanins) for g in fast.circuit.gates]
    ref_gates = [(g.name, g.gate_type, g.fanins) for g in reference.circuit.gates]
    assert fast_gates == ref_gates
    assert fast.circuit.inputs == reference.circuit.inputs
    assert fast.circuit.outputs == reference.circuit.outputs
    fast_stats, ref_stats = fast.stats, reference.stats
    assert fast_stats.num_clauses == ref_stats.num_clauses
    assert fast_stats.num_definitions == ref_stats.num_definitions
    assert fast_stats.signature_matches == ref_stats.signature_matches
    assert fast_stats.generic_matches == ref_stats.generic_matches
    assert fast_stats.fallback_groups == ref_stats.fallback_groups
    assert fast_stats.constant_definitions == ref_stats.constant_definitions
    assert fast_stats.cnf_operations == ref_stats.cnf_operations
    assert fast_stats.circuit_operations == ref_stats.circuit_operations


def assert_completions_identical(fast, reference):
    num_inputs = len(fast.primary_inputs)
    matrix = all_assignments(min(num_inputs, 6))[:, :num_inputs]
    if matrix.shape[1] < num_inputs:  # wide input sets: random batch instead
        rng = np.random.default_rng(0)
        matrix = rng.random((32, num_inputs)) < 0.5
    free = None
    if fast.free_variables:
        rng = np.random.default_rng(1)
        free = rng.random((matrix.shape[0], len(fast.free_variables))) < 0.5
    completed_fast = fast.complete_assignments(matrix, free)
    completed_ref = complete_reference(reference, matrix, free)
    assert np.array_equal(completed_fast, completed_ref)


# -- transform equivalence ---------------------------------------------------------------

class TestTransformEquivalence:
    @given(random_cnfs())
    @settings(max_examples=80, deadline=None)
    def test_random_cnfs(self, formula):
        fast = transform_cnf(formula)
        reference = oracle.transform_reference(formula)
        assert_transforms_identical(fast, reference)
        assert_completions_identical(fast, reference)

    @given(gate_stream_cnfs())
    @settings(max_examples=60, deadline=None)
    def test_gate_stream_cnfs(self, formula):
        fast = transform_cnf(formula)
        reference = oracle.transform_reference(formula)
        assert_transforms_identical(fast, reference)
        assert_completions_identical(fast, reference)

    @given(random_cnfs(), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_option_combinations(self, formula, use_signatures, simplify_exprs):
        fast = transform_cnf(
            formula,
            simplify_expressions=simplify_exprs,
            use_signature_fast_path=use_signatures,
        )
        reference = oracle.transform_reference(
            formula,
            simplify_expressions=simplify_exprs,
            use_signature_fast_path=use_signatures,
        )
        assert_transforms_identical(fast, reference)

    @given(random_cnfs(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_narrow_candidate_budget(self, formula, max_candidate_vars):
        """The width gate (which also gates flush simplification) agrees."""
        fast = transform_cnf(formula, max_candidate_vars=max_candidate_vars)
        reference = oracle.transform_reference(
            formula, max_candidate_vars=max_candidate_vars
        )
        assert_transforms_identical(fast, reference)

    @given(random_cnfs(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_small_group_flushes(self, formula, max_group_size):
        """Frequent forced flushes exercise the under-specified path."""
        fast = transform_cnf(formula, max_group_size=max_group_size)
        reference = oracle.transform_reference(formula, max_group_size=max_group_size)
        assert_transforms_identical(fast, reference)

    def test_registry_instance_equivalence(self):
        from repro.instances.registry import get_instance

        formula = get_instance("75-10-1-q").build_cnf()
        fast = transform_cnf(formula)
        reference = oracle.transform_reference(formula)
        assert_transforms_identical(fast, reference)
        assert_completions_identical(fast, reference)

    @pytest.mark.parametrize("name", ["or-100-20-8-UC-10", "s15850a_3_2", "Prod-8"])
    def test_cold_start_instances(self, name):
        """Records, completions and fixed-seed streams on one instance per
        family, the largest ISCAS one included."""
        from repro.core.config import SamplerConfig
        from repro.core.pipeline import sample_cnf
        from repro.instances.registry import get_instance

        formula = get_instance(name).build_cnf()
        fast = transform_cnf(formula)
        reference = oracle.transform_reference(formula)
        assert_transforms_identical(fast, reference)
        assert_completions_identical(fast, reference)
        config = SamplerConfig(seed=1234, batch_size=64, iterations=30)
        streams = []
        for transform in (fast, reference):
            result = sample_cnf(formula, num_solutions=32, config=config, transform=transform)
            matrix = result.sample.solution_matrix()
            streams.append((matrix.shape, matrix.tobytes()))
        assert streams[0] == streams[1]

    def test_sampler_stream_bitwise_identical(self):
        """Fixed-seed NumPy sampler streams agree through both transforms."""
        from repro.core.config import SamplerConfig
        from repro.core.pipeline import sample_cnf
        from repro.instances.registry import get_instance

        formula = get_instance("75-10-1-q").build_cnf()
        config = SamplerConfig(seed=7, batch_size=32, iterations=20)
        streams = []
        for transform in (transform_cnf(formula), oracle.transform_reference(formula)):
            result = sample_cnf(
                formula, num_solutions=16, config=config, transform=transform
            )
            matrix = np.asarray(result.sample.solution_matrix(), dtype=bool)
            streams.append((matrix.shape, np.packbits(matrix).tobytes()))
        assert streams[0] == streams[1]


class TestRoundPlanRows:
    @given(random_cnfs())
    @settings(max_examples=100, deadline=None)
    def test_every_variable_row_written_once(self, formula):
        """Input, defined and free rows partition the variable rows, also when
        a variable occurs only in tautological clauses."""
        plan = transform_cnf(formula).round_plan
        written = np.concatenate((plan.input_rows, plan.defined_rows, plan.free_rows))
        assert np.bincount(written, minlength=formula.num_variables).tolist() == [
            1
        ] * formula.num_variables


# -- sub-component equivalence (bitmask kernel vs dictionary enumeration) ----------------

class TestBoolalgFastPaths:
    @given(literal_exprs(), literal_exprs())
    @settings(max_examples=120, deadline=None)
    def test_equivalent_matches_reference(self, a, b):
        assert equivalent(a, b) == oracle.equivalent(a, b)

    @given(literal_exprs(), literal_exprs())
    @settings(max_examples=120, deadline=None)
    def test_is_complement_matches_reference(self, a, b):
        assert is_complement(a, b) == oracle.is_complement(a, b)

    @given(literal_exprs())
    @settings(max_examples=120, deadline=None)
    def test_truth_table_matches_row_enumeration(self, expr):
        names = sorted(expr.support())
        table = truth_table(expr, over=names)
        rows = [expr.evaluate(a) for a in oracle.assignments_iter(names)]
        assert table.tolist() == rows

    @given(literal_exprs())
    @settings(max_examples=150, deadline=None)
    def test_simplify_fast_path_is_fixed_point(self, expr):
        fast = simplify(expr)
        reference = oracle.simplify(expr)
        assert fast == reference
        if is_flat_literal_gate(expr):
            assert fast is expr


class TestExtractionFastPath:
    @given(random_cnfs(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_find_boolean_expression_matches_reference(self, formula, variable):
        clauses = [
            clause
            for clause in formula.clauses
            if clause.contains(variable) or clause.contains(-variable)
        ]
        fast = find_boolean_expression(variable, clauses)
        reference = oracle.find_boolean_expression(variable, clauses)
        assert fast == reference

    @given(random_cnfs(), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_width_gate_matches_reference(self, formula, variable, max_vars):
        clauses = [
            clause
            for clause in formula.clauses
            if clause.contains(variable) or clause.contains(-variable)
        ]
        fast = find_boolean_expression(variable, clauses, max_vars=max_vars)
        reference = oracle.find_boolean_expression(variable, clauses, max_vars=max_vars)
        assert fast == reference

    def test_unit_clause_pair_definitions(self):
        # (v) alone defines v := TRUE; (v) & (~v) defines nothing.
        assert find_boolean_expression(1, [Clause([1])]) == oracle.find_boolean_expression(
            1, [Clause([1])]
        )
        pair = [Clause([1]), Clause([-1])]
        assert find_boolean_expression(1, pair) is None
        assert oracle.find_boolean_expression(1, pair) is None


# -- new surface behaviour ----------------------------------------------------------------

class TestStageTimings:
    def test_stage_seconds_recorded(self, fig1_formula):
        result = transform_cnf(fig1_formula)
        stages = result.stats.stage_seconds
        assert "stream" in stages and stages["stream"] >= 0.0
        assert "circuit_build" in stages
        assert all(seconds >= 0.0 for seconds in stages.values())


class TestCacheClearing:
    def test_clear_transform_caches_roundtrip(self, fig1_formula):
        from repro.core.transform import clear_transform_caches

        before = transform_cnf(fig1_formula)
        clear_transform_caches()
        after = transform_cnf(fig1_formula)
        assert before.definitions == after.definitions
        assert before.primary_inputs == after.primary_inputs

    def test_xp_clear_caches_covers_transform_memos(self):
        import repro
        from repro.boolalg.truth_table import _bits_cached
        from repro.boolalg.expr import Var, Xor

        truth_table(Xor(Var("a"), Var("b")))
        assert _bits_cached.cache_info().currsize > 0
        repro.clear_caches()
        assert _bits_cached.cache_info().currsize == 0
