"""Property-based tests over the Boolean-algebra substrate (hypothesis).

These cover the invariants the transformation algorithm relies on: the
simplifier and minimizer always preserve semantics, the BDD agrees with
truth-table evaluation, and complement checking is symmetric.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.bdd import BDD
from repro.boolalg.expr import And, Expr, Not, Or, Var, Xor
from repro.boolalg.quine_mccluskey import minimize_expr
from repro.boolalg.simplify import simplify
from repro.boolalg.truth_table import equivalent, is_complement

_NAMES = ["a", "b", "c", "d"]


def _expressions(max_leaves: int = 4) -> st.SearchStrategy[Expr]:
    """Random expressions over four variables."""
    leaves = st.sampled_from([Var(name) for name in _NAMES])

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And(a, b), children, children),
            st.builds(lambda a, b: Or(a, b), children, children),
            st.builds(lambda a, b: Xor(a, b), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@given(_expressions())
@settings(max_examples=60, deadline=None)
def test_simplify_preserves_semantics(expr):
    assert equivalent(simplify(expr), expr)


@given(_expressions())
@settings(max_examples=60, deadline=None)
def test_simplify_never_increases_gate_count_much(expr):
    simplified = simplify(expr)
    # Exact minimization guarantees the result is not (meaningfully) larger.
    assert simplified.two_input_gate_count() <= expr.two_input_gate_count() + 1


@given(_expressions())
@settings(max_examples=60, deadline=None)
def test_quine_mccluskey_preserves_semantics(expr):
    assert equivalent(minimize_expr(expr), expr)


@given(_expressions())
@settings(max_examples=60, deadline=None)
def test_complement_with_own_negation(expr):
    assert is_complement(expr, Not(expr))


@given(_expressions(), _expressions())
@settings(max_examples=60, deadline=None)
def test_complement_symmetry(left, right):
    assert is_complement(left, right) == is_complement(right, left)


@given(_expressions())
@settings(max_examples=60, deadline=None)
def test_bdd_agrees_with_truth_table(expr):
    manager = BDD(_NAMES)
    node = manager.from_expr(expr)
    import itertools

    for bits in itertools.product([False, True], repeat=len(_NAMES)):
        assignment = dict(zip(_NAMES, bits))
        assert manager.evaluate(node, assignment) == expr.evaluate(assignment)


@given(_expressions(), _expressions())
@settings(max_examples=60, deadline=None)
def test_bdd_canonical_equality_matches_equivalence(left, right):
    manager = BDD(_NAMES)
    assert (manager.from_expr(left) == manager.from_expr(right)) == equivalent(left, right)


@given(_expressions())
@settings(max_examples=40, deadline=None)
def test_double_negation_is_identity(expr):
    assert Not(Not(expr)) == expr
