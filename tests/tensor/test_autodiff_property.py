"""Property-based gradient checking of the autodiff engine.

Every probabilistic gate's autodiff gradient is compared against a central
finite-difference estimate on random probability inputs — the invariant that
makes Eq. 9/10 of the paper work without hand-coded derivatives.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.tensor.functional import (
    l2_loss,
    prob_and,
    prob_nand,
    prob_nor,
    prob_or,
    prob_xnor,
    prob_xor,
    sigmoid,
)
from tests.oracles.tensor.tensor import Tensor

_GATES = [prob_and, prob_or, prob_nand, prob_nor, prob_xor, prob_xnor]

probabilities = st.floats(min_value=0.05, max_value=0.95)


def _numeric_gradient(function, values, epsilon=1e-5):
    gradient = np.zeros(len(values))
    for index in range(len(values)):
        plus = list(values)
        minus = list(values)
        plus[index] += epsilon
        minus[index] -= epsilon
        gradient[index] = (function(plus) - function(minus)) / (2 * epsilon)
    return gradient


@given(st.sampled_from(_GATES), st.lists(probabilities, min_size=2, max_size=4))
@settings(max_examples=80, deadline=None)
def test_gate_gradients_match_finite_differences(gate, values):
    tensors = [Tensor([value], requires_grad=True) for value in values]
    gate(tensors).sum().backward()
    analytic = np.array([tensor.grad[0] for tensor in tensors])

    def forward(raw):
        return gate([Tensor([v]) for v in raw]).item()

    numeric = _numeric_gradient(forward, values)
    assert np.allclose(analytic, numeric, atol=1e-4)


@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_sigmoid_gradient_matches_finite_differences(values):
    tensor = Tensor(values, requires_grad=True)
    sigmoid(tensor).sum().backward()

    def forward(raw):
        return float((1.0 / (1.0 + np.exp(-np.asarray(raw)))).sum())

    numeric = _numeric_gradient(forward, values)
    assert np.allclose(tensor.grad, numeric, atol=1e-4)


@given(
    st.lists(probabilities, min_size=2, max_size=4),
    st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_l2_loss_gradient_matches_finite_differences(outputs, targets):
    size = min(len(outputs), len(targets))
    outputs, targets = outputs[:size], targets[:size]
    tensor = Tensor([outputs], requires_grad=True)
    l2_loss(tensor, Tensor([targets])).backward()

    def forward(raw):
        return float(((np.asarray(raw) - np.asarray(targets)) ** 2).sum())

    numeric = _numeric_gradient(forward, outputs)
    assert np.allclose(tensor.grad[0], numeric, atol=1e-4)


@given(st.lists(probabilities, min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_gate_outputs_stay_in_unit_interval(values):
    for gate in _GATES:
        result = gate([Tensor([v]) for v in values]).item()
        assert -1e-9 <= result <= 1.0 + 1e-9
