"""Reference oracle: a minimal reverse-mode autodiff tape over NumPy.

The paper implements its sampler in PyTorch.  Before the compiled engine
(:mod:`repro.engine`) existed, this small tensor type — reverse-mode
autodiff, the Table I gate relaxations, the sigmoid embedding, the L2 loss
and the plain gradient-descent step — *was* the sampler.  It now
lives under ``tests/`` only: the per-gate interpreter of
:mod:`tests.oracles.interpreter` runs on it, and the engine's equivalence
tests and the engine-vs-interpreter benchmark compare against it.

Every tensor carries a leading batch axis and all operations are
independent per batch element, so one vectorised NumPy call plays the role
of one GPU kernel launch across the batch.
"""

from tests.oracles.tensor.tensor import Tensor, no_grad
from tests.oracles.tensor.functional import (
    sigmoid,
    prob_not,
    prob_and,
    prob_or,
    prob_xor,
    prob_xnor,
    prob_nand,
    prob_nor,
    prob_buf,
    square,
    l2_loss,
)
from tests.oracles.tensor.optim import SGD, Optimizer

__all__ = [
    "Tensor",
    "no_grad",
    "sigmoid",
    "prob_not",
    "prob_and",
    "prob_or",
    "prob_xor",
    "prob_xnor",
    "prob_nand",
    "prob_nor",
    "prob_buf",
    "square",
    "l2_loss",
    "SGD",
    "Optimizer",
]
