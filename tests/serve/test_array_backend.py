"""The service learns in float32, inline and pooled, with no dtype option.

Learning always runs in ``float32``; the service has no ``array_backend``
default to hand its workers, and constructing one with it is a
``TypeError``.  A dtype-revealing config shows what inline and pooled runs
actually learned in.
"""

import numpy as np
import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.engine import train
from repro.serve import SamplingService
from tests.conftest import FIG1_DIMACS
from tests.oracles.interpreter import use_interpreter

TIMEOUT = 120.0

#: Every all-false assignment satisfies this chain of binary clauses.
CHAIN_DIMACS = "p cnf 6 5\n-1 -2 0\n-2 -3 0\n-3 -4 0\n-4 -5 0\n-5 -6 0\n"

#: An initial scale below float32's smallest denormal rounds every float32
#: draw to zero, and a vanishing learning rate keeps the GD steps from
#: moving it: float32 runs learn all-false bits while float64 runs keep the
#: random signs of their draws.  The rows therefore reveal the dtype a run
#: learned in.
DTYPE_REVEALING = SamplerConfig(
    batch_size=32, seed=0, max_rounds=2, init_scale=1e-50, learning_rate=1e-300
)


def _direct_rows():
    formula = parse_dimacs(CHAIN_DIMACS, name="chain")
    return GradientSATSampler(formula, config=DTYPE_REVEALING).sample(16).solution_matrix()


def _service_rows(service, config=DTYPE_REVEALING):
    formula = parse_dimacs(CHAIN_DIMACS, name="chain")
    job_id = service.submit(formula, num_solutions=16, config=config, coalesce=False)
    result = service.result(job_id, timeout=TIMEOUT)
    assert result.status == "done"
    return result


@pytest.fixture(scope="module")
def float32_rows():
    rows = _direct_rows()
    with pytest.MonkeyPatch.context() as patch:
        use_interpreter(patch, np.float64)
        float64_rows = _direct_rows()
    # The config only discriminates if the float64 oracle disagrees.
    assert rows.shape != float64_rows.shape
    return rows


class TestServiceDefaultDtype:
    def test_inline_service_learns_in_float32(self, monkeypatch):
        seen = set()
        original = train.sigmoid_embedding

        def spy(soft_inputs):
            seen.add(np.asarray(soft_inputs).dtype)
            return original(soft_inputs)

        monkeypatch.setattr(train, "sigmoid_embedding", spy)
        fig1 = parse_dimacs(FIG1_DIMACS, name="fig1")
        with SamplingService(0) as service:
            job_id = service.submit(fig1, num_solutions=8, config=SamplerConfig(batch_size=16))
            assert service.result(job_id, timeout=TIMEOUT).status == "done"
        assert seen == {np.dtype(np.float32)}

    def test_inline_and_pooled_rows_match_float32(self, float32_rows):
        with SamplingService(0) as service:
            inline = _service_rows(service)
        with SamplingService(1) as service:
            pooled = _service_rows(service)
        np.testing.assert_array_equal(inline.solutions.to_matrix(), float32_rows)
        np.testing.assert_array_equal(pooled.solutions.to_matrix(), float32_rows)
        # Records carry no dtype spec.
        assert "array_backend" not in inline.members[0]
        assert "array_backend" not in pooled.members[0]


class TestServiceSpecValidation:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_bad_spec_rejected_by_constructor(self, workers):
        # Every spec is rejected: the option is gone, before any worker starts.
        with pytest.raises(TypeError, match="array_backend"):
            SamplingService(workers, array_backend="numpy")
