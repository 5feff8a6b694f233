"""The service-level ``array_backend`` default, inline and pooled.

A service's ``array_backend`` applies to every task whose config names none,
at the one point inline and pooled runs share (``execute_task``); a task
config that names a spec keeps it.  A bad service-level spec is rejected by
the constructor instead of killing every worker at startup.
"""

import numpy as np
import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.engine import train
from repro.serve import SamplingService
from tests.conftest import FIG1_DIMACS

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


def _direct_rows(spec):
    formula = parse_dimacs(CHAIN_DIMACS, name="chain")
    config = DTYPE_REVEALING.with_(array_backend=spec)
    return GradientSATSampler(formula, config=config).sample(16).solution_matrix()


def _service_rows(service, config=DTYPE_REVEALING):
    formula = parse_dimacs(CHAIN_DIMACS, name="chain")
    job_id = service.submit(formula, num_solutions=16, config=config, coalesce=False)
    result = service.result(job_id, timeout=TIMEOUT)
    assert result.status == "done"
    return result


@pytest.fixture(scope="module")
def reference_rows():
    rows = {spec: _direct_rows(spec) for spec in ("numpy", "numpy:float32")}
    # The fixture only discriminates if the two dtypes disagree.
    assert rows["numpy"].shape != rows["numpy:float32"].shape
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
        with SamplingService(0, array_backend="numpy:float32") as service:
            job_id = service.submit(fig1, num_solutions=8, config=SamplerConfig(batch_size=16))
            assert service.result(job_id, timeout=TIMEOUT).status == "done"
        assert seen == {np.dtype(np.float32)}

    def test_inline_and_pooled_rows_match_float32(self, reference_rows):
        with SamplingService(0, array_backend="numpy:float32") as service:
            inline = _service_rows(service)
        with SamplingService(1, array_backend="numpy:float32") as service:
            pooled = _service_rows(service)
        expected = reference_rows["numpy:float32"]
        np.testing.assert_array_equal(inline.solutions.to_matrix(), expected)
        np.testing.assert_array_equal(pooled.solutions.to_matrix(), expected)
        # Records report the spec as the task config stated it (none).
        assert inline.members[0]["array_backend"] is None
        assert pooled.members[0]["array_backend"] is None

    def test_task_config_keeps_its_own_spec(self, reference_rows):
        config = DTYPE_REVEALING.with_(array_backend="numpy")
        with SamplingService(0, array_backend="numpy:float32") as service:
            result = _service_rows(service, config)
        np.testing.assert_array_equal(
            result.solutions.to_matrix(), reference_rows["numpy"]
        )
        assert result.members[0]["array_backend"] == "numpy"


class TestServiceSpecValidation:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_bad_spec_rejected_by_constructor(self, workers):
        with pytest.raises(ValueError):
            SamplingService(workers, array_backend="cupy:float16")
