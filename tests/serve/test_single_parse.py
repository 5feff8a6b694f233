"""An inline cold job parses its DIMACS once.

``submit`` parses a formula it has not seen (a source-memo miss, or any
incremental job) to sign it.  In inline mode (``num_workers=0``) that parse
is handed to the job's build instead of being repeated; the service keeps it
only until the job's run starts.  Pool workers run in another process and
still parse their own copy, so a pooled coordinator keeps nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cnf.dimacs as dimacs_module
import repro.serve.jobs as jobs_module
from tests.corpus.generators import planted_ksat
from repro.cnf.dimacs import write_dimacs
from repro.core.config import SamplerConfig
from repro.core.task import SamplingTask
from repro.serve import SamplingService

CONFIG = SamplerConfig(batch_size=32, seed=0, max_rounds=2)


@pytest.fixture
def parses(monkeypatch):
    """Count every DIMACS parse, whichever entry point makes it."""
    calls = []
    original = dimacs_module.parse_dimacs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(dimacs_module, "parse_dimacs", counting)
    monkeypatch.setattr(jobs_module, "parse_dimacs", counting)
    return calls


def _dimacs(seed: int) -> str:
    return write_dimacs(planted_ksat(14, 30, 3, seed=seed), include_comments=False)


@pytest.fixture(params=["dimacs", "path"])
def source(request, tmp_path):
    """A never-seen formula per call, as DIMACS text or as a ``.cnf`` path."""
    counter = iter(range(100))

    def make():
        text = _dimacs(next(counter))
        if request.param == "dimacs":
            return text
        path = tmp_path / f"f{len(list(tmp_path.iterdir()))}.cnf"
        path.write_text(text)
        return str(path)

    return make


def _run(service, src, **options):
    job_id = service.submit(src, num_solutions=20, config=CONFIG, **options)
    state = service._jobs[job_id]
    result = service.result(job_id)
    assert result.status == "done"
    assert state.formula is None
    return result


def test_plain_cold_job_parses_once(parses, source):
    with SamplingService(num_workers=0) as service:
        src = source()
        job_id = service.submit(src, num_solutions=20, config=CONFIG)
        assert service._jobs[job_id].formula is not None  # handed to the build
        assert len(parses) == 1
        result = service.result(job_id)
        assert result.status == "done"
        assert result.members[0]["cache_hit"] is False
        assert service._jobs[job_id].formula is None
        assert len(parses) == 1


def test_memo_hit_parses_nothing(parses, source):
    with SamplingService(num_workers=0) as service:
        src = source()
        first = _run(service, src)
        assert len(parses) == 1
        second = _run(service, src)
        assert len(parses) == 1
        assert second.members[0]["cache_hit"] is True
        np.testing.assert_array_equal(
            second.solutions.to_matrix(), first.solutions.to_matrix()
        )


def test_coalesced_jobs_parse_once(parses, source):
    with SamplingService(num_workers=0) as service:
        src = source()
        primary = service.submit(src, num_solutions=20, config=CONFIG)
        follower = service.submit(src, num_solutions=20, config=CONFIG)
        assert service._jobs[follower].primary == primary
        assert service._jobs[follower].formula is None
        assert service.result(follower).status == "done"
        assert service._jobs[primary].formula is None
        assert len(parses) == 1


def test_portfolio_job_parses_once(parses, source):
    with SamplingService(num_workers=0) as service:
        result = _run(service, source(), portfolio=2)
        assert len(result.members) == 2
        assert len(parses) == 1


def test_incremental_jobs_parse_once_each(parses, source):
    with SamplingService(num_workers=0) as service:
        src = source()
        task = SamplingTask.build(assume=[1])
        # Cold: no warm parent, so the build reads the handed-over base formula.
        cold = _run(service, src, task=task)
        assert len(parses) == 1
        assert cold.members[0]["cache_hit"] is False
        # Warm parent, new delta: the submit parse signs it; the build derives.
        _run(service, src)
        assert len(parses) == 2
        derived = _run(service, src, task=SamplingTask.build(assume=[2]))
        assert len(parses) == 3
        assert derived.members[0]["incremental_artifact"] is True


def test_pooled_coordinator_keeps_no_formula(parses, source):
    with SamplingService(num_workers=1) as service:
        src = source()
        job_id = service.submit(src, num_solutions=20, config=CONFIG)
        assert service._jobs[job_id].formula is None
        assert len(parses) == 1  # the submit parse; the worker parses its own
        assert service.result(job_id, timeout=120).status == "done"
