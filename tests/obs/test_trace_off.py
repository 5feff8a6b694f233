"""An explicit ``off`` keeps tracing off, whatever ``REPRO_TRACE`` says.

The environment variable is read only by a scope with no spec of its own,
and never inside an open ``"off"`` scope: neither the sampler (inline or in
a spawned worker, which inherits the environment) nor a nested
``sample_cnf`` may open the trace file it names.
"""

from __future__ import annotations

from repro import obs
from repro.core.config import SamplerConfig
from repro.core.pipeline import sample_cnf
from repro.serve import SamplingService
from tests.conftest import FIG1_DIMACS

CONFIG = SamplerConfig(batch_size=64, seed=0)

#: Generous bound for pool operations on a loaded CI box.
TIMEOUT = 120.0


def _run_one_job(num_workers: int) -> None:
    with SamplingService(num_workers=num_workers, store_dir=False, trace=False) as service:
        job_id = service.submit(FIG1_DIMACS, num_solutions=10, config=CONFIG)
        assert service.result(job_id, timeout=TIMEOUT).status == "done"


def test_service_trace_false_keeps_inline_sampling_untraced(monkeypatch, tmp_path):
    leak = tmp_path / "leak.jsonl"
    monkeypatch.setenv(obs.TRACE_ENV_VAR, str(leak))
    _run_one_job(num_workers=0)
    assert not leak.exists()
    assert not obs.tracing_enabled()


def test_service_trace_false_keeps_pool_workers_untraced(monkeypatch, tmp_path):
    # Spawned workers inherit REPRO_TRACE; they must still open no file.
    leak = tmp_path / "leak.jsonl"
    monkeypatch.setenv(obs.TRACE_ENV_VAR, str(leak))
    _run_one_job(num_workers=1)
    assert not leak.exists()


def test_off_scope_holds_over_a_nested_sample_cnf(monkeypatch, tmp_path):
    leak = tmp_path / "leak.jsonl"
    monkeypatch.setenv(obs.TRACE_ENV_VAR, str(leak))
    with obs.trace_scope("off"):
        result = sample_cnf(FIG1_DIMACS, num_solutions=10, config=CONFIG)
        assert not obs.tracing_enabled()
    assert result.sample.num_unique > 0
    assert not leak.exists()
    # Once the off scope closes, a scope with no spec reads the variable.
    sample_cnf(FIG1_DIMACS, num_solutions=10, config=CONFIG)
    spans, _ = obs.read_trace(leak)
    assert "pipeline.sample_cnf" in {record["name"] for record in spans}
