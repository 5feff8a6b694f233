"""End-to-end cross-process telemetry: a real 2-worker spawn pool.

One shared service runs a few small jobs with a trace file open; the
assertions then cover the whole pipeline the ISSUE's acceptance scenario
describes — worker snapshots ride the result queue, the aggregator merges
their metrics, the trace file holds every process's spans with worker task
spans parented under the service's job spans, and ``repro-sat obs`` can
reconstruct a per-job timeline from the file alone.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.cnf.delta import ClauseDelta
from repro.cnf.dimacs import parse_dimacs
from repro.core.config import SamplerConfig
from repro.obs.render import group_spans_by_trace, merge_metric_records, render_trace
from repro.serve import SamplingService
from tests.conftest import FIG1_DIMACS

CONFIG = SamplerConfig(batch_size=32, seed=0)

#: Generous bound for pool operations on a loaded CI box.
TIMEOUT = 120.0


@pytest.fixture(scope="module")
def traced_pool(tmp_path_factory):
    """A 2-worker service that ran two jobs with a JSONL trace open."""
    trace_path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    # The process registry is global and other suites in a full session run
    # inline serve jobs, so service-process counters are asserted as deltas.
    baseline = obs.artifact_counters()
    service = SamplingService(num_workers=2, trace=str(trace_path))
    try:
        # Three distinct formulas (distinct signatures) queued at once keep
        # both workers busy, so each worker builds at least one artifact.
        formulas = []
        for index, extra in enumerate(((), (1, 6), (-1, 14))):
            formula = parse_dimacs(FIG1_DIMACS, name=f"fig1-{index}")
            if extra:
                formula = formula.with_delta(ClauseDelta(add=[extra]))
            formulas.append(formula)
        job_ids = [
            service.submit(formula, num_solutions=8,
                           config=CONFIG.with_(seed=index), coalesce=False)
            for index, formula in enumerate(formulas)
        ]
        results = {
            job_id: service.result(job_id, timeout=TIMEOUT)
            for job_id in job_ids
        }
        merged = service.merged_metrics()
    finally:
        service.close()
    spans, metric_records = obs.read_trace(trace_path)
    return {
        "results": results,
        "merged": merged,
        "spans": spans,
        "metric_records": metric_records,
        "baseline": baseline,
    }


class TestPoolTelemetryMerge:
    def test_jobs_completed(self, traced_pool):
        for result in traced_pool["results"].values():
            assert result.status == "done"
            assert result.num_unique >= 8

    def test_worker_snapshots_arrived_from_foreign_pids(self, traced_pool):
        # Task spans reach the service only inside worker snapshots.
        sources = {
            (record["pid"], record["attributes"]["worker"])
            for record in traced_pool["spans"]
            if record["name"] == "serve.task"
        }
        assert len(sources) == 2  # both workers reported
        assert all(pid != os.getpid() for pid, _worker in sources)
        assert sorted(worker for _pid, worker in sources) == [0, 1]

    def test_trace_spans_cover_all_processes(self, traced_pool):
        pids = {record["pid"] for record in traced_pool["spans"]}
        assert os.getpid() in pids  # the service's own spans
        assert len(pids) == 3  # service + 2 workers

    def test_worker_spans_parent_under_service_job_spans(self, traced_pool):
        spans = traced_pool["spans"]
        job_ids = {record["span_id"] for record in spans
                   if record["name"] == "serve.job"}
        tasks = [record for record in spans if record["name"] == "serve.task"]
        assert job_ids and tasks
        assert all(record["parent_id"] in job_ids for record in tasks)
        assert all(record["pid"] != os.getpid() for record in tasks)

    def test_each_job_has_its_own_trace_tree(self, traced_pool):
        groups = group_spans_by_trace(traced_pool["spans"])
        for job_id in traced_pool["results"]:
            group = groups.get(job_id)
            assert group, f"no spans tagged with {job_id}"
            names = {record["name"] for record in group}
            assert "serve.job" in names
            assert "sampler.sample" in names  # worker-side work in the tree
            rendered = render_trace(group, trace_id=job_id)
            assert f"== {job_id}" in rendered
            assert "serve.task" in rendered

    def test_worker_metrics_merge_into_the_service_view(self, traced_pool):
        counters = obs.artifact_counters(traced_pool["merged"])
        baseline = traced_pool["baseline"]
        # 3 distinct formulas on a cold pool: every artifact was built once.
        built = counters.get("artifacts_built", 0.0)
        assert built - baseline.get("artifacts_built", 0.0) == 3.0
        # Worker-side counters (only incremented in worker processes) made
        # it across the queue into the merged registry: the workers' memory
        # caches were cold, so their misses land in the merged view.
        misses = counters.get("cache_memory_miss", 0.0)
        assert misses - baseline.get("cache_memory_miss", 0.0) >= 3.0

    def test_trace_file_metrics_match_the_live_merge(self, traced_pool):
        from_file = merge_metric_records(traced_pool["metric_records"])
        live = traced_pool["merged"]
        file_counters = obs.artifact_counters(from_file)
        live_counters = obs.artifact_counters(live)
        assert file_counters == live_counters
        assert file_counters  # non-empty: the anti-drift pair is real
