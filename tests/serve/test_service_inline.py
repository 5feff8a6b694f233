"""End-to-end tests of SamplingService in inline mode (num_workers=0).

Inline mode executes tasks sequentially in this process, so every scheduling
behaviour — coalescing, portfolio cancellation, cache reuse, streaming — is
exactly reproducible and can be asserted bitwise.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.cnf.dimacs import DimacsError, parse_dimacs
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.signatures import formula_signature
from repro.core.task import SamplingTask
from repro.serve import SamplingJob, SamplingService, jobs, parse_manifest
from tests.conftest import FIG1_DIMACS

CONFIG = SamplerConfig(batch_size=32, seed=0)


@pytest.fixture
def service():
    with SamplingService(num_workers=0) as svc:
        yield svc


@pytest.fixture
def fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


class TestBasics:
    def test_matches_direct_sampler(self, service, fig1):
        job_id = service.submit(fig1, num_solutions=16, config=CONFIG)
        result = service.result(job_id)
        direct = GradientSATSampler(
            parse_dimacs(FIG1_DIMACS), config=CONFIG
        ).sample(16)
        assert result.status == "done"
        assert np.array_equal(
            result.solutions.to_matrix(), direct.solutions.to_matrix()
        )
        member = result.members[0]
        assert member["status"] == "done"
        assert member["cache_hit"] is False

    def test_tautology_only_variable_takes_both_values(self, service):
        """x3 occurs only in a tautology, so all 6 models are reachable."""
        formula = CNF([[1, 2], [3, -3]], num_variables=3)
        result = service.result(
            service.submit(formula, num_solutions=6, config=SamplerConfig(batch_size=64, seed=0))
        )
        assert result.status == "done" and result.num_unique == 6
        assert set(result.solutions.to_matrix()[:, 2].tolist()) == {False, True}

    def test_solutions_satisfy_formula(self, service, fig1):
        result = service.result(service.submit(fig1, num_solutions=16, config=CONFIG))
        matrix = result.solutions.to_matrix()
        assert matrix.shape[0] >= 1
        assert bool(fig1.evaluate_batch(matrix).all())

    def test_result_is_idempotent(self, service, fig1):
        job_id = service.submit(fig1, num_solutions=8, config=CONFIG)
        assert service.result(job_id) is service.result(job_id)

    def test_unknown_job_id(self, service):
        with pytest.raises(KeyError):
            service.result("nope")

    def test_submit_after_close_rejected(self, fig1):
        service = SamplingService(num_workers=0)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(fig1, num_solutions=1, config=CONFIG)

    def test_fifo_across_jobs(self, service, fig1, tiny_sat_formula):
        first = service.submit(fig1, num_solutions=8, config=CONFIG)
        second = service.submit(tiny_sat_formula, num_solutions=4, config=CONFIG)
        # asking for the later job runs the earlier one too (FIFO)
        result = service.result(second)
        assert result.status == "done"
        assert service._state(first).done  # noqa: SLF001 - deliberate peek


class TestCaching:
    def test_same_formula_compiles_once(self, service, fig1):
        first = service.result(service.submit(fig1, num_solutions=8, config=CONFIG))
        second = service.result(
            service.submit(
                parse_dimacs(FIG1_DIMACS),
                num_solutions=8,
                config=CONFIG.with_(seed=1),  # different seed: not coalesced
            )
        )
        assert first.members[0]["cache_hit"] is False
        assert second.members[0]["cache_hit"] is True
        stats = service.cache_stats()
        assert stats["entries"] == 1
        assert stats["hits"] >= 1


class TestCoalescing:
    def test_identical_jobs_share_one_run(self, service, fig1):
        a = service.submit(fig1, num_solutions=12, config=CONFIG)
        b = service.submit(parse_dimacs(FIG1_DIMACS), num_solutions=12, config=CONFIG)
        ra, rb = service.result(a), service.result(b)
        assert rb.coalesced_with == a
        assert rb.solutions is ra.solutions
        assert rb.summary["job_id"] == b
        # only one task actually sampled
        assert service.cache_stats()["misses"] == 1
        assert service.cache_stats()["hits"] == 0

    def test_coalesce_false_runs_separately(self, service, fig1):
        a = service.submit(fig1, num_solutions=12, config=CONFIG)
        b = service.submit(fig1, num_solutions=12, config=CONFIG, coalesce=False)
        ra, rb = service.result(a), service.result(b)
        assert rb.coalesced_with is None
        # identical configs: identical (but separately computed) solutions
        assert rb.solutions is not ra.solutions
        assert np.array_equal(ra.solutions.to_matrix(), rb.solutions.to_matrix())

    def test_different_targets_not_coalesced(self, service, fig1):
        a = service.submit(fig1, num_solutions=12, config=CONFIG)
        b = service.submit(fig1, num_solutions=13, config=CONFIG)
        assert service.result(b).coalesced_with is None

    def test_finished_primary_does_not_adopt_late_jobs(self, service, fig1):
        a = service.submit(fig1, num_solutions=12, config=CONFIG)
        service.result(a)
        b = service.submit(fig1, num_solutions=12, config=CONFIG)
        assert service.result(b).coalesced_with is None


class TestPortfolio:
    def test_first_to_target_cancels_rest(self, service, fig1):
        job_id = service.submit(fig1, num_solutions=4, config=CONFIG, portfolio=3)
        result = service.result(job_id)
        statuses = [member["status"] for member in result.members]
        # member 0 reaches the tiny target alone; the rest are cancelled
        assert statuses[0] == "done"
        assert statuses[1:] == ["cancelled", "cancelled"]
        assert result.summary["cancelled_members"] == 2
        assert result.num_unique >= 4

    def test_members_get_distinct_seeds_and_merge_dedups(self, service, fig1):
        job_id = service.submit(
            fig1, num_solutions=10_000, config=CONFIG, portfolio=2
        )
        result = service.result(job_id)
        assert [member["seed"] for member in result.members] == [0, 1]
        matrix = result.solutions.to_matrix()
        # exact dedup: no repeated rows in the merged set
        assert len(np.unique(np.packbits(matrix, axis=1), axis=0)) == matrix.shape[0]

    def test_merged_set_is_reproducible(self, fig1):
        def run():
            with SamplingService(num_workers=0) as svc:
                job_id = svc.submit(
                    fig1,
                    num_solutions=40,
                    config=CONFIG,
                    portfolio=[{"learning_rate": 10.0}, {"learning_rate": 5.0}],
                )
                return svc.result(job_id).solutions.to_matrix()

        assert np.array_equal(run(), run())

    def test_merge_is_member_major(self, service, fig1):
        job_id = service.submit(
            fig1, num_solutions=10_000, config=CONFIG, portfolio=2
        )
        result = service.result(job_id)
        member0 = None
        for state in [service._state(job_id)]:  # noqa: SLF001 - deliberate peek
            member0 = state.tasks[0].solutions.to_matrix()
        assert np.array_equal(
            result.solutions.to_matrix()[: member0.shape[0]], member0
        )


class TestStreaming:
    def test_stream_rounds_rebuild_the_result(self, service, fig1):
        job_id = service.submit(fig1, num_solutions=60, config=CONFIG)
        chunks = list(service.stream(job_id))
        assert chunks, "expected at least one round"
        stacked = np.concatenate(chunks, axis=0)
        result = service.result(job_id)
        assert np.array_equal(stacked, result.solutions.to_matrix())

    def test_follower_streams_primary_rounds(self, service, fig1):
        a = service.submit(fig1, num_solutions=12, config=CONFIG)
        b = service.submit(fig1, num_solutions=12, config=CONFIG)
        assert sum(chunk.shape[0] for chunk in service.stream(b)) == service.result(
            a
        ).num_unique


class TestErrorsAndManifests:
    def test_bad_path_job_errors_gracefully(self, service, tmp_path):
        with pytest.raises(FileNotFoundError):
            # the formula is materialised at submit time (signature + width),
            # so a dead path fails fast, before any task is queued
            service.submit(str(tmp_path / "missing.cnf"), num_solutions=4)

    def test_unsat_instance_reports_zero_solutions(self, service, tiny_unsat_formula):
        result = service.result(
            service.submit(tiny_unsat_formula, num_solutions=4, config=CONFIG)
        )
        assert result.status == "done"
        assert result.num_unique == 0

    def test_run_manifest(self, service):
        import json

        entry = {"dimacs": FIG1_DIMACS, "num_solutions": 8, "config": {"batch_size": 32}}
        jobs = parse_manifest(json.dumps([entry, dict(entry)]))
        results = service.run_manifest(jobs)
        assert [result.status for result in results] == ["done", "done"]
        assert results[1].coalesced_with == results[0].job_id

    def test_manifest_replay_gets_fresh_ids(self, service):
        import json

        text = json.dumps([{"dimacs": FIG1_DIMACS, "num_solutions": 4,
                            "config": {"batch_size": 32}}])
        first = service.run_manifest(parse_manifest(text))
        second = service.run_manifest(parse_manifest(text))
        # defaulted manifest ids are assigned by the service, so replaying
        # the same manifest on one long-lived service never collides
        assert first[0].job_id != second[0].job_id

    def test_explicit_id_collides_with_auto_id_safely(self, service, fig1):
        service.result(service.submit(fig1, num_solutions=4, config=CONFIG,
                                      job_id="job-0"))
        auto = service.submit(fig1, num_solutions=4, config=CONFIG, coalesce=False)
        assert auto != "job-0"
        assert service.result(auto).status == "done"


class TestForget:
    def test_forget_releases_state(self, service, fig1):
        job_id = service.submit(fig1, num_solutions=8, config=CONFIG)
        result = service.result(job_id)
        assert service.forget(job_id) is result
        with pytest.raises(KeyError):
            service.result(job_id)

    def test_forget_running_job_refused(self, service, fig1):
        job_id = service.submit(fig1, num_solutions=8, config=CONFIG)
        with pytest.raises(RuntimeError):
            service.forget(job_id)
        service.result(job_id)

    def test_forgotten_primary_keeps_followers_working(self, service, fig1):
        a = service.submit(fig1, num_solutions=12, config=CONFIG)
        b = service.submit(fig1, num_solutions=12, config=CONFIG)
        service.result(a)
        service.forget(a)
        result = service.result(b)
        assert result.coalesced_with == a
        assert result.num_unique > 0


#: One source of each kind; the instance is a small registry formula.
SOURCE_KINDS = ("path", "dimacs", "instance")


def make_source(kind, tmp_path):
    if kind == "path":
        path = tmp_path / "fig1.cnf"
        path.write_text(FIG1_DIMACS)
        return {"path": str(path)}
    if kind == "dimacs":
        return {"dimacs": FIG1_DIMACS}
    return {"instance": "or-50-10-7-UC-10"}


def source_ops():
    """The service-process ``repro_serve_source_ops_total`` series."""
    dump = obs.registry().to_dict()
    series = dump.get("repro_serve_source_ops_total", {}).get("series", {})
    return {op: float(series.get(op, 0.0)) for op in ("hit", "miss")}


@pytest.fixture
def count_parses(monkeypatch):
    """Count submit-side parses (calls of ``repro.serve.jobs.load_source``)."""
    calls = []
    original = jobs.load_source

    def counting(spec, data=None):
        calls.append(spec)
        return original(spec, data)

    monkeypatch.setattr(jobs, "load_source", counting)
    return calls


class TestSourceMemo:
    def test_warm_path_submits_parse_once(self, service, tmp_path, count_parses):
        source = make_source("path", tmp_path)
        for seed in range(3):
            result = service.result(
                service.submit(source, num_solutions=4, config=CONFIG.with_(seed=seed))
            )
            assert result.status == "done"
        assert len(count_parses) == 1

    def test_rewritten_file_gets_the_new_signature(self, service, tmp_path):
        source = make_source("path", tmp_path)
        first = service.submit(source, num_solutions=8, config=CONFIG)
        old_rows = service.result(first).solutions.to_matrix()
        # Pin a variable the old rows disagree on, so an artifact of the old
        # formula would produce rows the new one rejects.
        column = next(
            j for j in range(old_rows.shape[1]) if len(set(old_rows[:, j])) == 2
        )
        literal = (column + 1) if old_rows[0, column] else -(column + 1)
        edited = parse_dimacs(FIG1_DIMACS)
        edited.add_clause([literal])
        (tmp_path / "fig1.cnf").write_text(
            FIG1_DIMACS.replace("p cnf 14 21", "p cnf 14 22") + f"{literal} 0\n"
        )
        second = service.submit(source, num_solutions=8, config=CONFIG.with_(seed=1))
        rows = service.result(second).solutions.to_matrix()
        assert service._state(second).signature == formula_signature(edited)  # noqa: SLF001
        assert service._state(second).signature != service._state(first).signature  # noqa: SLF001
        assert not edited.evaluate_batch(old_rows).all()
        assert rows.shape[0] > 0 and edited.evaluate_batch(rows).all()

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_memo_hit_rows_match_a_fresh_memo_miss(self, service, tmp_path, kind):
        source = make_source(kind, tmp_path)
        service.result(service.submit(source, num_solutions=8, config=CONFIG))
        before = source_ops()
        hit = service.result(
            service.submit(source, num_solutions=8, config=CONFIG.with_(seed=5))
        )
        assert source_ops()["hit"] == before["hit"] + 1
        with SamplingService(num_workers=0) as fresh:
            miss = fresh.result(
                fresh.submit(source, num_solutions=8, config=CONFIG.with_(seed=5))
            )
        assert hit.solutions.to_matrix().tobytes() == miss.solutions.to_matrix().tobytes()

    def test_malformed_dimacs_raises_on_every_submit(self, service, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 2 1\n1 x 0\n")
        for _ in range(2):
            with pytest.raises(DimacsError):
                service.submit(str(path), num_solutions=4, config=CONFIG)

    def test_incremental_task_over_warm_path_gets_effective_signature(
        self, service, tmp_path
    ):
        source = make_source("path", tmp_path)
        service.result(service.submit(source, num_solutions=4, config=CONFIG))
        task = SamplingTask.build(assume=(1,))
        job_id = service.submit(source, num_solutions=4, config=CONFIG, task=task)
        base = parse_dimacs(FIG1_DIMACS)
        state = service._state(job_id)  # noqa: SLF001 - deliberate peek
        assert state.base_signature == formula_signature(base)
        assert state.signature == formula_signature(task.apply_to(base))
        assert state.signature != state.base_signature
        assert service.result(job_id).status == "done"

    def test_hits_and_misses_are_counted(self, service, tmp_path):
        source = make_source("path", tmp_path)
        before = source_ops()
        for seed in range(2):
            service.result(
                service.submit(source, num_solutions=4, config=CONFIG.with_(seed=seed))
            )
        merged = service.merged_metrics()["repro_serve_source_ops_total"]["series"]
        assert merged["miss"] - before["miss"] == 1
        assert merged["hit"] - before["hit"] == 1

    def test_job_span_records_source_hit(self, tmp_path):
        source = make_source("path", tmp_path)
        trace_path = tmp_path / "trace.jsonl"
        with SamplingService(num_workers=0, trace=str(trace_path)) as traced:
            for seed in range(2):
                traced.result(
                    traced.submit(source, num_solutions=4, config=CONFIG.with_(seed=seed))
                )
        spans, _metrics = obs.read_trace(trace_path)
        hits = [
            record["attributes"]["source_hit"]
            for record in spans
            if record["name"] == "serve.job"
        ]
        assert hits == [False, True]

    def test_elapsed_includes_submit_side_parse(self, service, monkeypatch):
        original = jobs.load_source

        def slow(spec, data=None):
            time.sleep(0.05)
            return original(spec, data)

        monkeypatch.setattr(jobs, "load_source", slow)
        result = service.result(service.submit(FIG1_DIMACS, num_solutions=4, config=CONFIG))
        assert result.elapsed_seconds >= 0.05
        assert result.summary["seconds"] >= 0.05
