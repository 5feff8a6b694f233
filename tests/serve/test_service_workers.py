"""End-to-end tests of SamplingService with a spawn process pool.

These run real subprocess workers, so the suite keeps them few and small:
one shared 2-worker service exercises correctness, coalescing, portfolio
merging and streaming; reproducibility across runs is asserted on fresh
1-worker services (where execution order is deterministic).
"""

import numpy as np
import pytest

from repro import obs
from repro.cnf.dimacs import parse_dimacs
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.signatures import formula_signature
from repro.serve import RetryPolicy, SamplingService
from repro.serve.workers import MSG_DONE, MSG_ERROR, MSG_ROUND, execute_task, pack_rows, unpack_rows
from tests.conftest import FIG1_DIMACS

CONFIG = SamplerConfig(batch_size=32, seed=0)

#: Generous bound for pool operations on a loaded CI box.
TIMEOUT = 120.0


@pytest.fixture(scope="module")
def pool():
    with SamplingService(num_workers=2) as service:
        yield service


@pytest.fixture
def fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


class TestPool:
    def test_job_matches_direct_sampler(self, pool, fig1):
        job_id = pool.submit(fig1, num_solutions=16, config=CONFIG, coalesce=False)
        result = pool.result(job_id, timeout=TIMEOUT)
        direct = GradientSATSampler(parse_dimacs(FIG1_DIMACS), config=CONFIG).sample(16)
        assert result.status == "done"
        assert np.array_equal(result.solutions.to_matrix(), direct.solutions.to_matrix())

    def test_warm_worker_reuses_artifact(self, pool, fig1):
        a = pool.submit(fig1, num_solutions=8, config=CONFIG.with_(seed=11), coalesce=False)
        first = pool.result(a, timeout=TIMEOUT)
        b = pool.submit(fig1, num_solutions=8, config=CONFIG.with_(seed=12), coalesce=False)
        second = pool.result(b, timeout=TIMEOUT)
        # affinity routes the second job to the worker that compiled fig1
        assert second.members[0]["worker"] == first.members[0]["worker"]
        assert second.members[0]["cache_hit"] is True

    def test_coalesced_followers_share_the_pool(self, pool, fig1):
        a = pool.submit(fig1, num_solutions=12, config=CONFIG.with_(seed=21))
        b = pool.submit(fig1, num_solutions=12, config=CONFIG.with_(seed=21))
        ra = pool.result(a, timeout=TIMEOUT)
        rb = pool.result(b, timeout=TIMEOUT)
        assert rb.coalesced_with == a
        assert rb.solutions is ra.solutions

    def test_portfolio_spreads_and_merges_exactly(self, pool, fig1):
        job_id = pool.submit(
            fig1,
            num_solutions=10_000,
            config=CONFIG.with_(seed=31),
            portfolio=2,
            coalesce=False,
        )
        result = pool.result(job_id, timeout=TIMEOUT)
        assert len(result.members) == 2
        matrix = result.solutions.to_matrix()
        assert len(np.unique(np.packbits(matrix, axis=1), axis=0)) == matrix.shape[0]
        assert bool(fig1.evaluate_batch(matrix).all())

    def test_stream_rebuilds_single_member_job(self, pool, fig1):
        job_id = pool.submit(
            fig1, num_solutions=40, config=CONFIG.with_(seed=41), coalesce=False
        )
        chunks = list(pool.stream(job_id))
        result = pool.result(job_id, timeout=TIMEOUT)
        assert np.array_equal(np.concatenate(chunks, axis=0), result.solutions.to_matrix())

    def test_result_timeout_raises(self, pool, fig1):
        job_id = pool.submit(
            fig1, num_solutions=10_000, config=CONFIG.with_(seed=51), coalesce=False
        )
        with pytest.raises(TimeoutError):
            pool.result(job_id, timeout=0.0)
        # the job is unharmed and can still be collected
        assert pool.result(job_id, timeout=TIMEOUT).status == "done"


class TestPoolFailureModes:
    def test_dead_worker_surfaces_as_job_error_not_hang(self):
        import time

        from repro.instances.registry import get_instance

        # A genuinely long job: the ~1 s artifact build produces no worker
        # messages at all, then sampling runs for many more seconds (huge
        # target, no stall cutoff) — ample window for both assertions.
        formula = get_instance("s15850a_3_2").build_cnf()
        config = CONFIG.with_(
            batch_size=4096, iterations=10, max_rounds=64, stall_rounds=None
        )
        # One attempt: the death spends the whole retry budget, so the job
        # finalizes at once; the recovery path is covered in tests/faults/.
        service = SamplingService(num_workers=1, retry=RetryPolicy(max_attempts=1))
        try:
            job_id = service.submit(formula, num_solutions=10**9, config=config)
            # the timeout must fire on schedule even while the worker is
            # silent (old behaviour: blocked until the first message)
            start = time.perf_counter()
            with pytest.raises(TimeoutError):
                service.result(job_id, timeout=0.3)
            assert time.perf_counter() - start < 2.0
            # kill the worker outright: the job must finalize as poisoned
            # instead of blocking result() forever
            service._driver.workers[0].process.terminate()  # noqa: SLF001
            result = service.result(job_id, timeout=TIMEOUT)
            assert result.status == "poisoned"
            assert "died" in (result.error or "")
        finally:
            service.close()


class TestSingleWorkerDeterminism:
    def test_portfolio_merge_bitwise_reproducible(self, fig1):
        def run():
            with SamplingService(num_workers=1) as service:
                job_id = service.submit(
                    fig1,
                    num_solutions=40,
                    config=CONFIG,
                    portfolio=[{"learning_rate": 10.0}, {"learning_rate": 5.0}],
                )
                return service.result(job_id, timeout=TIMEOUT).solutions.to_matrix()

        first = run()
        assert first.shape[0] > 0
        assert np.array_equal(first, run())


def source_hits():
    """Source-memo hits counted in this (the coordinator) process."""
    series = obs.registry().to_dict().get("repro_serve_source_ops_total", {})
    return float(series.get("series", {}).get("hit", 0.0))


class TestPooledSourceMemo:
    def test_memo_hit_rows_match_a_fresh_memo_miss(self, tmp_path):
        path = tmp_path / "fig1.cnf"
        path.write_text(FIG1_DIMACS)
        sources = [
            {"path": str(path)},
            {"dimacs": FIG1_DIMACS},
            {"instance": "or-50-10-7-UC-10"},
        ]
        hit_config = CONFIG.with_(seed=5)

        def rows(service, job_id):
            return service.result(job_id, timeout=TIMEOUT).solutions.to_matrix().tobytes()

        with SamplingService(num_workers=1) as warm:
            for source in sources:
                rows(warm, warm.submit(source, num_solutions=8, config=CONFIG))
            before = source_hits()
            hits = [
                rows(warm, warm.submit(source, num_solutions=8, config=hit_config))
                for source in sources
            ]
            assert source_hits() == before + len(sources)
        with SamplingService(num_workers=1) as fresh:
            misses = [
                rows(fresh, fresh.submit(source, num_solutions=8, config=hit_config))
                for source in sources
            ]
        assert hits == misses


class TestWorkerUnits:
    def test_pack_rows_round_trip(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((5, 13)) < 0.5
        blob, rows, cols = pack_rows(matrix)
        assert np.array_equal(unpack_rows(blob, rows, cols), matrix)
        assert unpack_rows(b"", 0, 13).shape == (0, 13)

    def test_execute_task_reports_errors_not_raises(self):
        from repro.serve.cache import ArtifactCache

        messages = []
        execute_task(
            {
                "key": ("job", 0),
                "group": "job",
                "source": {"path": "/nonexistent/missing.cnf"},
                "signature": "sig",
                "config": {},
                "num_solutions": 4,
            },
            ArtifactCache(),
            should_stop=None,
            emit=lambda kind, key, payload: messages.append((kind, key, payload)),
        )
        assert len(messages) == 1
        kind, key, payload = messages[0]
        assert kind == MSG_ERROR
        assert key == ("job", 0)
        assert "FileNotFoundError" in payload["error"]

    def test_execute_task_refuses_a_source_changed_since_submit(self, tmp_path):
        from repro.serve.cache import ArtifactCache
        from repro.serve.jobs import config_to_dict, read_source

        text = "p cnf 3 2\n1 2 0\n-1 3 0\n"
        path = tmp_path / "a.cnf"
        path.write_text(text)
        source = {"path": str(path)}
        task = {
            "key": ("job", 0),
            "group": "job",
            "source": source,
            "digest": read_source(source)[0],
            "signature": formula_signature(parse_dimacs(text)),
            "config": config_to_dict(CONFIG),
            "num_solutions": 4,
        }
        cache = ArtifactCache()
        messages = []

        def run():
            messages.clear()
            execute_task(
                task, cache, should_stop=None, emit=lambda *message: messages.append(message)
            )
            return messages[-1]

        path.write_text("p cnf 3 3\n-1 0\n-2 0\n-3 0\n")
        kind, _, payload = run()
        assert [message[0] for message in messages] == [MSG_ERROR]
        assert f"{path}: the source changed since the job was submitted" in payload["error"]
        assert len(cache) == 0
        path.write_text(text)
        kind, _, payload = run()
        assert kind == MSG_DONE and payload["summary"]["unique_solutions"] > 0

    def test_execute_task_skips_cancelled_group(self, fig1):
        from repro.serve.cache import ArtifactCache
        from repro.serve.jobs import config_to_dict, normalize_source

        messages = []
        execute_task(
            {
                "key": ("job", 1),
                "group": "job",
                "source": normalize_source(fig1),
                "signature": "sig",
                "config": config_to_dict(CONFIG),
                "num_solutions": 4,
            },
            ArtifactCache(),
            should_stop=lambda: True,
            emit=lambda kind, key, payload: messages.append((kind, key, payload)),
        )
        assert [message[0] for message in messages] == [MSG_DONE]
        assert messages[0][2]["cancelled"] is True
        assert messages[0][2]["summary"] is None
