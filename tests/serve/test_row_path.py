"""The serving row path: a row is deduplicated once, and streamed once.

The sampler's :class:`SolutionSet` makes every round's rows unique; a
one-member job's first attempt appends them to the member's set without
keying them again, and that set is the job's result.  Only a replayed
attempt and a merge across portfolio members run a second dedup.  Inline
jobs hand the round's matrix over directly; only a pool worker packs rows
for the result queue.

A worker killed mid-job is covered in ``tests/faults/test_supervision.py``
(its replayed rounds must not stream again); a replay that partly overlaps
what the dead attempt streamed is driven through the scheduler core here.
"""

import numpy as np
import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.core import solutions as solutions_module
from repro.core.config import SamplerConfig
from repro.core.solutions import SolutionSet
from repro.core.task import SamplingTask
from repro.serve import RetryPolicy, SamplingJob, SamplingService
from repro.serve import service as service_module
from repro.serve import workers as workers_module
from repro.serve.core import JobState, SchedulerCore
from repro.serve.workers import MSG_DONE, MSG_ROUND
from tests.conftest import FIG1_DIMACS

CONFIG = SamplerConfig(batch_size=32, seed=0)

#: Generous bound for pool operations on a loaded CI box.
TIMEOUT = 120.0

#: 0-based projection columns of the projected task below (variables 1-4).
PROJECT = (0, 1, 2, 3)


@pytest.fixture
def fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


def keys(matrix, project=None):
    """Each row's dedup key (its projected columns, when projected)."""
    if project is not None:
        matrix = matrix[:, list(project)]
    return [tuple(row) for row in matrix.tolist()]


class TestOneDedup:
    def test_first_attempt_keys_each_row_once(self, fig1, monkeypatch):
        add_batch_sets = []
        calls = {"packed_rows": 0, "pack_rows": 0, "unpack_rows": 0}
        real_add_batch = SolutionSet.add_batch
        real_packed_rows = solutions_module.packed_rows

        def add_batch(self, *args, **kwargs):
            add_batch_sets.append(self)
            return real_add_batch(self, *args, **kwargs)

        def packed_rows(matrix):
            calls["packed_rows"] += 1
            return real_packed_rows(matrix)

        def counting(name):
            def forbidden(*args, **kwargs):
                calls[name] += 1
                raise AssertionError(f"an inline job called {name}")

            return forbidden

        monkeypatch.setattr(SolutionSet, "add_batch", add_batch)
        monkeypatch.setattr(solutions_module, "packed_rows", packed_rows)
        monkeypatch.setattr(workers_module, "pack_rows", counting("pack_rows"))
        monkeypatch.setattr(service_module, "unpack_rows", counting("unpack_rows"))
        with SamplingService(num_workers=0) as service:
            job_id = service.submit(fig1, num_solutions=60, config=CONFIG)
            result = service.result(job_id)
            member = service._state(job_id).tasks[0]  # noqa: SLF001 - deliberate peek
        assert result.status == "done"
        assert result.solutions is member.solutions
        rounds = result.members[0]["rounds"]
        assert rounds >= 2
        # One add_batch per round, all on one set (the sampler's), which
        # is not the job's result: the member's set never re-keys its rows.
        assert len(add_batch_sets) == rounds
        assert len({id(solutions) for solutions in add_batch_sets}) == 1
        assert add_batch_sets[0] is not result.solutions
        assert calls == {"packed_rows": rounds, "pack_rows": 0, "unpack_rows": 0}
        # The result still answers membership exactly (keys built on demand).
        matrix = result.solutions.to_matrix()
        assert result.solutions.contains(matrix[-1])
        assert not result.solutions.add(matrix[0])


def stream_and_result(service, job_id):
    chunks = list(service.stream(job_id))
    result = service.result(job_id, timeout=TIMEOUT)
    assert result.status == "done", result.error
    return chunks, np.concatenate(chunks), result


def check_one_member(service, job_id):
    _, streamed, result = stream_and_result(service, job_id)
    assert np.array_equal(streamed, result.solutions.to_matrix())
    assert len(set(keys(streamed))) == streamed.shape[0]


def check_portfolio(service, job_id, project=None):
    """Rows repeat across members only: each member's rows stream once, and
    the streamed keys are exactly the result's."""
    chunks, streamed, result = stream_and_result(service, job_id)
    members = result.members
    assert len(members) == 3
    assert streamed.shape[0] == sum(member["unique_solutions"] for member in members)
    result_keys = keys(result.solutions.to_matrix(), project)
    assert len(set(result_keys)) == len(result_keys)
    assert set(keys(streamed, project)) == set(result_keys)
    return chunks, result


class TestStreamEqualsResult:
    def test_inline(self, fig1):
        with SamplingService(num_workers=0) as service:
            check_one_member(
                service, service.submit(fig1, num_solutions=60, config=CONFIG)
            )

    def test_inline_portfolio(self, fig1):
        with SamplingService(num_workers=0) as service:
            job_id = service.submit(
                fig1, num_solutions=10_000, config=CONFIG.with_(max_rounds=4),
                portfolio=3,
            )
            check_portfolio(service, job_id)

    def test_inline_projected_portfolio(self, fig1):
        task = SamplingTask.build(project=[column + 1 for column in PROJECT])
        with SamplingService(num_workers=0) as service:
            job_id = service.submit(
                fig1, num_solutions=10_000, config=CONFIG.with_(max_rounds=4),
                portfolio=3, task=task,
            )
            chunks, result = check_portfolio(service, job_id, PROJECT)
        # Few projected patterns exist, so the members must have overlapped.
        assert sum(chunk.shape[0] for chunk in chunks) > result.num_unique

    def test_pool(self, fig1):
        with SamplingService(num_workers=1, store_dir=False) as service:
            check_one_member(
                service, service.submit(fig1, num_solutions=60, config=CONFIG)
            )
            check_portfolio(
                service,
                service.submit(
                    fig1, num_solutions=10_000, config=CONFIG.with_(max_rounds=4),
                    portfolio=3, coalesce=False,
                ),
            )


class TestReadOnlyRows:
    @pytest.mark.parametrize("num_workers", [0, 1])
    def test_writing_a_streamed_matrix_raises(self, fig1, num_workers):
        with SamplingService(num_workers=num_workers, store_dir=False) as service:
            job_id = service.submit(fig1, num_solutions=40, config=CONFIG)
            chunks = list(service.stream(job_id))
            result = service.result(job_id, timeout=TIMEOUT)
            before = result.solutions.to_matrix()
            for chunk in chunks:
                with pytest.raises(ValueError):
                    chunk[0, 0] = not chunk[0, 0]
            assert np.array_equal(result.solutions.to_matrix(), before)


class TestReplayedRound:
    def test_replay_streams_only_its_new_rows(self, fig1):
        rng = np.random.default_rng(0)
        rows = np.unique(rng.random((8, 14)) < 0.5, axis=0)[:6]
        assert rows.shape[0] == 6
        core = SchedulerCore(1, RetryPolicy(backoff_seconds=0.0))
        job = SamplingJob.build(fig1, num_solutions=100, config=CONFIG)
        state = JobState(job, "job-0", "sig", "digest", fig1.num_variables, start=0.0)
        core.submit(state, now=0.0)
        key = (state.job_id, 0)
        core.message(MSG_ROUND, key, {"rows": rows[:4].copy(), "attempt": 0}, now=0.1)
        # The dead attempt streamed rows 0-3; the replay sees rows 2-5.
        core.worker_died(0, 137, now=0.2)
        assert state.tasks[0].attempt == 1
        core.message(MSG_ROUND, key, {"rows": rows[2:].copy(), "attempt": 1}, now=0.3)
        core.message(MSG_DONE, key, {"summary": {"rounds": 2}, "attempt": 1}, now=0.4)
        chunks = state.stream_buffer
        result = core.result_of(state)
        assert [chunk.shape[0] for chunk in chunks] == [4, 2]
        assert np.array_equal(chunks[1], rows[4:])
        assert np.array_equal(np.concatenate(chunks), rows)
        assert np.array_equal(result.solutions.to_matrix(), rows)
