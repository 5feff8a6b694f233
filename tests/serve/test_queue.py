"""Tests for request coalescing and signature-affinity dispatch."""

from repro.core.config import SamplerConfig
from repro.serve.jobs import SamplingJob
from repro.serve.queue import CoalesceTable, Dispatcher, coalesce_key
from tests.conftest import FIG1_DIMACS


def make_job(**kwargs):
    return SamplingJob.build({"dimacs": FIG1_DIMACS}, **kwargs)


class TestCoalesceKey:
    def test_identical_jobs_share_a_key(self):
        a = make_job(num_solutions=10, config=SamplerConfig(seed=1))
        b = make_job(num_solutions=10, config=SamplerConfig(seed=1))
        assert coalesce_key(a, "sig") == coalesce_key(b, "sig")

    def test_any_axis_differs_key_differs(self):
        base = make_job(num_solutions=10, config=SamplerConfig(seed=1))
        key = coalesce_key(base, "sig")
        assert coalesce_key(base, "other-sig") != key
        assert coalesce_key(make_job(num_solutions=11, config=SamplerConfig(seed=1)), "sig") != key
        assert coalesce_key(make_job(num_solutions=10, config=SamplerConfig(seed=2)), "sig") != key
        assert (
            coalesce_key(make_job(num_solutions=10, config=SamplerConfig(seed=1), portfolio=2), "sig")
            != key
        )


class TestCoalesceTable:
    def test_primary_then_followers(self):
        table = CoalesceTable()
        assert table.attach(("k",), "a") is None
        assert table.attach(("k",), "b") == "a"
        assert table.attach(("k",), "c") == "a"
        assert table.release(("k",), "a") == ["b", "c"]
        # identity gone: the next equal request becomes a fresh primary
        assert table.attach(("k",), "d") is None

    def test_distinct_keys_do_not_interact(self):
        table = CoalesceTable()
        assert table.attach(("k1",), "a") is None
        assert table.attach(("k2",), "b") is None
        assert table.release(("k1",), "a") == []
        assert table.attach(("k2",), "c") == "b"


class TestDispatcher:
    def test_cold_jobs_spread_by_load(self):
        dispatcher = Dispatcher(num_workers=3)
        picks = []
        for signature in ("s1", "s2", "s3"):
            worker = dispatcher.choose(signature)
            dispatcher.record_dispatch(worker, signature)
            picks.append(worker)
        assert picks == [0, 1, 2]

    def test_warm_affinity_wins(self):
        dispatcher = Dispatcher(num_workers=3)
        dispatcher.record_dispatch(1, "hot")
        dispatcher.record_done(1)
        # worker 1 is warm for "hot": chosen despite equal load elsewhere
        assert dispatcher.choose("hot") == 1

    def test_spill_when_warm_worker_backlogged(self):
        dispatcher = Dispatcher(num_workers=2)
        for _ in range(4):
            dispatcher.record_dispatch(0, "hot")
        # backlog 4 vs 0: exceeds threshold, spill to the cold worker
        assert dispatcher.choose("hot") == 1

    def test_within_threshold_stays_warm(self):
        dispatcher = Dispatcher(num_workers=2)
        dispatcher.record_dispatch(0, "hot")
        dispatcher.record_dispatch(0, "hot")
        assert dispatcher.choose("hot") == 0

    def test_record_done_reopens_worker(self):
        dispatcher = Dispatcher(num_workers=2)
        dispatcher.record_dispatch(0, "a")
        assert dispatcher.choose("b") == 1
        dispatcher.record_dispatch(1, "b")
        dispatcher.record_done(0)
        assert dispatcher.outstanding(0) == 0
        assert dispatcher.choose("c") == 0
