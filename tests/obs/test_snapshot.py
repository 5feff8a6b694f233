"""Snapshot/aggregator semantics (single process: pids are simulated)."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry


def _metrics_dump(hits: float):
    reg = MetricsRegistry()
    reg.counter("repro_w_total", labels=("op",)).inc(hits, "hit")
    return reg.to_dict()


def _payload(pid: int, worker_id: int, hits: float, spans=()):
    return obs.TelemetrySnapshot(
        pid=pid, worker_id=worker_id, spans=list(spans),
        metrics=_metrics_dump(hits),
    ).to_payload()


def _merged_hits(aggregator) -> float:
    dump = aggregator.merged_metrics()
    series = dump.get("repro_w_total", {}).get("series", {})
    return float(series.get("hit", 0.0))


class TestTelemetrySnapshot:
    def test_payload_round_trip(self):
        snapshot = obs.TelemetrySnapshot(
            pid=123, worker_id=1,
            spans=[{"name": "s", "span_id": "a-1"}],
            metrics=_metrics_dump(2.0),
        )
        back = obs.TelemetrySnapshot.from_payload(snapshot.to_payload())
        assert back == snapshot

    def test_capture_snapshot_drains_the_ring(self):
        obs.enable_tracing()
        with obs.span("captured"):
            pass
        snapshot = obs.capture_snapshot(worker_id=3)
        assert snapshot.pid == os.getpid()
        assert snapshot.worker_id == 3
        assert [record["name"] for record in snapshot.spans] == ["captured"]
        assert obs.tracer().spans() == []  # drained

    def test_capture_without_tracing_still_carries_metrics(self):
        snapshot = obs.capture_snapshot()
        assert snapshot.spans == []
        assert isinstance(snapshot.metrics, dict)


class TestTelemetryAggregator:
    def test_latest_dump_per_worker_wins(self):
        agg = obs.TelemetryAggregator()
        agg.absorb(_payload(pid=1001, worker_id=0, hits=2.0))
        agg.absorb(_payload(pid=1001, worker_id=0, hits=5.0))  # newer, cumulative
        assert _merged_hits(agg) == 5.0

    def test_distinct_workers_sum(self):
        agg = obs.TelemetryAggregator()
        agg.absorb(_payload(pid=1001, worker_id=0, hits=5.0))
        agg.absorb(_payload(pid=1002, worker_id=1, hits=3.0))
        assert _merged_hits(agg) == 8.0

    def test_own_pid_snapshots_are_skipped(self):
        obs.enable_tracing()
        agg = obs.TelemetryAggregator()
        agg.absorb(_payload(pid=os.getpid(), worker_id=0, hits=99.0,
                            spans=[{"name": "dup", "span_id": "x"}]))
        assert _merged_hits(agg) == 0.0
        assert obs.tracer().spans() == []

    def test_foreign_spans_rerecord_into_the_local_tracer(self):
        obs.enable_tracing()
        agg = obs.TelemetryAggregator()
        record = {"name": "worker.task", "span_id": "w-1", "parent_id": "j-1",
                  "trace_id": "job-1", "start_unix": 0.0, "duration": 0.1,
                  "status": "ok", "pid": 1001}
        agg.absorb(obs.TelemetrySnapshot(pid=1001, worker_id=0,
                                         spans=[record]).to_payload())
        assert obs.tracer().spans() == [record]

    def test_none_payload_is_ignored(self):
        agg = obs.TelemetryAggregator()
        agg.absorb(None)
        agg.absorb({})
        assert agg.merged_metrics() == obs.TelemetryAggregator().merged_metrics()


class TestMergeMetricRecords:
    """The trace-file analogue of the aggregator's latest-per-pid rule."""

    def test_latest_line_per_pid_then_sum_across_pids(self):
        records = [
            obs.metrics_dump_record(_metrics_dump(2.0)),
            obs.metrics_dump_record(_metrics_dump(7.0)),  # same pid: replaces
        ]
        records[0]["pid"] = records[1]["pid"] = 1001
        records.append({"type": "metrics", "pid": 1002,
                        "metrics": _metrics_dump(3.0)})
        merged = obs.merge_metric_records(records)
        assert merged["repro_w_total"]["series"]["hit"] == 10.0

    def test_empty_records(self):
        assert obs.merge_metric_records([]) == {}


class TestArtifactCounters:
    def test_flattens_the_three_artifact_metrics(self):
        reg = MetricsRegistry()
        reg.counter("repro_store_ops_total", labels=("op",)).inc(2.0, "hit")
        reg.counter("repro_cache_ops_total",
                    labels=("tier", "op")).inc(1.0, "memory", "miss")
        reg.counter("repro_serve_artifacts_total",
                    labels=("source",)).inc(4.0, "built")
        reg.counter("repro_unrelated_total").inc(9.0)
        flat = obs.artifact_counters(reg.to_dict())
        assert flat == {
            "store_hit": 2.0,
            "cache_memory_miss": 1.0,
            "artifacts_built": 4.0,
        }

    def test_defaults_to_the_process_registry(self):
        flat = obs.artifact_counters()
        assert isinstance(flat, dict)
        assert all(isinstance(value, float) for value in flat.values())
