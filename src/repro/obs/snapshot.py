"""Cross-process telemetry: worker snapshots and service-side aggregation.

The serving layer's workers are separate processes; their spans and metric
counters would otherwise be invisible to the service.  Each worker therefore
captures a :class:`TelemetrySnapshot` — the spans its tracer buffered while
a task ran plus a cumulative dump of its metrics registry — and ships it
back over the existing result queue inside the task's terminal payload.
The service feeds every snapshot to a :class:`TelemetryAggregator`, which

* re-records the worker spans into the *service* tracer (ring + the trace
  file, when one is open), so one JSONL trace holds the whole job timeline
  with worker spans correctly parented under the service's job spans; and
* keeps the **latest** metrics dump per worker process.  Worker counters
  are cumulative, so summing the latest dump of each distinct process gives
  exact totals while re-merging a newer snapshot from the same worker can
  never double-count.

Snapshots from the service's own process (inline mode, ``num_workers=0``)
carry spans and metrics that are already in the process tracer/registry;
the aggregator detects this by pid and skips them entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.trace import tracer, tracing_enabled


@dataclass
class TelemetrySnapshot:
    """One process's telemetry at a capture point (picklable)."""

    pid: int
    worker_id: Optional[int] = None
    #: Finished span records (see :meth:`repro.obs.trace.Span.to_dict`).
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Cumulative :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` dump.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        """Plain-dict wire form (what rides the result queue)."""
        return {
            "pid": self.pid,
            "worker_id": self.worker_id,
            "spans": self.spans,
            "metrics": self.metrics,
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "TelemetrySnapshot":
        return TelemetrySnapshot(
            pid=int(payload.get("pid", 0)),
            worker_id=payload.get("worker_id"),
            spans=list(payload.get("spans") or ()),
            metrics=dict(payload.get("metrics") or {}),
        )


def capture_snapshot(worker_id: Optional[int] = None,
                     drain_spans: bool = True) -> TelemetrySnapshot:
    """Capture this process's telemetry.

    ``drain_spans`` clears the tracer's ring so the next capture carries
    only newer spans — what a worker wants between tasks.  Spans are only
    captured while tracing is enabled; the metrics dump is unconditional.
    """
    spans: List[Dict[str, Any]] = []
    if tracing_enabled():
        spans = tracer().drain() if drain_spans else tracer().spans()
    return TelemetrySnapshot(
        pid=os.getpid(),
        worker_id=worker_id,
        spans=spans,
        metrics=registry().to_dict(),
    )


class TelemetryAggregator:
    """Merges worker snapshots into one coherent service-side view."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        #: Latest cumulative metrics dump per foreign (pid, worker) source.
        self._worker_metrics: Dict[Any, Dict[str, Dict[str, Any]]] = {}

    def absorb(self, payload: Optional[Dict[str, Any]]) -> None:
        """Fold one snapshot payload in (``None`` payloads are ignored).

        Own-pid snapshots are skipped entirely: inline execution shares this
        process's tracer and registry, so both their spans and their metrics
        were already recorded locally (re-absorbing would double them).
        """
        if not payload:
            return
        snapshot = TelemetrySnapshot.from_payload(payload)
        if snapshot.pid == self._pid:
            return
        if snapshot.spans:
            local = tracer()
            for span_record in snapshot.spans:
                local.record(span_record)
        if snapshot.metrics:
            # Latest-wins per source: counters are cumulative per process.
            key = (snapshot.pid, snapshot.worker_id)
            self._worker_metrics[key] = snapshot.metrics

    def merged_registry(self) -> MetricsRegistry:
        """A fresh registry: this process's metrics + every worker's latest."""
        merged = MetricsRegistry()
        merged.merge(registry().to_dict())
        for dump in self._worker_metrics.values():
            merged.merge(dump)
        return merged

    def merged_metrics(self) -> Dict[str, Dict[str, Any]]:
        """:meth:`merged_registry` as a JSON-able dump."""
        return self.merged_registry().to_dict()
