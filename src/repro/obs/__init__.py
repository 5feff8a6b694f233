"""Unified telemetry (``repro.obs``): tracing, metrics, cross-process merge.

Three pillars, all dependency-free:

* **tracing** (:mod:`repro.obs.trace`) — nestable spans with
  monotonic-clock durations, attributes and a per-thread context stack,
  recorded into a bounded ring and optionally streamed to a JSONL trace
  file.  Disabled tracing costs one attribute check per call site.
* **metrics** (:mod:`repro.obs.metrics`) — a process-wide registry of
  counters, gauges and fixed-bucket histograms with label support, plus
  JSON and Prometheus text exporters.
* **cross-process aggregation** (:mod:`repro.obs.snapshot`) — serve
  workers capture :class:`TelemetrySnapshot` payloads that ride the result
  queue back to :class:`~repro.serve.service.SamplingService`, which merges
  worker spans/metrics into one coherent per-job timeline.

Tracing is enabled by the entry point that owns a run, for its extent
(:func:`trace_scope`): ``SamplingService(trace=)``, the CLI's ``--trace``,
or the ``REPRO_TRACE`` environment variable, which only a scope with no
spec of its own reads (``sample_cnf`` opens one) — so an explicit spec
wins, and ``"off"`` keeps tracing off for its whole extent.  The sampler
itself opens no scope.  The metrics registry is always live (counter
increments are a dict update).
``repro-sat obs TRACE`` pretty-prints a recorded trace; see the README's
"Observability" section for naming conventions and the trace-file format.
"""

from repro.obs import bench
from repro.obs.metrics import (
    Counter,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
)
from repro.obs.render import (
    load_trace,
    merge_metric_records,
    render_metrics_dump,
    render_trace,
)
from repro.obs.snapshot import (
    TelemetryAggregator,
    TelemetrySnapshot,
    capture_snapshot,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    TRACE_ENV_VAR,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    read_trace,
    resolve_trace_spec,
    span,
    trace_scope,
    tracer,
    tracing_enabled,
)

import os as _os
from typing import Any, Dict


def metrics_dump_record(dump: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Wrap a registry dump as the trace file's ``{"type": "metrics"}`` line."""
    return {"type": "metrics", "pid": _os.getpid(), "metrics": dump}


def write_metrics_to_trace(dump: Dict[str, Dict[str, Any]] = None) -> bool:
    """Append a metrics dump to the open trace file (no-op without one)."""
    sink = tracer().sink
    if sink is None:
        return False
    sink.write(metrics_dump_record(registry().to_dict() if dump is None else dump))
    sink.flush()
    return True


def artifact_counters(dump: Dict[str, Dict[str, Any]] = None) -> Dict[str, float]:
    """The canonical store/cache/artifact counter block, from one registry.

    This is the *shared* accessor both ``repro-sat cache stats`` and the
    serving layer's exports read, so their numbers come from one code path
    and cannot drift.  Reads the process registry by default, or a
    :meth:`MetricsRegistry.to_dict` dump (e.g. a service's merged view).
    """
    if dump is None:
        dump = registry().to_dict()
    flat: Dict[str, float] = {}
    for metric, prefix in (
        ("repro_store_ops_total", "store"),
        ("repro_cache_ops_total", "cache"),
        ("repro_serve_artifacts_total", "artifacts"),
    ):
        entry = dump.get(metric)
        if not entry:
            continue
        for key, value in (entry.get("series") or {}).items():
            label = key.replace("\t", "_")
            flat[f"{prefix}_{label}"] = float(value)
    return flat


__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "TRACE_ENV_VAR",
    "TelemetryAggregator",
    "TelemetrySnapshot",
    "Tracer",
    "artifact_counters",
    "bench",
    "capture_snapshot",
    "counter",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "gauge",
    "histogram",
    "load_trace",
    "merge_metric_records",
    "metrics_dump_record",
    "read_trace",
    "registry",
    "render_metrics_dump",
    "render_trace",
    "resolve_trace_spec",
    "span",
    "trace_scope",
    "tracer",
    "tracing_enabled",
    "write_metrics_to_trace",
]
