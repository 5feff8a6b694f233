"""Tracing spans: nestable wall-clock timings with cross-process parentage.

A *span* is one named unit of work — a transform, a store load, a sampling
round — with a start time, a duration, attributes, and a parent.  Spans form
per-thread trees through a context-manager stack, and cross process
boundaries through explicit parent ids: the serving layer opens one span per
job in the service process and hands its id to the workers, whose task spans
(and everything nested under them) point back at it, so a merged trace
reconstructs the job's full end-to-end timeline.

Design constraints, in order:

1. **Disabled must be free.**  The process tracer starts disabled and
   :func:`span` then returns a module-level no-op singleton after a single
   attribute check — no allocation, no clock read.  The hot loops
   (sampler rounds, engine training, CNF validation) are instrumented under
   exactly this guarantee; ``benchmarks/bench_obs.py`` gates it.
2. **Exception safe.**  A raising block still closes its span (status
   ``"error"`` with the exception type recorded) and never corrupts the
   per-thread stack.
3. **Bounded.**  Finished spans land in a ring buffer (default 8192); an
   optional JSONL sink streams every finished span to a trace file for
   offline analysis (``repro-sat obs``).

Timestamps: durations come from ``time.perf_counter`` (monotonic);
``start_unix`` anchors each span on the wall clock so spans recorded in
different processes order correctly in one merged timeline.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

#: Environment variable enabling tracing process-wide.  ``1``/``on``/``mem``
#: enable the in-memory ring only; any other non-empty value is a JSONL
#: trace-file path.  Only a scope with no spec of its own reads it
#: (:func:`trace_scope`), so an explicit spec — ``SamplingService(trace=)``,
#: the CLI's ``--trace`` — wins, and an open ``"off"`` scope keeps it unread.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Ring-buffer-only tracing specs (no trace file).
_MEMORY_SPECS = ("1", "on", "mem", "memory", "ring")

#: Specs that force tracing off for a scope's extent.
_OFF_SPECS = ("", "0", "off", "none", "disabled")

#: Default bound of the in-memory ring of finished spans.
DEFAULT_RING_SIZE = 8192


class Span:
    """One timed unit of work (also its own context manager).

    Entering pushes the span on the calling thread's context stack (so
    nested :func:`span` calls parent under it) and starts the clock; exiting
    pops, stops the clock and records the finished span with the tracer.
    Spans created with :meth:`Tracer.begin` are *detached* — they never
    touch the thread stack and are finished explicitly with
    :meth:`finish`, which is what long-lived, cross-thread work (a service
    job awaiting its workers) needs.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "start_unix",
        "_start_perf", "duration", "attributes", "status", "pid",
        "_tracer", "_attached",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: Optional[Dict[str, Any]],
                 parent_id: Optional[str], trace_id: Optional[str], attached: bool) -> None:
        self.name = name
        self.span_id = tracer.next_span_id()
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.status = "ok"
        self.pid = os.getpid()
        self.duration = 0.0
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        self._tracer = tracer
        self._attached = attached

    def set(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one attribute; returns the span for chaining."""
        self.attributes[key] = value
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
            if exc is not None:
                self.attributes.setdefault("error_message", str(exc))
        self.finish()
        return False  # never swallow the exception

    def finish(self) -> None:
        """Stop the clock and record the span (idempotent)."""
        tracer = self._tracer
        if tracer is None:
            return
        self._tracer = None
        self.duration = time.perf_counter() - self._start_perf
        if self._attached:
            tracer.pop(self)
        tracer.record(self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        """The serialisable form recorded in the ring / trace file."""
        record: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "status": self.status,
            "pid": self.pid,
        }
        if self.attributes:
            record["attributes"] = self.attributes
        return record


class _NoopSpan:
    """The disabled-mode singleton: every operation is a no-op."""

    __slots__ = ()

    def set(self, _key: str, _value: Any) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    # Mirror the readable Span surface so instrumentation code can probe it.
    name = ""
    span_id = None
    parent_id = None
    trace_id = None
    attributes: Dict[str, Any] = {}


#: The one no-op span; ``span()`` returns exactly this object when tracing
#: is disabled, so the disabled fast path allocates nothing.
NOOP_SPAN = _NoopSpan()


class TraceSink:
    """Append-only JSONL writer for finished spans (and metric dumps)."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        """Write one record as a JSON line (best effort after close)."""
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")

    def flush(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


class Tracer:
    """Per-process tracer: enablement flag, thread stacks, ring, sink."""

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE) -> None:
        #: The single attribute the disabled fast path checks.
        self.enabled = False
        #: How many ``"off"`` scopes are open.  While any is, a scope with
        #: no spec of its own leaves tracing off instead of reading
        #: ``$REPRO_TRACE`` (see :func:`trace_scope`).
        self.off_scopes = 0
        self._ring: deque = deque(maxlen=ring_size)
        self._sink: Optional[TraceSink] = None
        self._local = threading.local()
        self._counter = 0
        self._lock = threading.Lock()
        self._pid_prefix = f"{os.getpid():x}"

    # -- configuration ------------------------------------------------------------------
    def enable(self, sink: Optional[os.PathLike] = None,
               ring_size: Optional[int] = None) -> None:
        """Turn tracing on, optionally streaming spans to a JSONL file."""
        if ring_size is not None:
            self._ring = deque(self._ring, maxlen=ring_size)
        if sink is not None:
            self._sink = TraceSink(sink)
        self._pid_prefix = f"{os.getpid():x}"  # refreshed after fork/spawn
        self.enabled = True

    def disable(self) -> None:
        """Turn tracing off and close the sink (recorded spans stay readable)."""
        self.enabled = False
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    @property
    def sink(self) -> Optional[TraceSink]:
        return self._sink

    # -- span lifecycle -----------------------------------------------------------------
    def next_span_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{self._pid_prefix}-{self._counter:x}"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start_span(self, name: str, attributes: Optional[Dict[str, Any]] = None,
                   parent_id: Optional[str] = None,
                   trace_id: Optional[str] = None) -> Span:
        """Open an *attached* span: parented under (and pushed onto) the
        calling thread's stack unless an explicit ``parent_id`` is given."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            if parent_id is None:
                parent_id = top.span_id
            if trace_id is None:
                trace_id = top.trace_id
        span = Span(self, name, attributes, parent_id, trace_id, attached=True)
        stack.append(span)
        return span

    def begin(self, name: str, attributes: Optional[Dict[str, Any]] = None,
              parent_id: Optional[str] = None,
              trace_id: Optional[str] = None) -> Span:
        """Open a *detached* span (no thread stack); close with ``finish()``."""
        return Span(self, name, attributes, parent_id, trace_id, attached=False)

    def pop(self, span: Span) -> None:
        """Remove ``span`` from this thread's stack (tolerates misnesting)."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
            return
        try:  # pragma: no cover - only under caller misuse
            stack.remove(span)
        except ValueError:
            pass

    def record(self, span_dict: Dict[str, Any]) -> None:
        """Record one finished span (local, or imported from a snapshot)."""
        self._ring.append(span_dict)
        if self._sink is not None:
            self._sink.write(span_dict)

    # -- inspection ---------------------------------------------------------------------
    def spans(self) -> List[Dict[str, Any]]:
        """Finished spans currently buffered (oldest first)."""
        return list(self._ring)

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the buffered finished spans."""
        drained = list(self._ring)
        self._ring.clear()
        return drained

    def clear(self) -> None:
        self._ring.clear()


#: The process tracer every ``repro`` layer records into.
_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def tracing_enabled() -> bool:
    """Whether spans are being recorded right now (one attribute read)."""
    return _TRACER.enabled


def span(name: str, attributes: Optional[Dict[str, Any]] = None):
    """Open a nested span, or return the free no-op when tracing is off.

    The disabled path is the contract the hot loops rely on: one attribute
    check, then the shared :data:`NOOP_SPAN` singleton — no allocation.
    """
    t = _TRACER
    if not t.enabled:
        return NOOP_SPAN
    return t.start_span(name, attributes)


def current_span():
    """The innermost open span on this thread (``None`` when off/empty)."""
    if not _TRACER.enabled:
        return None
    return _TRACER.current()


def enable_tracing(sink: Optional[os.PathLike] = None,
                   ring_size: Optional[int] = None) -> None:
    """Enable the process tracer (idempotent; a new sink replaces none)."""
    _TRACER.enable(sink=sink, ring_size=ring_size)


def disable_tracing() -> None:
    """Disable the process tracer and close any trace file."""
    _TRACER.disable()


def resolve_trace_spec(spec: Optional[str]) -> Optional[str]:
    """Normalise a telemetry spec: ``None`` defers to ``$REPRO_TRACE``.

    Returns ``None`` (leave tracing as it is), ``"off"`` (force-disabled),
    ``"mem"`` (ring only) or a trace-file path.
    """
    if spec is None:
        spec = os.environ.get(TRACE_ENV_VAR)
        if spec is None:
            return None
    text = str(spec).strip()
    if text.lower() in _OFF_SPECS:
        return "off" if text != "" else None
    if text.lower() in _MEMORY_SPECS:
        return "mem"
    return text


class _TraceScope:
    """Context manager applying a telemetry spec for a dynamic extent.

    Reentrancy: when tracing is already enabled, an inner scope is a no-op —
    the outermost scope owns the sink — so an entry point's scope and a
    library call's own scope compose without double-opening trace files.
    An ``"off"`` scope holds tracing off for its whole extent: an inner
    scope that defers to the environment (spec ``None``) does not read
    ``$REPRO_TRACE`` while it is open.
    """

    def __init__(self, spec: Optional[str]) -> None:
        self._spec = spec
        self._action: Optional[str] = None

    def __enter__(self) -> "_TraceScope":
        if self._spec is None and _TRACER.off_scopes:
            return self
        spec = resolve_trace_spec(self._spec)
        if spec == "off":
            _TRACER.off_scopes += 1
            self._action = "held off"
        elif spec is not None and not _TRACER.enabled:
            enable_tracing(sink=None if spec == "mem" else spec)
            self._action = "enabled"
        return self

    def __exit__(self, *_exc) -> None:
        if self._action == "enabled":
            disable_tracing()
        elif self._action == "held off":
            _TRACER.off_scopes -= 1
        self._action = None


def trace_scope(spec: Optional[str]) -> _TraceScope:
    """Scope tracing per a telemetry spec (config/env/CLI plumbing)."""
    return _TraceScope(spec)


def read_trace(path: os.PathLike) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Load a JSONL trace file: ``(span records, metric-dump records)``.

    Lines that fail to parse (e.g. a truncated final line after a crash) are
    skipped — a partial trace is still a trace.
    """
    spans: List[Dict[str, Any]] = []
    metrics: List[Dict[str, Any]] = []
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("type") == "metrics":
                metrics.append(record)
            elif "name" in record and "duration" in record:
                spans.append(record)
    return spans, metrics
