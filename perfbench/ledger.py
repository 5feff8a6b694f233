"""The per-layer ledger of a traced run.

Wrappers installed from the benchmark's own files open a ``repro.obs`` span
named ``ledger:<layer>`` around every call into a layer's entry points
(:data:`WRAPPED_CALLS`); nothing under ``src/`` changes.  These spans nest
with the spans the program records itself (:data:`PROGRAM_SPANS`), and in a
worker pool the workers' spans reach the client through the service's
telemetry merge, so one span tree covers a job in either mode.  A layer's
self time is the duration of its spans minus the part their child spans
cover, so the layers' self times add up without double counting.

The wrappers check ``tracer.enabled`` first: a run can alternate traced and
untraced blocks with the wrappers installed throughout.

Which end-to-end metric each layer metric should move:

* ``serve.submit``, ``cnf.parse``, ``core.signature``: ``job_ms_p50`` on
  ``warm_inline``, ``unique_per_s`` on ``store_pool``;
* ``core.sampler_init``, ``serve.merge``: ``job_ms_p50`` on ``warm_inline``;
* ``engine.learn``, ``core.assemble``, ``cnf.validate``, ``core.dedup``:
  ``job_ms_p50`` and ``unique_per_s`` on every workload;
* ``core.transform``, ``engine.compile``, ``cnf.plan_compile``:
  ``job_ms_p50`` on ``cold_inline``;
* ``store.load``, ``serve.queue_wait``, ``serve.transport``: ``job_ms_p50``
  and ``first_rows_ms_p50`` on ``store_pool``;
* ``serve.coordinator_cpu_ms_per_job``, ``serve.worker_busy_ratio``:
  ``unique_per_s`` on ``store_pool``;
* the ``sampler.*`` ratios: ``unique_per_s`` (work wasted per solution);
* the ``serve.*_per_job`` tier counts are exact: 1 memory hit per
  ``warm_inline`` job, 1 cold build per ``cold_inline`` job, 1 store hit per
  ``store_pool`` job.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from typing import Dict, Iterator, List, Sequence

from repro import obs

PREFIX = "ledger:"

#: ``(layer, module, attribute)`` of every wrapped call.  A function another
#: module imported by name is patched in the module that calls it.
WRAPPED_CALLS = (
    ("serve.submit", "repro.serve.service", "SamplingService.submit"),
    ("cnf.parse", "repro.serve.jobs", "load_source"),
    ("cnf.parse", "repro.serve.workers", "load_source"),
    ("core.signature", "repro.serve.service", "formula_signature"),
    ("core.transform", "repro.serve.cache", "transform_cnf"),
    ("engine.compile", "repro.engine.compiler", "compile_circuit"),
    ("cnf.plan_compile", "repro.cnf.formula", "compile_evaluation_plan"),
    ("store.load", "repro.store.artifacts", "load_sampling_artifact"),
    ("core.sampler_init", "repro.core.sampler", "GradientSATSampler.__init__"),
    ("engine.learn", "repro.core.sampler", "engine_learn_batch"),
    # The sampler's assembly step: the input scatter and the random draws
    # for unconstrained inputs and free variables around the public
    # ``TransformResult.complete_assignments``, and the validation call.
    ("core.assemble", "repro.core.sampler", "GradientSATSampler._assemble"),
    ("cnf.validate", "repro.cnf.formula", "CNF.evaluate_batch"),
    ("core.dedup", "repro.core.solutions", "SolutionSet.add_batch"),
    ("serve.transport", "repro.serve.workers", "pack_rows"),
    ("serve.transport", "repro.serve.service", "unpack_rows"),
    ("serve.merge", "repro.serve.service", "merge_member_solutions"),
)

#: Spans the program records itself, by layer.  In a worker pool they are
#: the only view into the worker: its task, store load, rounds and learning.
PROGRAM_SPANS = {
    "serve.task": "serve.task",
    "store.load": "store.load",
    "store.persist": "store.persist",
    "artifact.build": "serve.build",
    "transform.cnf": "core.transform",
    "sampler.sample": "sampler.sample",
    "sampler.round": "sampler.round",
    "engine.learn_batch": "engine.learn",
    "serve.merge_members": "serve.merge",
}

#: The service's detached per-job span.  It brackets a whole job rather than
#: a layer, so it takes no self time and its child task spans count as roots.
JOB_SPAN = "serve.job"
TASK_SPAN = "serve.task"

#: Layers reported as ``<layer>_ms``, self milliseconds per job.
#: ``serve.task`` and ``sampler.round`` are the task and round time outside
#: every named layer; in a pool that includes the worker's assemble,
#: validate, dedup and row packing, which only the program's spans see.
TIMED_LAYERS = (
    "serve.submit",
    "cnf.parse",
    "core.signature",
    "core.transform",
    "engine.compile",
    "cnf.plan_compile",
    "store.load",
    "core.sampler_init",
    "engine.learn",
    "core.assemble",
    "cnf.validate",
    "core.dedup",
    "serve.transport",
    "serve.merge",
    "serve.task",
    "sampler.round",
)


def _wrap(layer: str, function):
    name = PREFIX + layer
    tracer = obs.tracer()
    # The receiving side counts the bytes a round's rows took on the wire.
    count_bytes = function.__name__ == "unpack_rows"

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return function(*args, **kwargs)
        span = tracer.start_span(name)
        if count_bytes:
            span.set("bytes", len(args[0]))
        try:
            return function(*args, **kwargs)
        finally:
            span.finish()

    return wrapper


@contextlib.contextmanager
def installed() -> Iterator[None]:
    """Install every wrapper for the extent of the block."""
    saved = []
    try:
        for layer, module_name, attribute in WRAPPED_CALLS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, _wrap(layer, original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def layer_of(span: Dict) -> str:
    name = span["name"]
    if name.startswith(PREFIX):
        return name[len(PREFIX):]
    return PROGRAM_SPANS.get(name, "other")


def self_seconds(spans: Sequence[Dict]) -> Dict[str, float]:
    """Self seconds per layer over a set of finished spans."""
    by_id = {span["span_id"]: span for span in spans}
    covered: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.get("parent_id"))
        if parent is not None and parent["name"] != JOB_SPAN:
            covered[parent["span_id"]] += span["duration"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["name"] != JOB_SPAN:
            totals[layer_of(span)] += span["duration"] - covered[span["span_id"]]
    return dict(totals)


def wrapped_seconds(spans: Sequence[Dict]) -> float:
    """Seconds inside wrapped calls: ledger spans with no ledger ancestor."""
    by_id = {span["span_id"]: span for span in spans}

    def outermost(span: Dict) -> bool:
        parent = by_id.get(span.get("parent_id"))
        while parent is not None:
            if parent["name"].startswith(PREFIX):
                return False
            parent = by_id.get(parent.get("parent_id"))
        return True

    return sum(
        span["duration"]
        for span in spans
        if span["name"].startswith(PREFIX) and outermost(span)
    )


def layer_metrics(spans: Sequence[Dict], jobs: List, pooled: bool) -> Dict[str, float]:
    """Per-job layer metrics of the traced jobs.

    ``jobs`` are the traced jobs' records (``job_id``, ``wall_s``,
    ``submit_s``, ``submitted_unix``).  ``ledger.coverage`` is the share of
    job wall time the ledger explains.  Inline, that is the time inside
    wrapped calls.  In a pool, where a job's time is spent in two processes,
    it is the client's submit plus the wait until the worker starts the task
    plus the worker's task span; what is left is the time between the
    task's end and the client noticing it.
    """
    count = len(jobs)
    totals = self_seconds(spans)
    metrics = {
        f"{layer}_ms": 1000.0 * totals.get(layer, 0.0) / count for layer in TIMED_LAYERS
    }
    metrics["serve.transport_bytes"] = sum(
        span.get("attributes", {}).get("bytes", 0)
        for span in spans
        if span["name"] == PREFIX + "serve.transport"
    ) / count
    tasks = {span["trace_id"]: span for span in spans if span["name"] == TASK_SPAN}
    waited = explained = 0.0
    for job in jobs:
        task = tasks.get(job.job_id)
        if task is None:
            continue
        wait = max(task["start_unix"] - job.submitted_unix, 0.0)
        waited += wait
        explained += job.submit_s + wait + task["duration"]
    metrics["serve.queue_wait_ms"] = 1000.0 * waited / count
    wall = sum(job.wall_s for job in jobs)
    metrics["ledger.coverage"] = (explained if pooled else wrapped_seconds(spans)) / wall
    return metrics
