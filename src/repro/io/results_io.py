"""Exporting evaluation results (RunRecords) and service job results.

The benchmark harness prints text tables; these helpers let scripts persist
the same measurements for later analysis or plotting without re-running the
experiments.  The sampling service's batch front end (``repro-sat serve``)
uses the job-result exporters to write one machine-readable record per
manifest job.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

from repro.eval.runner import RunRecord

if TYPE_CHECKING:  # avoid importing the serving layer for plain run records
    from repro.serve.service import JobResult

_FIELDS = [
    "sampler_name",
    "instance_name",
    "num_unique",
    "elapsed_seconds",
    "throughput",
    "num_requested",
    "timed_out",
    "transform_seconds",
]


def _record_row(record: RunRecord) -> dict:
    return {
        "sampler_name": record.sampler_name,
        "instance_name": record.instance_name,
        "num_unique": record.num_unique,
        "elapsed_seconds": record.elapsed_seconds,
        "throughput": record.throughput,
        "num_requested": record.num_requested,
        "timed_out": record.timed_out,
        "transform_seconds": record.transform_seconds,
    }


def run_records_to_json(records: Iterable[RunRecord], indent: int = 2) -> str:
    """Serialise run records to a JSON array (stable field order)."""
    return json.dumps([_record_row(record) for record in records], indent=indent)


def run_records_to_csv(records: Iterable[RunRecord]) -> str:
    """Serialise run records to CSV text with a header row."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_FIELDS)
    writer.writeheader()
    for record in records:
        writer.writerow(_record_row(record))
    return buffer.getvalue()


# -- service job results ------------------------------------------------------------------

def job_result_row(result: "JobResult") -> dict:
    """Flatten one :class:`~repro.serve.service.JobResult` for export.

    The row carries the aggregate summary plus the per-member records (the
    solutions themselves go to separate files via
    :func:`repro.io.solutions_io.write_solutions_file`).  A dictionary
    passes through unchanged — that is how ``repro-sat serve --resume``
    re-exports rows recovered from the job journal next to fresh results.
    """
    if isinstance(result, dict):
        return result
    row = {
        "job_id": result.job_id,
        "status": result.status,
        "num_unique": result.num_unique,
        "num_requested": result.num_requested,
        "elapsed_seconds": result.elapsed_seconds,
        "throughput": result.throughput,
        "coalesced_with": result.coalesced_with,
        "error": result.error,
        "summary": dict(result.summary),
        "members": [dict(member) for member in result.members],
    }
    return row


def job_results_to_json(results: Iterable["JobResult"], indent: int = 2) -> str:
    """Serialise service job results (or recovered row dicts) to a JSON
    array (submission order)."""
    return json.dumps([job_result_row(result) for result in results], indent=indent)


def write_job_results_json(
    results: Iterable["JobResult"], path: Union[str, Path]
) -> Path:
    """Write :func:`job_results_to_json` output to ``path`` (returned)."""
    path = Path(path)
    path.write_text(job_results_to_json(results) + "\n")
    return path


# -- telemetry exports ---------------------------------------------------------------------

def write_metrics_prometheus(dump: dict, path: Union[str, Path]) -> Path:
    """Write a metrics dump in Prometheus text exposition format.

    ``dump`` is a :meth:`repro.obs.MetricsRegistry.to_dict` dump — e.g.
    :meth:`repro.serve.service.SamplingService.merged_metrics`, so the file
    covers the service process *and* every worker.  This is the file a
    node-exporter-style textfile collector scrapes; the future HTTP tier's
    ``/metrics`` endpoint serves the same rendering.
    """
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.merge(dump)
    path = Path(path)
    path.write_text(registry.to_prometheus())
    return path


def write_metrics_json(dump: dict, path: Union[str, Path]) -> Path:
    """Write a metrics dump as indented JSON (the machine-readable twin of
    :func:`write_metrics_prometheus`)."""
    path = Path(path)
    path.write_text(json.dumps(dump, indent=2, sort_keys=True) + "\n")
    return path
