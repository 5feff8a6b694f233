"""Crash-safe job journal: an append-only JSONL WAL, and resume planning.

``repro-sat serve`` writes one journal per output directory
(``journal.jsonl``): a *run* header, then one record per job submission,
task attempt, requeue, worker event, drain and job completion.  Records
are single JSON lines, flushed and fsynced as written — the same
durability idiom as the artifact store's entry writes
(:mod:`repro.store.store`) — so a SIGKILL'd run leaves at worst one torn
trailing line, which :func:`read_journal` skips exactly like the trace
reader does.

Resume (:func:`plan_resume`) matches manifest jobs to completed journal
records by *fingerprint* — a content hash over everything that determines
a job's result (formula source and, for a file path, the file's content;
target, config, portfolio, workload task; **not** its id or retry
policy) — so re-running ``repro-sat serve MANIFEST --resume DIR`` skips
the jobs that already finished with their solutions on disk and re-runs
only the interrupted remainder, plus any job whose ``.cnf`` file was
edited since.  A completed record only counts when the job's
``<id>.solutions`` file actually exists: the journal alone proves the
service finished the job, the file proves the run's outputs survived.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.serve.jobs import SamplingJob, config_to_dict, is_plain_name, read_source

#: Journal file name inside a serve output directory.
JOURNAL_NAME = "journal.jsonl"

#: Record types the service writes (documented for readers; the journal
#: itself is schemaless JSONL and tolerates unknown types).
RECORD_TYPES = (
    "run",       # header: manifest path, workers, pid, started_at
    "submit",    # job admitted: job id, fingerprint, formula signature
    "attempt",   # task dispatched: job, member, attempt, worker
    "retry",     # task failure scheduled for re-dispatch
    "worker",    # pool event: death / respawn / abandoned
    "drain",     # graceful-drain request observed
    "done",      # job finalized: status + full result row
)


def job_fingerprint(job: SamplingJob, source_digest: Optional[str] = None) -> str:
    """Content hash identifying a job's *result* across runs.

    Covers the formula source spec, target, full config, portfolio and
    workload task; excludes the job id (ids may be defaulted per run) and
    the retry policy (retrying differently cannot change a result).  A path
    spec names a file whose content may change between runs, so for path
    sources the file's content digest (:func:`~repro.serve.jobs.read_source`;
    read here unless ``source_digest`` passes it in) is covered too.
    """
    payload = {
        "source": dict(job.source),
        "num_solutions": job.num_solutions,
        "config": config_to_dict(job.config),
        "portfolio": list(job.portfolio),
        "task": repr(job.task.canonical()),
    }
    if "path" in job.source:
        if source_digest is None:
            try:
                source_digest, _ = read_source(job.source)
            except OSError:
                pass  # an unreadable file matches no journaled completion
        payload["content"] = source_digest
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class JobJournal:
    """Append-only JSONL writer with per-record fsync (see module doc).

    I/O failures never propagate: the first ``OSError`` disables the
    journal and it goes quiet — the journal is a recovery aid, not a
    dependency, exactly like the artifact store.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        self._disabled = False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        except OSError:
            self._disabled = True

    def record(self, type_: str, **fields) -> None:
        """Append one record (``{"type": ..., "time": ..., **fields}``)."""
        if self._disabled or self._handle is None:
            return
        entry = {"type": type_, "time": time.time(), **fields}
        try:
            self._handle.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except (OSError, ValueError, TypeError):
            self._disabled = True

    def close(self) -> None:
        """Close the underlying file (idempotent, never raises)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        self._disabled = True

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_journal(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a journal file, skipping torn/corrupt lines (crash tolerance)."""
    path = Path(path)
    records: List[Dict[str, object]] = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except (json.JSONDecodeError, RecursionError):
            continue  # torn trailing line from a crashed writer
        if isinstance(entry, dict):
            records.append(entry)
    return records


def _is_file(path: Path) -> bool:
    """Whether ``path`` is a file; a name the filesystem refuses (too long,
    say) names none."""
    try:
        return path.is_file()
    except OSError:
        return False


def plan_resume(
    jobs: List[SamplingJob],
    journal_path: Union[str, Path],
    output_dir: Union[str, Path],
) -> Tuple[List[Tuple[int, SamplingJob]], List[Optional[Dict[str, object]]]]:
    """Split a manifest into (still-pending jobs, per-index completed rows).

    Returns ``(pending, rows)`` where ``pending`` is the ``(manifest_index,
    job)`` list to actually submit and ``rows`` has one slot per manifest
    job — a completed result row (tagged ``"resumed": True``) for jobs the
    journal proves finished with status ``"done"`` and whose solutions file
    survived, ``None`` for jobs that must (re)run.  Duplicate equivalent
    jobs in one manifest consume completed records in order, so N identical
    entries resume only if N completions were journaled.
    """
    output_dir = Path(output_dir)
    completed: Dict[str, List[Dict[str, object]]] = {}
    for entry in read_journal(journal_path):
        if entry.get("type") != "done" or entry.get("status") != "done":
            continue
        fingerprint = entry.get("fingerprint")
        result = entry.get("result")
        if not isinstance(fingerprint, str) or not isinstance(result, dict):
            continue
        completed.setdefault(fingerprint, []).append(result)

    pending: List[Tuple[int, SamplingJob]] = []
    rows: List[Optional[Dict[str, object]]] = []
    for index, job in enumerate(jobs):
        fingerprint = job_fingerprint(job)
        candidates = completed.get(fingerprint)
        row = candidates.pop(0) if candidates else None
        if row is not None:
            job_id = row.get("job_id")
            if not (
                isinstance(job_id, str)
                and is_plain_name(job_id)
                and _is_file(output_dir / f"{job_id}.solutions")
            ):
                row = None
        if row is None:
            pending.append((index, job))
            rows.append(None)
        else:
            rows.append({**row, "resumed": True})
    return pending, rows
