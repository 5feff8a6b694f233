"""Job descriptions for the sampling service, and the manifest format.

A :class:`SamplingJob` is everything the service needs to run one request:
the formula (inline DIMACS text, a file path, or a registry instance name),
the unique-solution target, the :class:`~repro.core.config.SamplerConfig`
hyper-parameters, and optionally a *portfolio* — a fan-out of config
variants raced against each other (see :mod:`repro.serve.portfolio`).

Jobs deliberately reference formulas by *value or by name*, never by live
object: a job must survive pickling into a ``spawn``-started worker process,
so :func:`normalize_source` converts any accepted formula source (including
a live :class:`~repro.cnf.formula.CNF`) into a small, self-contained,
picklable source spec, and :func:`load_source` re-materialises the formula
on the other side.

A job carries no deployment settings: how failed tasks are retried is the
service's one policy (:mod:`repro.serve.retry`), and tracing and the
artifact store are the service's settings, so none of them is a job key.

The batch front-end (``repro-sat serve``) reads jobs from a **manifest**:
either a JSON document (an array of job objects, or ``{"jobs": [...]}``)
or JSON Lines (one job object per line).  Job object keys:

``path`` / ``instance`` / ``dimacs``
    Exactly one formula source: a DIMACS file path, a benchmark-registry
    instance name, or inline DIMACS text.
``id``
    Optional job identifier (defaults to ``job-<index>``).
``num_solutions``
    Unique-solution target (default 1000).
``config``
    :class:`SamplerConfig` field overrides — ``batch_size``, ``iterations``,
    ``learning_rate``, ``init_scale``, ``seed``, ``chunk_size``,
    ``max_rounds``, ``stall_rounds`` and ``timeout_seconds``
    (:data:`CONFIG_FIELDS`).  Any other key is a :class:`ManifestError`
    naming it.
``portfolio``
    Either an integer N (N members with seeds ``seed .. seed+N-1``) or a
    list of config-override objects, one per member.
``coalesce``
    Whether the job may share work with an identical in-flight job
    (default true).
``type``
    The workload kind — one of :data:`SUPPORTED_JOB_TYPES`
    (``"sample"``, ``"project"``, ``"weighted"``, ``"incremental"``;
    default ``"sample"``).  Anything else is rejected with a
    :class:`ManifestError` naming the offending job and the supported
    types.  The type declares the job's *primary* aspect and requires its
    keys (below); aspects compose, so e.g. an ``incremental`` job may also
    carry a ``project`` list.
``project``
    1-based variable indices uniqueness is counted over (required for
    ``type: "project"``).
``weights``
    Per-variable target probabilities, ``{"<var>": p}`` with p strictly in
    (0, 1) (required for ``type: "weighted"``).
``add`` / ``retract`` / ``assume``
    A clause delta applied to the base formula before transforming:
    clause literal lists to add / remove, and literals to assume as unit
    clauses (at least one required for ``type: "incremental"``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cnf.dimacs import decode_dimacs, parse_dimacs, parse_dimacs_file, write_dimacs
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.task import DEFAULT_TASK, SamplingTask

#: Manifest job types and the workload aspect each one requires.
SUPPORTED_JOB_TYPES = ("sample", "project", "weighted", "incremental")

#: Manifest keys carrying the job's workload spec (beyond plain sampling).
TASK_KEYS = ("project", "weights", "add", "retract", "assume")

#: SamplerConfig fields a manifest (or portfolio member) may override:
#: every one, since the config holds nothing but hyper-parameters.
CONFIG_FIELDS = tuple(item.name for item in dataclasses.fields(SamplerConfig))


class ManifestError(ValueError):
    """A jobs manifest (or one of its job objects) is malformed."""


# -- formula sources --------------------------------------------------------------------

def normalize_source(source: Union[CNF, str, Path, Dict[str, str]]) -> Dict[str, str]:
    """Convert any accepted formula source into a picklable source spec.

    The spec is a one-key dictionary — ``{"dimacs": text}``, ``{"path": p}``
    or ``{"instance": name}`` — small enough to ship to a worker process and
    stable enough to re-materialise the identical formula there.  A live
    :class:`CNF` is serialised to DIMACS text (lossless for clauses and
    variable count, which is all the signature covers).
    """
    if isinstance(source, dict):
        keys = set(source) & {"dimacs", "path", "instance"}
        if len(keys) != 1:
            raise ManifestError(
                f"a source spec needs exactly one of 'dimacs'/'path'/'instance', got {sorted(source)}"
            )
        key = keys.pop()
        return {key: str(source[key])}
    if isinstance(source, CNF):
        return {"dimacs": write_dimacs(source, include_comments=False)}
    if isinstance(source, Path):
        return {"path": str(source)}
    if isinstance(source, str):
        if "\n" in source or source.lstrip().startswith(("p ", "c ", "p\t")):
            return {"dimacs": source}
        return {"path": source}
    raise TypeError(f"cannot interpret {type(source).__name__} as a formula source")


def read_source(spec: Dict[str, str]) -> Tuple[str, Optional[bytes]]:
    """Read a source spec once: ``(digest, data)``.

    ``digest`` is a SHA-256 over the source's raw content, tagged by kind:
    the file's bytes for a path, the UTF-8 text for inline DIMACS, the name
    for a registry instance.  Equal digests mean equal formulas, so the
    digest can stand in for a parse.  ``data`` is the file's bytes for a
    path spec (``None`` otherwise): hand it to :func:`load_source` so a
    parse sees exactly the bytes that were hashed, never a later edit.
    """
    data: Optional[bytes] = None
    if "path" in spec:
        data = Path(spec["path"]).read_bytes()
        kind, content = b"path", data
    elif "dimacs" in spec:
        kind, content = b"dimacs", spec["dimacs"].encode("utf-8")
    elif "instance" in spec:
        kind, content = b"instance", spec["instance"].encode("utf-8")
    else:
        raise ManifestError(f"unrecognised source spec {sorted(spec)}")
    return hashlib.sha256(kind + b"\0" + content).hexdigest(), data


def load_source(spec: Dict[str, str], data: Optional[bytes] = None) -> CNF:
    """Re-materialise the formula a :func:`normalize_source` spec names.

    ``data`` is a path spec's already-read file bytes (see
    :func:`read_source`); they are decoded as :func:`parse_dimacs_file`
    decodes a file (UTF-8, see :func:`~repro.cnf.dimacs.decode_dimacs`) and
    the file is not read again.
    """
    if "dimacs" in spec:
        return parse_dimacs(spec["dimacs"])
    if "path" in spec:
        path = Path(spec["path"])
        if data is None:
            return parse_dimacs_file(path)
        return parse_dimacs(decode_dimacs(data), name=path.stem)
    if "instance" in spec:
        from repro.instances.registry import get_instance

        return get_instance(spec["instance"]).build_cnf()
    raise ManifestError(f"unrecognised source spec {sorted(spec)}")


# -- config (de)serialisation ------------------------------------------------------------

def config_to_dict(config: SamplerConfig) -> Dict[str, object]:
    """Flatten a :class:`SamplerConfig` into a JSON/pickle-safe dictionary
    keyed by :data:`CONFIG_FIELDS` (the manifest, the worker payload, the
    coalescing key and the journal fingerprint all use this one form).

    Equal to ``dataclasses.asdict(config)`` (every field is a scalar)
    without its deep copy, which costs about 13x as much on the submit
    path."""
    return {name: getattr(config, name) for name in CONFIG_FIELDS}


def config_from_dict(data: Dict[str, object]) -> SamplerConfig:
    """Rebuild a :class:`SamplerConfig` from :func:`config_to_dict` output.

    Also accepts the manifest's override form, a subset of the keys;
    unknown keys, and values of the wrong type for their field (see
    :class:`SamplerConfig`), are :class:`ManifestError` s naming the key.
    """
    for key in data:
        if key not in CONFIG_FIELDS:
            raise ManifestError(
                f"unknown config field {key!r} (accepted: {', '.join(CONFIG_FIELDS)})"
            )
    try:
        return SamplerConfig(**data)
    except TypeError as error:
        raise ManifestError(str(error)) from error


# -- jobs --------------------------------------------------------------------------------

@dataclass
class SamplingJob:
    """One sampling request, fully self-contained and picklable."""

    #: Picklable formula source spec (see :func:`normalize_source`).
    source: Dict[str, str]
    #: Unique-solution target.
    num_solutions: int = 1000
    #: Sampler hyper-parameters of the job (portfolio members derive from it).
    config: SamplerConfig = field(default_factory=SamplerConfig)
    #: Portfolio fan-out: per-member config overrides (empty = no portfolio).
    portfolio: Tuple[Dict[str, object], ...] = ()
    #: Whether the job may coalesce with an identical in-flight job.
    coalesce: bool = True
    #: Caller-chosen identifier (the service assigns one when empty).
    job_id: Optional[str] = None
    #: The workload spec: projection / weights / clause delta (the default
    #: task is plain sampling).  Frozen and tuple-backed, so it pickles into
    #: spawn workers and participates in coalescing keys.
    task: SamplingTask = field(default_factory=SamplingTask)

    def __post_init__(self) -> None:
        if self.num_solutions <= 0:
            raise ManifestError(
                f"num_solutions must be positive, got {self.num_solutions}"
            )
        if self.task is None:
            self.task = DEFAULT_TASK

    def load_formula(self, data: Optional[bytes] = None) -> CNF:
        """Materialise the job's formula (``data``: see :func:`load_source`)."""
        return load_source(self.source, data)

    @classmethod
    def build(
        cls,
        source: Union[CNF, str, Path, Dict[str, str]],
        num_solutions: int = 1000,
        config: Optional[SamplerConfig] = None,
        portfolio: Union[int, Sequence[Dict[str, object]], None] = None,
        coalesce: bool = True,
        job_id: Optional[str] = None,
        task: Optional[SamplingTask] = None,
    ) -> "SamplingJob":
        """The permissive constructor ``SamplingService.submit`` uses."""
        from repro.serve.portfolio import normalize_portfolio

        return cls(
            source=normalize_source(source),
            num_solutions=num_solutions,
            config=config or SamplerConfig(),
            portfolio=normalize_portfolio(portfolio),
            coalesce=coalesce,
            job_id=job_id,
            task=task if task is not None else DEFAULT_TASK,
        )


# -- manifests ---------------------------------------------------------------------------

def _task_from_manifest_entry(
    entry: Dict[str, object], job_name: str
) -> SamplingTask:
    """Validate the job type and build its :class:`SamplingTask`.

    ``job_name`` is the manifest's own id (or the positional default) so
    type errors name the exact offending job.
    """
    job_type = entry.get("type", "sample")
    if job_type not in SUPPORTED_JOB_TYPES:
        raise ManifestError(
            f"job {job_name!r}: unknown job type {job_type!r} "
            f"(supported types: {', '.join(SUPPORTED_JOB_TYPES)})"
        )
    present = [key for key in TASK_KEYS if key in entry]
    if job_type == "sample" and present:
        raise ManifestError(
            f"job {job_name!r}: type 'sample' takes no workload keys, "
            f"got {present}"
        )
    required = {
        "project": ("project",),
        "weighted": ("weights",),
        "incremental": ("add", "retract", "assume"),
    }
    if job_type in required and not any(key in entry for key in required[job_type]):
        needed = "/".join(f"'{key}'" for key in required[job_type])
        raise ManifestError(
            f"job {job_name!r}: type '{job_type}' requires {needed}"
        )
    try:
        return SamplingTask.build(
            project=tuple(entry.get("project", ())),
            weights=entry.get("weights"),
            add=tuple(entry.get("add", ())),
            retract=tuple(entry.get("retract", ())),
            assume=tuple(entry.get("assume", ())),
        )
    except (ValueError, TypeError, OverflowError) as error:
        raise ManifestError(f"job {job_name!r}: {error}") from error


def job_from_manifest_entry(entry: Dict[str, object], index: int = 0) -> SamplingJob:
    """Build one :class:`SamplingJob` from a manifest job object."""
    if not isinstance(entry, dict):
        raise ManifestError(f"job #{index}: expected an object, got {type(entry).__name__}")
    known = {
        "id", "path", "instance", "dimacs", "num_solutions", "config",
        "portfolio", "coalesce", "type", *TASK_KEYS,
    }
    unknown = set(entry) - known
    if unknown:
        raise ManifestError(f"job #{index}: unknown keys {sorted(unknown)}")
    sources = [key for key in ("path", "instance", "dimacs") if key in entry]
    if len(sources) != 1:
        raise ManifestError(
            f"job #{index}: exactly one of 'path'/'instance'/'dimacs' is required"
        )
    config_data = entry.get("config", {})
    if not isinstance(config_data, dict):
        raise ManifestError(f"job #{index}: 'config' must be an object")
    job_id = str(entry["id"]) if "id" in entry else None
    if job_id is not None and not is_plain_name(job_id):
        # The id names the job's ``<id>.solutions`` file in the output
        # directory, so it may not reach outside it.
        raise ManifestError(f"job #{index}: id {job_id!r} is not a plain file name")
    task = _task_from_manifest_entry(entry, job_id or f"job-{index}")
    try:
        return SamplingJob.build(
            source={sources[0]: entry[sources[0]]},
            num_solutions=int(entry.get("num_solutions", 1000)),
            config=config_from_dict(config_data),
            portfolio=entry.get("portfolio"),
            coalesce=bool(entry.get("coalesce", True)),
            # No default id here: the service assigns a process-unique one,
            # so the same manifest (or two manifests with defaulted ids) can
            # be replayed on one long-lived service without collisions.
            job_id=job_id,
            task=task,
        )
    except (ValueError, TypeError, OverflowError) as error:
        raise ManifestError(f"job #{index}: {error}") from error


def is_plain_name(name: str) -> bool:
    """Whether ``name`` is one file name: no separator, NUL, ``.`` or ``..``."""
    return name not in ("", ".", "..") and not any(char in name for char in "/\\\0")


def parse_manifest(text: str) -> List[SamplingJob]:
    """Parse a jobs manifest: a JSON array, ``{"jobs": [...]}`` or JSON Lines."""
    stripped = text.strip()
    if not stripped:
        raise ManifestError("empty manifest")
    if stripped.startswith(("[", "{")):
        try:
            document = json.loads(stripped)
        except json.JSONDecodeError:
            document = None
        except RecursionError as error:
            raise ManifestError("manifest nests too deeply") from error
        if isinstance(document, list):
            return [job_from_manifest_entry(e, i) for i, e in enumerate(document)]
        if isinstance(document, dict):
            if isinstance(document.get("jobs"), list):
                return [
                    job_from_manifest_entry(e, i) for i, e in enumerate(document["jobs"])
                ]
            if any(key in document for key in ("path", "instance", "dimacs")):
                # A single job object (also what a one-line JSONL file parses as).
                return [job_from_manifest_entry(document, 0)]
            raise ManifestError('a manifest object must hold a "jobs" array')
    # JSON Lines: one job object per non-empty line.
    jobs = []
    for index, line in enumerate(line for line in stripped.splitlines() if line.strip()):
        try:
            entry = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as error:
            raise ManifestError(f"job #{index}: invalid JSON line: {error}") from error
        jobs.append(job_from_manifest_entry(entry, index))
    return jobs


def load_manifest(path: Union[str, Path]) -> List[SamplingJob]:
    """Read and parse a manifest file (``.json`` or ``.jsonl``)."""
    return parse_manifest(Path(path).read_text())
