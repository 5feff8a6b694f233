"""``repro.serve`` — a multi-worker sampling service.

The paper's core claim is that GD-based SAT sampling is a *batchable,
hardware-saturating* workload; this package is the layer that actually
saturates hardware with it.  It serves many concurrent sampling requests
the way CDCL portfolio solvers organise work — a scheduler above the
sampler, not inside it:

* :class:`SamplingService` — submit jobs, stream results, synchronous API
  (:mod:`repro.serve.service`), one scheduler core driving an inline slot
  or a worker pool (:mod:`repro.serve.core`);
* :class:`SamplingJob` and the JSON/JSONL manifest format
  (:mod:`repro.serve.jobs`);
* request coalescing and warm-artifact dispatch (:mod:`repro.serve.queue`);
* the formula-keyed compiled-artifact cache (:mod:`repro.serve.cache`);
* portfolio fan-out with first-to-target cancellation and exact-dedup
  merging (:mod:`repro.serve.portfolio`);
* the spawn-safe worker processes (:mod:`repro.serve.workers`);
* fault tolerance: every pool is supervised, with bounded respawns
  (:mod:`repro.serve.supervisor`), under one service-wide retry policy
  (:mod:`repro.serve.retry`), and the crash-safe job journal behind
  ``repro-sat serve --resume`` (:mod:`repro.serve.journal`).

Quick start::

    from repro.serve import SamplingService

    with SamplingService(num_workers=4) as service:
        job = service.submit("instance.cnf", num_solutions=500,
                             portfolio=4)          # race 4 seeds
        result = service.result(job)
        print(result.num_unique, result.summary["throughput"])

The ``repro-sat serve`` CLI subcommand is the batch front end over the same
service (``python -m repro.cli serve jobs.json --workers 4``).
"""

from repro.serve.cache import (
    ArtifactCache,
    SamplingArtifact,
    build_artifact,
    build_incremental_artifact,
)
from repro.serve.jobs import (
    SUPPORTED_JOB_TYPES,
    ManifestError,
    SamplingJob,
    config_from_dict,
    config_to_dict,
    load_manifest,
    parse_manifest,
)
from repro.serve.journal import (
    JobJournal,
    job_fingerprint,
    plan_resume,
    read_journal,
)
from repro.serve.portfolio import member_configs, merge_member_solutions, normalize_portfolio
from repro.serve.retry import RetryPolicy, RetrySpecError, parse_retry_spec
from repro.serve.service import JobResult, SamplingService
from repro.serve.supervisor import WorkerSupervisor

__all__ = [
    "ArtifactCache",
    "JobJournal",
    "JobResult",
    "ManifestError",
    "RetryPolicy",
    "RetrySpecError",
    "SamplingArtifact",
    "SamplingJob",
    "SamplingService",
    "SUPPORTED_JOB_TYPES",
    "WorkerSupervisor",
    "build_artifact",
    "build_incremental_artifact",
    "config_from_dict",
    "config_to_dict",
    "job_fingerprint",
    "load_manifest",
    "member_configs",
    "merge_member_solutions",
    "normalize_portfolio",
    "parse_manifest",
    "parse_retry_spec",
    "plan_resume",
    "read_journal",
]
