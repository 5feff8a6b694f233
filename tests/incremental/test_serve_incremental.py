"""Serve-layer workload tasks: incremental artifacts, manifests, summaries.

Pins the service plumbing around :class:`SamplingTask`:

* :func:`build_incremental_artifact` produces an artifact record-equal to a
  cold :func:`build_artifact` of the effective formula, flagged as derived;
* :meth:`ArtifactCache.get_or_build_task` takes the warm-hit, cold-build
  and incremental-derivation paths exactly when documented;
* manifests accept the four job types, reject unknown types with an error
  naming the offending job, and enforce type/key consistency;
* job summaries and member records surface ``task``, ``projected_unique``,
  ``stopped_early`` and ``incremental_artifacts``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cnf import ClauseDelta
from tests.corpus.generators import planted_ksat
from repro.core.config import SamplerConfig
from repro.core.signatures import formula_signature
from repro.core.task import SamplingTask
from repro.serve import (
    ArtifactCache,
    ManifestError,
    SamplingService,
    SUPPORTED_JOB_TYPES,
    build_artifact,
    build_incremental_artifact,
    parse_manifest,
)


def formula():
    return planted_ksat(16, 40, 3, seed=11)


def config(**overrides):
    settings = dict(seed=3, batch_size=128, max_rounds=3)
    settings.update(overrides)
    return SamplerConfig(**settings)


# -- incremental artifacts ----------------------------------------------------------------

def test_build_incremental_artifact_matches_cold_build():
    base = formula()
    delta = ClauseDelta(assume=(2,), add=((1, -3, 5),))
    parent = build_artifact(base)
    derived = build_incremental_artifact(parent, delta)
    effective = base.with_delta(delta)
    cold = build_artifact(effective)

    assert derived.incremental and not cold.incremental
    assert derived.parent_signature == parent.signature
    assert derived.signature == cold.signature == formula_signature(effective)
    assert derived.formula.num_clauses == effective.num_clauses
    assert derived.transform.definitions == cold.transform.definitions
    assert derived.transform.constraints == cold.transform.constraints
    assert derived.transform.primary_inputs == cold.transform.primary_inputs
    np.testing.assert_array_equal(
        derived.plan.literal_columns, cold.plan.literal_columns
    )


def test_get_or_build_task_paths():
    base = formula()
    delta_task = SamplingTask.build(assume=[2])
    effective = delta_task.apply_to(base)
    base_sig = formula_signature(base)
    task_sig = formula_signature(effective)
    loads = []

    def loader():
        loads.append(1)
        return base

    # Cold, no warm parent: loader runs, build is a full cold transform.
    cache = ArtifactCache()
    artifact, built, derived = cache.get_or_build_task(
        delta_task, signature=task_sig, base_signature=base_sig, loader=loader
    )
    assert (built, derived) == (True, False)
    assert len(loads) == 1 and not artifact.incremental

    # Warm hit: nothing builds, nothing loads.
    again, built, derived = cache.get_or_build_task(
        delta_task, signature=task_sig, base_signature=base_sig, loader=loader
    )
    assert again is artifact and (built, derived) == (False, False)
    assert len(loads) == 1

    # Warm *parent*: the effective artifact is derived incrementally,
    # without ever invoking the loader.
    cache = ArtifactCache()
    cache.get_or_build(formula=base)
    artifact, built, derived = cache.get_or_build_task(
        delta_task, signature=task_sig, base_signature=base_sig,
        loader=lambda: pytest.fail("loader must not run on the derived path"),
    )
    assert (built, derived) == (True, True)
    assert artifact.incremental and artifact.parent_signature == base_sig

    # Non-incremental tasks (projection/weights) share the base artifact key.
    shared, built, derived = cache.get_or_build_task(
        SamplingTask.build(project=[1, 2]), signature=base_sig,
        base_signature=base_sig, loader=lambda: base,
    )
    assert (built, derived) == (False, False)
    assert shared.signature == base_sig


# -- manifests ----------------------------------------------------------------------------

MANIFEST = {
    "jobs": [
        {"id": "plain", "dimacs": "p cnf 3 2\n1 2 0\n-1 3 0\n", "type": "sample"},
        {"id": "proj", "dimacs": "p cnf 3 2\n1 2 0\n-1 3 0\n",
         "type": "project", "project": [1, 3]},
        {"id": "wted", "dimacs": "p cnf 3 2\n1 2 0\n-1 3 0\n",
         "type": "weighted", "weights": {"2": 0.9}},
        {"id": "incr", "dimacs": "p cnf 3 2\n1 2 0\n-1 3 0\n",
         "type": "incremental", "assume": [3], "add": [[1, -2]]},
    ]
}


def test_manifest_round_trips_all_job_types():
    jobs = parse_manifest(json.dumps(MANIFEST))
    kinds = {job.job_id: job.task.kind() for job in jobs}
    assert kinds == {
        "plain": "default",
        "proj": "projected",
        "wted": "weighted",
        "incr": "incremental",
    }
    assert jobs[3].task.delta.assume == (3,)


def test_manifest_rejects_unknown_job_type_naming_the_job():
    bad = {"jobs": [{"id": "bad-job", "dimacs": "p cnf 1 1\n1 0\n",
                     "type": "mystery"}]}
    with pytest.raises(ManifestError) as excinfo:
        parse_manifest(json.dumps(bad))
    message = str(excinfo.value)
    assert "'bad-job'" in message
    assert "'mystery'" in message
    for supported in SUPPORTED_JOB_TYPES:
        assert supported in message


def test_manifest_unknown_type_names_positional_job_without_id():
    bad = {"jobs": [{"dimacs": "p cnf 1 1\n1 0\n", "type": "nope"}]}
    with pytest.raises(ManifestError, match="job 'job-0'"):
        parse_manifest(json.dumps(bad))


def test_manifest_type_key_consistency():
    entry = {"id": "j", "dimacs": "p cnf 1 1\n1 0\n"}
    with pytest.raises(ManifestError, match="takes no workload keys"):
        parse_manifest(json.dumps({"jobs": [{**entry, "project": [1]}]}))
    with pytest.raises(ManifestError, match="requires 'project'"):
        parse_manifest(json.dumps({"jobs": [{**entry, "type": "project"}]}))
    with pytest.raises(ManifestError, match="requires 'weights'"):
        parse_manifest(json.dumps({"jobs": [{**entry, "type": "weighted"}]}))
    with pytest.raises(ManifestError, match="requires 'add'/'retract'/'assume'"):
        parse_manifest(json.dumps({"jobs": [{**entry, "type": "incremental"}]}))


# -- service summaries --------------------------------------------------------------------

def test_incremental_job_derives_artifact_from_warm_parent():
    base = formula()
    with SamplingService(num_workers=0) as service:
        warm = service.submit(base, num_solutions=10, config=config())
        warm_result = service.result(warm)
        assert warm_result.status == "done"
        assert warm_result.summary["incremental_artifacts"] == 0

        job = service.submit(
            base, num_solutions=10, config=config(),
            task=SamplingTask.build(assume=[2], project=[1, 2, 3]),
        )
        result = service.result(job)
    assert result.status == "done"
    assert result.summary["task"] == "projected+incremental"
    assert result.summary["incremental_artifacts"] == 1
    assert result.summary["projected_unique"] == result.num_unique
    assert isinstance(result.summary["stopped_early"], bool)
    member = result.members[0]
    assert member["task"] == "projected+incremental"
    assert member["incremental_artifact"] is True
    assert "stopped_early" in member and "projected_unique" in member
    # every merged solution satisfies the assumption: variable 2 is True
    matrix = result.solutions.to_matrix()
    assert matrix.shape[0] > 0
    assert matrix[:, 1].all()


def test_projected_jobs_coalesce_only_on_matching_tasks():
    base = formula()
    task_a = SamplingTask.build(project=[1, 2])
    task_b = SamplingTask.build(project=[1, 3])
    with SamplingService(num_workers=0) as service:
        first = service.submit(base, num_solutions=5, config=config(), task=task_a)
        same = service.submit(base, num_solutions=5, config=config(), task=task_a)
        other = service.submit(base, num_solutions=5, config=config(), task=task_b)
        results = {job: service.result(job) for job in (first, same, other)}
    assert results[same].coalesced_with == first
    assert results[other].coalesced_with is None
    assert results[other].summary["task"] == "projected"
