"""Portfolio scheduling: race config variants, merge exactly once.

CDCL portfolio solvers race restart/heuristic variants of one solver and
take the first answer.  The GD sampler's analogue races *sampling runs* —
different seeds, learning rates or batch sizes over the same
formula — and, because sampling is an anytime accumulation rather than
a single answer, every member contributes: the portfolio's result is the
**deduplicated union** of all member solution sets.

Semantics pinned down here:

* :func:`normalize_portfolio` — a portfolio spec is either an integer N
  (N members differing only in seed: ``seed, seed+1, .. seed+N-1``) or an
  explicit list of config-override objects.  Overrides that do not name a
  seed get distinct seeds automatically — racing *identical* streams would
  produce only duplicates.
* **First to target cancels the rest**: the moment the job's *merged*
  unique pool reaches the target — typically because one member got there
  alone, but cross-member contributions count too — the scheduler flips
  the job's cancel flag and the remaining members stop cooperatively (at
  their next deadline check point); their partial batches still count.
* :func:`merge_member_solutions` — members merge **in member-index order**
  through :meth:`SolutionSet.add_batch`, whatever order they finished in.
  Dedup is exact (packed-row identity), and for a fixed (seed, worker-count)
  pair the merged set is bitwise-reproducible whenever
  member execution is deterministic — in particular always for the inline
  and single-worker services, where members run in a fixed sequential
  order.  It is the one dedup *across* members; within a member the
  sampler's set already made every row unique, and a one-member job skips
  the merge (its member's set is the result).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import SamplerConfig
from repro.core.solutions import SolutionSet
from repro.serve.jobs import CONFIG_FIELDS, ManifestError, config_from_dict, config_to_dict
from repro import obs

#: Fan-out ceiling: a portfolio wider than this is almost certainly a typo.
MAX_MEMBERS = 64

_PORTFOLIO_MEMBERS = obs.counter(
    "repro_serve_portfolio_members_total",
    "Member solution sets merged into job results, by contribution.",
    labels=("outcome",),
)


def normalize_portfolio(
    spec: Union[int, Sequence[Dict[str, object]], None],
) -> Tuple[Dict[str, object], ...]:
    """Canonicalise a portfolio spec into a tuple of member override dicts."""
    if spec is None:
        return ()
    if isinstance(spec, bool):  # bool is an int subclass; reject it explicitly
        raise ManifestError("portfolio must be an integer or a list of overrides")
    if isinstance(spec, int):
        if not 1 <= spec <= MAX_MEMBERS:
            raise ManifestError(
                f"portfolio size must be in 1..{MAX_MEMBERS}, got {spec}"
            )
        return tuple({} for _ in range(spec))
    members = []
    for index, overrides in enumerate(spec):
        if not isinstance(overrides, dict):
            raise ManifestError(f"portfolio member #{index} must be an object")
        unknown = set(overrides) - set(CONFIG_FIELDS)
        if unknown:
            raise ManifestError(
                f"portfolio member #{index}: unknown config fields {sorted(unknown)}"
            )
        members.append(dict(overrides))
    if not 1 <= len(members) <= MAX_MEMBERS:
        raise ManifestError(
            f"portfolio size must be in 1..{MAX_MEMBERS}, got {len(members)}"
        )
    return tuple(members)


def member_configs(
    base: SamplerConfig, portfolio: Sequence[Dict[str, object]]
) -> List[SamplerConfig]:
    """Materialise every member's :class:`SamplerConfig`.

    Each member starts from the job's base config, applies its overrides,
    and — unless the overrides pin a seed — gets ``base.seed + index`` so
    member random streams never collide.
    """
    configs: List[SamplerConfig] = []
    base_seed = base.seed if base.seed is not None else 0
    for index, overrides in enumerate(portfolio):
        merged = config_to_dict(base)
        merged.update(overrides)
        if "seed" not in overrides:
            merged["seed"] = base_seed + index
        configs.append(config_from_dict(merged))
    return configs


def merge_member_solutions(
    num_variables: int,
    member_matrices: Iterable[Optional[np.ndarray]],
    project: Optional[Sequence[int]] = None,
) -> SolutionSet:
    """Deduplicated union of member solution matrices, in member-index order.

    ``member_matrices`` must be ordered by member index; ``None`` entries
    (members that were cancelled before producing anything, or failed) are
    skipped.  Insertion order of the merged set is therefore member-major —
    member 0's solutions first, then member 1's *new* ones, and so on —
    which is what makes the merge reproducible independent of completion
    order.  ``project`` (0-based columns) applies projected-task dedup to
    the merge: members may find different witnesses of one projected
    pattern, and the pattern must still count once.

    Each matrix is already unique within itself (a member's set); what the
    merge finds is the rows one member shares with an earlier one, so the
    service calls it only for jobs with more than one member.
    """
    with obs.span("serve.merge_members") as mspan:
        merged = SolutionSet(num_variables, project=project)
        members = 0
        for matrix in member_matrices:
            members += 1
            if matrix is None or matrix.shape[0] == 0:
                _PORTFOLIO_MEMBERS.inc(1.0, "empty")
                continue
            before = len(merged)
            merged.add_batch(matrix)
            _PORTFOLIO_MEMBERS.inc(
                1.0, "contributed" if len(merged) > before else "duplicate"
            )
        mspan.set("members", members)
        mspan.set("unique", len(merged))
    return merged
