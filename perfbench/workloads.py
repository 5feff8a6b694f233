"""The benchmark's three closed-loop workloads and their inputs.

Inputs depend only on the workload seed.  The instance files come from the
repository's deterministic instance registry; the seed picks the job seeds
and, for ``cold_inline``, the extra clause that makes each job's formula new.
Every workload samples at batch 256 with the paper's hyper-parameters.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from perfbench.checker import ClauseChecker

BATCH_SIZE = 256

#: The warm formula: the largest Table II instance of the registry.
WARM_INSTANCE = "s15850a_3_2"
#: The cold base formula: smaller than the warm one, so a run of one full
#: build per job still completes 100 jobs.
COLD_INSTANCE = "s9234a_3_2"
#: The formulas a store-backed pool cycles through.
POOL_INSTANCES = ("s15850a_3_2", "Prod-32", "s9234a_3_2", "Prod-20")


def job_seed(workload_seed: int, index: int) -> int:
    """Sampler seed of job ``index``: distinct for every job of a run."""
    return (workload_seed * 1_000_003 + index) % 2**31


def warmup_seed(workload_seed: int, index: int) -> int:
    """Sampler seed of set-up job ``index``, outside the job sequence."""
    return job_seed(workload_seed, -1 - index)


def instance_file(name: str, directory: str) -> str:
    """Path of a registry instance's DIMACS file, written once per directory."""
    from repro.cnf.dimacs import write_dimacs
    from repro.instances.registry import get_instance

    path = os.path.join(directory, f"{name}.cnf")
    if not os.path.exists(path):
        os.makedirs(directory, exist_ok=True)
        scratch = f"{path}.{os.getpid()}"
        with open(scratch, "w") as handle:
            handle.write(write_dimacs(get_instance(name).build_cnf(), include_comments=False))
        os.replace(scratch, path)
    return path


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


@dataclass(frozen=True)
class Job:
    #: What ``SamplingService.submit`` receives: a path or DIMACS text.
    source: str
    seed: int
    #: Which checker validates the job's rows (see ``Workload.checker``).
    check: object = None


class Workload:
    """One traffic mix: service options, job sequence and output checker."""

    name = ""
    num_solutions = 200
    #: Jobs kept outstanding by the closed-loop client.
    in_flight = 1
    #: The ``JobResult.summary`` tier counter that is exactly 1 on every job
    #: (the other two are 0).
    tier = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def load_inputs(self, inputs_dir: str) -> None:
        raise NotImplementedError

    def prepare_run(self, run_dir: str) -> Dict[str, float]:
        """Per-run preparation kept out of ``setup_s``; returns its timings."""
        return {}

    def service_options(self) -> Dict[str, object]:
        return {"num_workers": 0, "store_dir": False}

    def config(self, seed: int):
        from repro.core.config import SamplerConfig

        return SamplerConfig.paper_defaults(batch_size=BATCH_SIZE, seed=seed)

    def job(self, index: int) -> Job:
        raise NotImplementedError

    def warmup(self, repeat: int) -> List[Job]:
        """The jobs set-up repetition ``repeat`` runs before it is ready."""
        raise NotImplementedError

    def checker(self, check: object) -> ClauseChecker:
        raise NotImplementedError


class WarmInline(Workload):
    """One formula from a ``.cnf`` path, warm in the inline memory cache.

    Every job pays submit (parse and signature) and one sampling round and
    skips transform, store and IPC, so it is the workload a warm-path change
    moves and a cold-path or store change should leave alone.
    """

    name = "warm_inline"
    tier = "memory_hits"

    def load_inputs(self, inputs_dir: str) -> None:
        self.path = instance_file(WARM_INSTANCE, inputs_dir)
        self._checker = ClauseChecker.from_dimacs(_read(self.path))

    def job(self, index: int) -> Job:
        return Job(self.path, job_seed(self.seed, index))

    def warmup(self, repeat: int) -> List[Job]:
        return [Job(self.path, warmup_seed(self.seed, repeat))]

    def checker(self, check: object) -> ClauseChecker:
        return self._checker


class ColdInline(Workload):
    """A formula the process has never seen on every job, built inline.

    Job ``i`` is the base formula plus the clause ``(x_{n+1} OR l_i)`` over a
    fresh variable, with ``l_i`` drawn without replacement from the seed, so
    every job has a new signature and pays one full build of equal cost:
    parse, signature, transform, engine compile and plan compile.
    """

    name = "cold_inline"
    tier = "cold_builds"
    #: Variables whose literals only the set-up's warm-up jobs use.
    RESERVED_VARIABLES = 2

    def load_inputs(self, inputs_dir: str) -> None:
        text = _read(instance_file(COLD_INSTANCE, inputs_dir))
        self._base = ClauseChecker.from_dimacs(text)
        num_variables = self._base.num_variables
        self._header = f"p cnf {num_variables + 1} {self._base.num_clauses + 1}\n"
        self._body = "".join(
            line + "\n" for line in text.splitlines() if line and line[0] not in "cp"
        )
        variables = np.arange(self.RESERVED_VARIABLES + 1, num_variables + 1)
        literals = np.concatenate([variables, -variables])
        self._literals = np.random.default_rng(self.seed).permutation(literals)

    def _job(self, literal: int, seed: int) -> Job:
        clause = (self._base.num_variables + 1, int(literal))
        text = f"{self._header}{self._body}{clause[0]} {clause[1]} 0\n"
        return Job(text, seed, clause)

    def job(self, index: int) -> Job:
        return self._job(self._literals[index], job_seed(self.seed, index))

    def warmup(self, repeat: int) -> List[Job]:
        reserved = [1, -1, 2, -2]
        return [self._job(reserved[repeat % len(reserved)], warmup_seed(self.seed, repeat))]

    def checker(self, check: object) -> ClauseChecker:
        return self._base.with_clause(check, self._base.num_variables + 1)


class StorePool(Workload):
    """A one-worker pool whose every job loads its artifact from the store.

    The pool's memory cache holds one entry and the jobs cycle through four
    formulas, so each job misses memory and loads from a store filled before
    set-up.  Jobs take several rounds and two are kept in flight, so the
    client's submit overlaps the worker's sampling; rows reach the client
    through the result queue and ``stream()``.
    """

    name = "store_pool"
    tier = "store_hits"
    num_solutions = 600
    in_flight = 2

    def load_inputs(self, inputs_dir: str) -> None:
        self.paths = [instance_file(name, inputs_dir) for name in POOL_INSTANCES]
        self._checkers = [ClauseChecker.from_dimacs(_read(path)) for path in self.paths]

    def prepare_run(self, run_dir: str) -> Dict[str, float]:
        """Fill a fresh store with the four artifacts.

        The fill is timed on its own (``store_fill_s`` in the record), not
        in ``setup_s``: its fsync'd writes swing by a second from run to run
        on a shared disk.  It runs in a child process, so the four builds'
        memory stays out of the client's peak RSS.
        """
        import multiprocessing

        self.store_dir = os.path.join(run_dir, "store")
        start = time.perf_counter()
        filler = multiprocessing.get_context("spawn").Process(
            target=fill_store, args=(self.paths, self.store_dir)
        )
        filler.start()
        filler.join()
        if filler.exitcode != 0:
            raise RuntimeError(f"filling the store failed with exit code {filler.exitcode}")
        return {"store_fill_s": time.perf_counter() - start}

    def service_options(self) -> Dict[str, object]:
        return {"num_workers": 1, "cache_entries": 1, "store_dir": self.store_dir}

    def job(self, index: int) -> Job:
        formula = index % len(self.paths)
        return Job(self.paths[formula], job_seed(self.seed, index), formula)

    def warmup(self, repeat: int) -> List[Job]:
        count = len(self.paths)
        return [
            Job(path, warmup_seed(self.seed, count * repeat + formula), formula)
            for formula, path in enumerate(self.paths)
        ]

    def checker(self, check: object) -> ClauseChecker:
        return self._checkers[check]


def fill_store(paths: List[str], store_dir: str) -> None:
    """Build and persist the artifacts of ``paths`` in the store at ``store_dir``."""
    from repro.serve.cache import ArtifactCache
    from repro.serve.jobs import load_source
    from repro.store import ArtifactStore

    cache = ArtifactCache(store=ArtifactStore(store_dir))
    for path in paths:
        cache.get_or_build(formula=load_source({"path": path}))


WORKLOADS = {workload.name: workload for workload in (WarmInline, ColdInline, StorePool)}
