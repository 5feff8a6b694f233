"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The last line of
standard output is the result as one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it is the run's
record (provenance, output digest, check totals, set-up samples).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  Workloads and metrics are declared in ``BENCHMARK.json``.

Everything the run writes stays under ``perfbench/.work`` in the checkout:
the instance files, the native kernel cache and a per-run directory that is
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("warm_inline", "cold_inline", "store_pool")


def _prepare_environment() -> str:
    """Pin the settings the program reads from the environment."""
    work_dir = os.path.join(ROOT, "perfbench", ".work")
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_NATIVE_CACHE_DIR"] = os.path.join(work_dir, "native")
    os.environ["TMPDIR"] = os.path.join(work_dir, "tmp")
    # One thread per process: the client and each worker get one core.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    return work_dir


def _stop_resource_tracker() -> None:
    """Join the helper process multiprocessing starts for the pool's locks."""
    import gc
    from multiprocessing import resource_tracker

    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source_dir = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source_dir, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {source_dir}", file=sys.stderr)
        return 2
    work_dir = _prepare_environment()
    sys.path[:0] = [source_dir, ROOT]
    from perfbench.bench import run

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work_dir)
    _stop_resource_tracker()
    print(json.dumps(outcome["record"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
