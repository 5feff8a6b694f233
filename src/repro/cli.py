"""Command-line interface.

Four subcommands cover the common workflows:

``sample``
    DIMACS CNF in, unique solutions out (with throughput statistics) —
    the end-to-end pipeline of the paper.

``serve``
    Batch front end of the sampling service (:mod:`repro.serve`): read a
    jobs manifest (JSON or JSONL), run it on a pool of worker processes
    with request coalescing, artifact caching and portfolio scheduling,
    and write per-job results + solution files.

``transform``
    Run Algorithm 1 only and report the recovered structure; optionally
    export the recovered circuit as structural Verilog or ``.bench``.

``instances``
    List the built-in benchmark registry or write one of its instances to a
    DIMACS file (useful for feeding external samplers).

``cache``
    Inspect and maintain a persistent artifact store (:mod:`repro.store`):
    ``stats``, ``ls``, ``verify`` (checksum walk) and ``prune --max-bytes``.

``obs``
    Pretty-print a recorded JSONL telemetry trace (:mod:`repro.obs`): a
    per-job flame summary (stage tree with total/self wall-clock) plus the
    merged metrics dump.  Traces come from ``--trace`` on ``sample``,
    ``transform`` and ``serve``, or the ``REPRO_TRACE`` environment
    variable.

Entry point: ``python -m repro.cli <subcommand> ...`` or the ``repro-sat``
console script.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.circuit.bench_format import write_bench
from repro.circuit.verilog import to_verilog
from repro.cnf.dimacs import DimacsError, write_dimacs_file
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.pipeline import load_formula, sample_cnf
from repro.core.transform import transform_cnf
from repro.eval.report import render_rows
from repro.instances.registry import REGISTRY, get_instance
from repro.io.solutions_io import write_solutions_file


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sat",
        description="High-throughput SAT sampling via CNF-to-circuit transformation and gradient descent",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sample = subparsers.add_parser("sample", help="sample solutions of a DIMACS CNF")
    sample.add_argument("cnf", help="path to a DIMACS .cnf file")
    sample.add_argument("-n", "--num-solutions", type=int, default=1000,
                        help="unique-solution target (default 1000)")
    sample.add_argument("-b", "--batch-size", type=int, default=2048,
                        help="GD batch size (default 2048)")
    sample.add_argument("--iterations", type=int, default=5, help="GD iterations (default 5)")
    sample.add_argument("--learning-rate", type=float, default=10.0,
                        help="GD learning rate (default 10, as in the paper)")
    sample.add_argument("--seed", type=int, default=0, help="random seed")
    sample.add_argument("--timeout", type=float, default=None, help="wall-clock budget in seconds")
    sample.add_argument("-o", "--output", default=None,
                        help="write solutions (signed-literal lines) to this file")
    sample.add_argument("--project", action="append", type=int, default=None,
                        metavar="VAR",
                        help="count unique solutions over this 1-based variable "
                             "only (repeatable; together the repeats form the "
                             "projection set)")
    sample.add_argument("--weight", action="append", default=None,
                        metavar="VAR=P",
                        help="bias the sampler's initialization so the variable "
                             "leans towards probability P in (0,1), e.g. "
                             "--weight 3=0.9 (repeatable)")
    sample.add_argument("--assume", action="append", type=int, default=None,
                        metavar="LIT",
                        help="assume a signed literal (added as a unit clause "
                             "before transforming; repeatable)")
    sample.add_argument("--add-clause", action="append", default=None,
                        metavar="LITS",
                        help="add a clause before transforming, as quoted "
                             "space-separated literals: --add-clause '1 -2 3' "
                             "(repeatable)")
    sample.add_argument("--retract-clause", action="append", default=None,
                        metavar="LITS",
                        help="remove the first clause matching these literals "
                             "before transforming (repeatable)")
    sample.add_argument("--store-dir", default=None, metavar="DIR",
                        help="persistent artifact store: skip the transform "
                             "when this formula was compiled before, persist "
                             "it otherwise ('off' disables; overrides the "
                             "REPRO_STORE_DIR environment variable; default: "
                             "off unless REPRO_STORE_DIR is set)")
    sample.add_argument("--trace", default=None, metavar="FILE",
                        help="record a telemetry trace of the run to this "
                             "JSONL file (inspect with 'repro-sat obs'; "
                             "'mem' buffers spans without a file, 'off' "
                             "records none; overrides the REPRO_TRACE "
                             "environment variable)")

    serve = subparsers.add_parser(
        "serve", help="run a jobs manifest through the multi-worker sampling service"
    )
    serve.add_argument("manifest", help="jobs manifest: JSON array, {'jobs': [...]}, or JSONL")
    serve.add_argument("-w", "--workers", type=int, default=0,
                       help="worker processes (0 = run inline in this process, the default)")
    serve.add_argument("--cache-entries", type=int, default=8,
                       help="per-worker artifact-cache entry bound (default 8 formulas)")
    serve.add_argument("--cache-mb", type=float, default=256.0,
                       help="per-worker artifact-cache byte bound in MiB (default 256)")
    serve.add_argument("-o", "--output-dir", default=None,
                       help="write results.json plus one <job-id>.solutions file here")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget waiting on the worker pool "
                            "(seconds; with --workers 0 jobs run synchronously in "
                            "this process, so the flag is ignored — use the config's "
                            "timeout_seconds to bound a job's own runtime)")
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="persistent artifact store shared by the pool "
                            "(single-flight cold builds, warm restarts); ON "
                            "by default for serve — $REPRO_STORE_DIR if set, "
                            "else ~/.cache/repro-sat/store")
    serve.add_argument("--no-store", action="store_true",
                       help="disable the persistent artifact store for this run")
    serve.add_argument("--trace", nargs="?", const=True, default=None, metavar="FILE",
                       help="record one JSONL telemetry trace covering the "
                            "service and every worker (worker spans are "
                            "merged under their job spans); FILE defaults "
                            "to trace.jsonl in --output-dir (or the current "
                            "directory); inspect with 'repro-sat obs'")
    serve.add_argument("--retry", default=None, metavar="SPEC",
                       help="retry policy for every failed task: N (max "
                            "attempts, default 3) or 'attempts=N,backoff=S' "
                            "(S = seconds before the first retry, default "
                            "0.1, doubling per retry up to 30); a worker "
                            "death spends an attempt, and a task whose last "
                            "attempt died is 'poisoned'")
    serve.add_argument("--resume", default=None, metavar="DIR",
                       help="resume an interrupted run from DIR's journal: "
                            "jobs whose completion was journaled (and whose "
                            "solutions file survived) are skipped, the rest "
                            "re-run; implies --output-dir DIR")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="deterministic fault-injection plan "
                            "(repro.faults), e.g. "
                            "'seed=7;kill:at=2,incarnation=0' — testing aid; "
                            "defaults to $REPRO_FAULTS")

    cache = subparsers.add_parser(
        "cache", help="inspect and maintain a persistent artifact store"
    )
    cache.add_argument("action", choices=["stats", "ls", "verify", "prune"],
                       help="stats: counters and byte census; ls: list entries; "
                            "verify: checksum-walk every entry; prune: delete "
                            "least-recently-used entries down to --max-bytes")
    cache.add_argument("--store-dir", default=None, metavar="DIR",
                       help="store directory (default: $REPRO_STORE_DIR if set, "
                            "else ~/.cache/repro-sat/store)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="byte bound for prune (required with 'prune')")

    transform = subparsers.add_parser(
        "transform", help="recover the multi-level function from a DIMACS CNF"
    )
    transform.add_argument("cnf", help="path to a DIMACS .cnf file")
    transform.add_argument("--verilog", default=None, help="write the recovered circuit as Verilog")
    transform.add_argument("--bench", default=None, help="write the recovered circuit as .bench")
    transform.add_argument("--profile", action="store_true",
                           help="print per-stage wall-clock timings "
                                "(TransformStats.stage_seconds)")
    transform.add_argument("--trace", default=None, metavar="FILE",
                           help="record a telemetry trace of the transform to "
                                "this JSONL file (inspect with 'repro-sat obs')")

    obs_cmd = subparsers.add_parser(
        "obs", help="pretty-print a recorded JSONL telemetry trace"
    )
    obs_cmd.add_argument("trace", help="path to a trace file written by --trace / REPRO_TRACE")
    obs_cmd.add_argument("--job", default=None, metavar="ID",
                         help="render only this trace/job id's timeline")
    obs_cmd.add_argument("--no-metrics", action="store_true",
                         help="skip the metrics dump (timelines only)")
    obs_cmd.add_argument("--prometheus", default=None, metavar="FILE",
                         help="also write the trace's merged metrics in "
                              "Prometheus text exposition format")

    instances = subparsers.add_parser("instances", help="inspect the built-in benchmark registry")
    instances.add_argument("--family", default=None, help="filter by family (or/q/iscas/prod)")
    instances.add_argument("--write", default=None, metavar="NAME",
                           help="generate the named instance and write it as DIMACS")
    instances.add_argument("--output-dir", default=".", help="directory for --write (default .)")
    return parser


def _parse_weight(text: str):
    variable, separator, probability = text.partition("=")
    if not separator:
        raise SystemExit(f"--weight expects VAR=P, got {text!r}")
    try:
        return int(variable), float(probability)
    except ValueError:
        raise SystemExit(f"--weight expects VAR=P with integer VAR and float P, got {text!r}")


def _parse_clause(text: str):
    try:
        return [int(literal) for literal in text.split()]
    except ValueError:
        raise SystemExit(f"expected space-separated literals, got {text!r}")


def _task_from_arguments(arguments: argparse.Namespace):
    from repro.core.task import SamplingTask

    task = SamplingTask.build(
        project=tuple(arguments.project or ()),
        weights=[_parse_weight(item) for item in arguments.weight or ()],
        add=[_parse_clause(item) for item in arguments.add_clause or ()],
        retract=[_parse_clause(item) for item in arguments.retract_clause or ()],
        assume=tuple(arguments.assume or ()),
    )
    return None if task.is_default else task


def _read_formula(path: str) -> Optional[CNF]:
    """Parse a DIMACS file argument; ``None`` after a one-line error on stderr."""
    try:
        return load_formula(Path(path))
    except (OSError, UnicodeDecodeError, DimacsError) as error:
        # An OSError's strerror is its message without the path.
        message = getattr(error, "strerror", None) or error
        print(f"repro-sat: error: {path}: {message}", file=sys.stderr)
        return None


def _command_sample(arguments: argparse.Namespace) -> int:
    from repro import obs

    formula = _read_formula(arguments.cnf)
    if formula is None:
        return 2
    task = _task_from_arguments(arguments)
    config = SamplerConfig(
        batch_size=arguments.batch_size,
        iterations=arguments.iterations,
        learning_rate=arguments.learning_rate,
        seed=arguments.seed,
        timeout_seconds=arguments.timeout,
    )
    with obs.trace_scope(arguments.trace):
        result = sample_cnf(
            formula,
            num_solutions=arguments.num_solutions,
            config=config,
            task=task,
            store_dir=arguments.store_dir,
        )
    sample = result.sample
    print(f"instance           : {formula.name or arguments.cnf}")
    print(f"variables / clauses: {result.formula.num_variables} / {result.formula.num_clauses}")
    if task is not None:
        print(f"task               : {task.kind()}")
        if task.is_projected:
            print(f"projected unique   : {sample.projected_unique} "
                  f"(over {len(task.project)} variables)")
    print(f"ops reduction      : {result.transform.stats.operations_reduction:.2f}x")
    print(f"transform time     : {result.transform_seconds:.3f} s")
    print(f"unique solutions   : {sample.num_unique}")
    print(f"validity rate      : {sample.validity_rate:.1%}")
    print(f"sampling time      : {result.sample_seconds:.3f} s")
    print(f"throughput         : {sample.throughput:,.1f} unique solutions / s")
    if arguments.output:
        path = write_solutions_file(sample.solutions, arguments.output)
        print(f"solutions written  : {path}")
    if arguments.trace and arguments.trace not in ("off", "mem"):
        print(f"trace written      : {arguments.trace} (repro-sat obs {arguments.trace})")
    return 0 if sample.num_unique > 0 else 1


def _command_serve(arguments: argparse.Namespace) -> int:
    import os
    import signal

    from repro import obs
    from repro.io.results_io import (
        write_job_results_json,
        write_metrics_json,
        write_metrics_prometheus,
    )
    from repro.serve import (
        JobJournal,
        ManifestError,
        SamplingService,
        load_manifest,
        plan_resume,
    )
    from repro.serve.journal import JOURNAL_NAME
    from repro.serve.retry import RetrySpecError, parse_retry_spec

    try:
        jobs = load_manifest(arguments.manifest)
        retry = None if arguments.retry is None else parse_retry_spec(arguments.retry)
    except (ManifestError, RetrySpecError) as error:
        print(f"repro-sat: error: {error}", file=sys.stderr)
        return 2
    cache_bytes = int(arguments.cache_mb * 1024 * 1024) if arguments.cache_mb else None
    output_dir = Path(arguments.output_dir) if arguments.output_dir else None
    if arguments.resume is not None:
        if output_dir is not None and output_dir != Path(arguments.resume):
            print("error: --resume DIR already names the output directory; "
                  "drop the conflicting --output-dir", file=sys.stderr)
            return 2
        output_dir = Path(arguments.resume)
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)

    # --resume: the journal proves which manifest jobs already finished (and
    # their solutions files survived); only the remainder is submitted.
    entries = list(enumerate(jobs))
    resumed_rows: List[Optional[dict]] = [None] * len(jobs)
    if arguments.resume is not None:
        entries, resumed_rows = plan_resume(
            jobs, output_dir / JOURNAL_NAME, output_dir
        )
        skipped = len(jobs) - len(entries)
        print(f"resuming            : {skipped}/{len(jobs)} jobs already "
              f"complete in {output_dir}, running {len(entries)}")

    timeout = arguments.timeout
    if timeout is not None and arguments.workers == 0:
        print("note: --timeout has no effect with --workers 0 (jobs run "
              "synchronously in this process)", file=sys.stderr)
        timeout = None
    # The store is ON by default for serve: an explicit --store-dir wins,
    # --no-store disables, and otherwise $REPRO_STORE_DIR (when set) or the
    # conventional ~/.cache/repro-sat/store location is used.
    if arguments.no_store:
        store_spec: object = False
    elif arguments.store_dir is not None:
        store_spec = arguments.store_dir
    else:
        from repro.store import resolve_store_dir

        store_spec = None if resolve_store_dir(None) is not None else True
    # --trace without a FILE lands next to the results (or in the cwd).
    trace = arguments.trace
    if trace is True:
        trace = str((output_dir or Path(".")) / "trace.jsonl")
    journal = None
    if output_dir is not None:
        journal = JobJournal(output_dir / JOURNAL_NAME)
        journal.record(
            "run",
            manifest=str(arguments.manifest),
            workers=arguments.workers,
            pid=os.getpid(),
            resumed=arguments.resume is not None,
        )

    # Results keyed by manifest index: journal-recovered rows (dicts) and
    # fresh JobResults mix in manifest order.
    collected: dict = {
        index: row for index, row in enumerate(resumed_rows) if row is not None
    }
    interrupts = {"count": 0}
    metrics = None
    try:
        with SamplingService(
            num_workers=arguments.workers,
            cache_entries=arguments.cache_entries,
            cache_bytes=cache_bytes,
            store_dir=store_spec,
            trace=trace,
            retry=retry,
            journal=journal,
            faults=arguments.faults,
        ) as service:

            def handle_signal(_signum, _frame):
                # First signal: graceful drain (flag only — handler-safe).
                # Second: abort hard through the normal exception path.
                interrupts["count"] += 1
                if interrupts["count"] == 1:
                    service.request_drain()
                    print("drain requested: checkpointing in-flight jobs "
                          "(interrupt again to abort hard)", file=sys.stderr)
                else:
                    raise KeyboardInterrupt

            previous = {
                signal.SIGINT: signal.signal(signal.SIGINT, handle_signal),
                signal.SIGTERM: signal.signal(signal.SIGTERM, handle_signal),
            }
            try:
                submitted = []
                for index, job in entries:
                    if interrupts["count"]:
                        break
                    try:
                        submitted.append((index, service.submit(job)))
                    except RuntimeError:
                        break  # the drain closed admissions under us
                for index, job_id in submitted:
                    result = service.result(job_id, timeout=timeout)
                    collected[index] = result
                    if output_dir is not None:
                        # Written per job as collected (not batched at the
                        # end), so an interrupted run leaves every journaled
                        # completion's solutions on disk for --resume.
                        write_solutions_file(
                            result.solutions,
                            output_dir / f"{result.job_id}.solutions",
                        )
                metrics = service.merged_metrics()
            finally:
                for signum, handler in previous.items():
                    signal.signal(signum, handler)
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 130

    results = [collected[index] for index in sorted(collected)]
    rows = []
    for result in results:
        if isinstance(result, dict):
            rows.append(
                {
                    "job": result.get("job_id"),
                    "status": f"{result.get('status')} (resumed)",
                    "unique": result.get("num_unique"),
                    "requested": result.get("num_requested"),
                    "seconds": f"{result.get('elapsed_seconds', 0.0):.3f}",
                    "throughput": "",
                    "members": len(result.get("members", [])),
                    "coalesced": result.get("coalesced_with") or "",
                }
            )
            continue
        rows.append(
            {
                "job": result.job_id,
                "status": result.status,
                "unique": result.num_unique,
                "requested": result.num_requested,
                "seconds": f"{result.elapsed_seconds:.3f}",
                "throughput": f"{result.throughput:,.1f}/s",
                "members": len(result.members),
                "coalesced": result.coalesced_with or "",
            }
        )
    print(render_rows(rows, title=f"{len(results)} jobs ({arguments.workers} workers)"))

    if output_dir is not None:
        results_path = write_job_results_json(results, output_dir / "results.json")
        print(f"results written     : {results_path}")
        if metrics is not None:
            prom_path = write_metrics_prometheus(metrics, output_dir / "metrics.prom")
            write_metrics_json(metrics, output_dir / "metrics.json")
            print(f"metrics written     : {prom_path} (+ metrics.json)")
    if metrics is not None:
        counters = obs.artifact_counters(metrics)
        if counters:
            pairs = ", ".join(
                f"{key}={int(value)}" for key, value in sorted(counters.items())
            )
            print(f"artifact counters   : {pairs}")
    if trace and trace not in ("off", "mem"):
        print(f"trace written       : {trace} (repro-sat obs {trace})")

    def status_of(result) -> str:
        return result.get("status") if isinstance(result, dict) else result.status

    failed = [r for r in results if status_of(r) in ("error", "poisoned")]
    for result in failed:
        error = result.get("error") if isinstance(result, dict) else result.error
        job_id = result.get("job_id") if isinstance(result, dict) else result.job_id
        print(f"job {job_id} failed: {error}", file=sys.stderr)
    if failed:
        return 1
    if interrupts["count"] or any(status_of(r) == "interrupted" for r in results):
        print("run interrupted; finish it with: repro-sat serve "
              f"{arguments.manifest} --resume {output_dir or '<output-dir>'}",
              file=sys.stderr)
        return 130
    return 0


def _command_transform(arguments: argparse.Namespace) -> int:
    from repro import obs

    formula = _read_formula(arguments.cnf)
    if formula is None:
        return 2
    with obs.trace_scope(arguments.trace):
        result = transform_cnf(formula)
        obs.write_metrics_to_trace()
    stats = result.stats
    print(f"instance              : {formula.name or arguments.cnf}")
    print(f"clauses               : {stats.num_clauses}")
    print(f"primary inputs        : {len(result.primary_inputs)}")
    print(f"intermediate variables: {len(result.intermediate_variables)}")
    print(f"constant outputs      : {len(result.primary_outputs)}")
    print(f"constraint outputs    : {len(result.constraints)}")
    print(f"constrained inputs    : {len(result.constrained_inputs())}")
    print(f"signature matches     : {stats.signature_matches}")
    print(f"generic extractions   : {stats.generic_matches}")
    print(f"fallback groups       : {stats.fallback_groups}")
    print(f"CNF operations        : {stats.cnf_operations}")
    print(f"circuit operations    : {stats.circuit_operations}")
    print(f"ops reduction         : {stats.operations_reduction:.2f}x")
    print(f"transform time        : {stats.seconds:.3f} s")
    if arguments.profile:
        print("stage timings (seconds; signature/extraction/simplify/flush "
              "are inside stream):")
        for stage, seconds in sorted(
            stats.stage_seconds.items(), key=lambda item: -item[1]
        ):
            print(f"  {stage:<14s}: {seconds:.4f}")
    if arguments.verilog:
        Path(arguments.verilog).write_text(to_verilog(result.circuit))
        print(f"verilog written       : {arguments.verilog}")
    if arguments.bench:
        Path(arguments.bench).write_text(write_bench(result.circuit))
        print(f".bench written        : {arguments.bench}")
    if arguments.trace and arguments.trace not in ("off", "mem"):
        print(f"trace written         : {arguments.trace} "
              f"(repro-sat obs {arguments.trace})")
    return 0


def _command_cache(arguments: argparse.Namespace) -> int:
    from repro.store import ArtifactStore, default_store_dir, resolve_store_dir

    directory = resolve_store_dir(arguments.store_dir)
    if directory is None:
        directory = resolve_store_dir(None) or default_store_dir()
    store = ArtifactStore(directory)

    if arguments.action == "stats":
        from repro import obs

        stats = store.stats()
        print(f"store directory : {stats['dir']}")
        print(f"entries         : {stats['entries']}")
        print(f"bytes           : {stats['bytes']:,}")
        for kind, count in sorted(stats["kinds"].items()):
            print(f"  {kind:<13s} : {count}")
        # Session counters come from the shared telemetry registry — the
        # same accessor the serving layer's exports read (repro.obs), so
        # the two views cannot drift.
        counters = obs.artifact_counters()
        if counters:
            print("session counters:")
            for key, value in sorted(counters.items()):
                print(f"  {key:<13s} : {int(value)}")
        return 0

    if arguments.action == "ls":
        rows = [
            {
                "kind": entry.kind,
                "signature": entry.signature[:16],
                "bytes": f"{entry.nbytes:,}",
                "last used": time.strftime(
                    "%Y-%m-%d %H:%M:%S", time.localtime(entry.mtime)
                ),
            }
            for entry in store.entries()
        ]
        print(render_rows(rows, title=f"{len(rows)} entries in {store.root}"))
        return 0

    if arguments.action == "verify":
        intact, bad = store.verify()
        print(f"verified {len(intact) + len(bad)} entries: "
              f"{len(intact)} intact, {len(bad)} bad")
        for entry, reason in bad:
            print(f"BAD {entry.path}: {reason}", file=sys.stderr)
        return 1 if bad else 0

    if arguments.action == "prune":
        if arguments.max_bytes is None:
            raise SystemExit("cache prune requires --max-bytes")
        removed = store.prune(arguments.max_bytes)
        freed = sum(entry.nbytes for entry in removed)
        stats = store.stats()
        print(f"pruned {len(removed)} entries ({freed:,} bytes); "
              f"{stats['entries']} entries / {stats['bytes']:,} bytes remain")
        return 0

    raise AssertionError(f"unhandled cache action {arguments.action!r}")


def _command_obs(arguments: argparse.Namespace) -> int:
    from repro import obs

    path = Path(arguments.trace)
    if not path.exists():
        raise SystemExit(f"no such trace file: {path}")
    spans, metric_records = obs.load_trace(path)
    print(obs.render_trace(spans, trace_id=arguments.job), end="")
    merged = obs.merge_metric_records(metric_records)
    if not arguments.no_metrics and merged:
        print()
        print(f"-- metrics ({len(metric_records)} dump"
              f"{'s' if len(metric_records) != 1 else ''}) --")
        print(obs.render_metrics_dump(merged), end="")
    if arguments.prometheus:
        from repro.io.results_io import write_metrics_prometheus

        prom_path = write_metrics_prometheus(merged, arguments.prometheus)
        print(f"prometheus written: {prom_path}")
    return 0


def _command_instances(arguments: argparse.Namespace) -> int:
    if arguments.write:
        entry = get_instance(arguments.write)
        formula = entry.build_cnf()
        path = Path(arguments.output_dir) / f"{entry.name}.cnf"
        write_dimacs_file(formula, path)
        print(f"wrote {path} ({formula.num_variables} variables, {formula.num_clauses} clauses)")
        return 0
    rows = []
    for entry in REGISTRY:
        if arguments.family and entry.family != arguments.family:
            continue
        rows.append(
            {
                "name": entry.name,
                "family": entry.family,
                "table2": "yes" if "table2" in entry.tags else "",
                "description": entry.description,
            }
        )
    print(render_rows(rows, title=f"{len(rows)} registered instances"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = _build_parser().parse_args(argv)
    if arguments.command in ("sample", "serve"):
        from repro import native

        try:
            native.active_tier()  # the engine needs the C tier; fail before any work
        except native.BackendUnavailableError as error:
            print(f"repro-sat: error: {error}", file=sys.stderr)
            return 2
    if arguments.command == "sample":
        return _command_sample(arguments)
    if arguments.command == "serve":
        return _command_serve(arguments)
    if arguments.command == "transform":
        return _command_transform(arguments)
    if arguments.command == "instances":
        return _command_instances(arguments)
    if arguments.command == "cache":
        return _command_cache(arguments)
    if arguments.command == "obs":
        return _command_obs(arguments)
    raise AssertionError(f"unhandled command {arguments.command!r}")


if __name__ == "__main__":
    sys.exit(main())
