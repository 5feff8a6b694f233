#!/usr/bin/env python3
"""Observability tour: trace a sampling job end to end.

This walks through the telemetry layer (:mod:`repro.obs`) on a registry
instance:

1. run one pipeline job with a JSONL trace file open
   (``obs.trace_scope(path)`` around the call — what
   ``repro-sat sample --trace`` does, and what ``$REPRO_TRACE`` does when
   no scope names a spec),
2. read the trace back and print the per-stage flame summary
   (what ``repro-sat obs TRACE`` prints),
3. tabulate the run's metric counters from the trace file's metrics line,
4. run the same jobs through a 2-worker :class:`SamplingService` with
   tracing on and show one job's timeline *spanning three processes* —
   worker task spans parent under the service's job span,
5. export the merged service metrics in Prometheus text format.

Run with:  python examples/trace_a_job.py [--workers N] [--keep]
"""

import argparse
import tempfile
from pathlib import Path

from repro import obs
from repro.core.config import SamplerConfig
from repro.core.pipeline import sample_cnf
from repro.instances.registry import get_instance
from repro.serve import SamplingService

INSTANCE = "or-50-10-7-UC-10"
CONFIG = SamplerConfig(batch_size=256, seed=0, max_rounds=8)


def trace_one_pipeline_job(trace_path: Path) -> None:
    formula = get_instance(INSTANCE).build_cnf()
    with obs.trace_scope(str(trace_path)):  # <- the only change
        result = sample_cnf(formula, num_solutions=50, config=CONFIG)
    print(f"[pipeline] {len(result.sample.solutions)} unique solutions on "
          f"{INSTANCE}; trace written to {trace_path}")

    # -- 2: the flame summary (repro-sat obs TRACE does exactly this) ------------
    spans, metric_records = obs.load_trace(trace_path)
    print(f"[pipeline] {len(spans)} spans recorded:")
    print(obs.render_trace(spans))

    # -- 3: the counters the run accumulated, from the file alone ----------------
    merged = obs.merge_metric_records(metric_records)
    kernel = merged.get("repro_cnf_evaluations_total", {}).get("series", {})
    rounds = merged.get("repro_sampler_rounds_total", {}).get("series", {})
    print(f"[pipeline] sampler rounds: {rounds} | cnf-eval batches: {kernel}")


def trace_a_worker_pool(trace_path: Path, workers: int) -> None:
    with SamplingService(num_workers=workers, trace=str(trace_path)) as service:
        jobs = [
            service.submit({"instance": INSTANCE}, num_solutions=50,
                           config=CONFIG.with_(seed=seed), coalesce=False)
            for seed in (0, 1, 2)
        ]
        for job_id in jobs:
            result = service.result(job_id)
            print(f"[serve] {job_id}: {result.status}, "
                  f"{result.num_unique} unique "
                  f"(artifact {result.members[0]['artifact_source']})")
        merged = service.merged_metrics()
        headline = jobs[0]

    # -- 4: one job's cross-process timeline, reconstructed from the file --------
    spans, _ = obs.load_trace(trace_path)
    job_spans = [span for span in spans if span.get("trace_id") == headline]
    pids = {span["pid"] for span in job_spans}
    print(f"[serve] job {headline}: {len(job_spans)} spans across "
          f"{len(pids)} processes")
    print(obs.render_trace(spans, trace_id=headline))

    # -- 5: the merged metrics in Prometheus exposition format -------------------
    registry = obs.MetricsRegistry()
    registry.merge(merged)
    exposition = registry.to_prometheus()
    wanted = ("repro_serve_artifacts_total", "repro_serve_jobs_total")
    print("[serve] Prometheus export (artifact/job lines):")
    for line in exposition.splitlines():
        if line.startswith(wanted):
            print(f"  {line}")
    print(f"[serve] shared artifact-counter view: {obs.artifact_counters(merged)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the serve half (default 2)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the trace files and print their paths")
    arguments = parser.parse_args()

    directory = Path(tempfile.mkdtemp(prefix="repro-obs-"))
    trace_one_pipeline_job(directory / "pipeline-trace.jsonl")
    trace_a_worker_pool(directory / "serve-trace.jsonl", arguments.workers)
    if arguments.keep:
        print(f"traces kept in {directory} — inspect with: "
              f"python -m repro.cli obs {directory}/serve-trace.jsonl")
    else:
        for path in directory.iterdir():
            path.unlink()
        directory.rmdir()


if __name__ == "__main__":
    main()
