"""Table II: unique-solution throughput of this work vs the CNF-level baselines.

:func:`build_table2` runs the Table II protocol (every sampler must produce a
minimum number of unique solutions within a timeout) over the representative
instances and assembles one row per instance with the measured throughputs and
the speedup of this work over the best baseline — the same quantities the
paper reports.  The paper's own numbers (when available from the registry
metadata) ride along in each row so a report can show both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.base import BaselineSampler
from repro.core.config import SamplerConfig
from repro.eval.report import render_rows
from repro.eval.runner import RunRecord, default_samplers, run_sampler_on_instance
from repro.instances.registry import TABLE2_INSTANCES, get_instance


@dataclass
class Table2Row:
    """One row of the reproduced Table II."""

    instance: str
    num_variables: int
    num_clauses: int
    primary_inputs: int
    primary_outputs: int
    throughputs: Dict[str, float] = field(default_factory=dict)
    timed_out: Dict[str, bool] = field(default_factory=dict)
    speedup_vs_best_baseline: Optional[float] = None
    paper_throughput_this_work: Optional[float] = None
    paper_speedup: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """Flatten for text rendering."""
        row: Dict[str, object] = {
            "instance": self.instance,
            "vars": self.num_variables,
            "clauses": self.num_clauses,
            "PI": self.primary_inputs,
            "PO": self.primary_outputs,
        }
        for name, value in self.throughputs.items():
            row[f"tput[{name}]"] = None if self.timed_out.get(name) and value == 0 else value
        row["speedup"] = self.speedup_vs_best_baseline
        row["paper_speedup"] = self.paper_speedup
        return row


def build_table2(
    instance_names: Optional[Sequence[str]] = None,
    samplers: Optional[Sequence[BaselineSampler]] = None,
    num_solutions: int = 200,
    timeout_seconds: float = 60.0,
    config: Optional[SamplerConfig] = None,
) -> List[Table2Row]:
    """Reproduce Table II over ``instance_names`` (defaults to the paper's 14).

    ``num_solutions`` and ``timeout_seconds`` default to CPU-friendly values;
    pass 1000 and 7200 to match the paper's protocol exactly.
    """
    names = list(instance_names) if instance_names is not None else list(TABLE2_INSTANCES)
    line_up = list(samplers) if samplers is not None else default_samplers(config=config)
    rows: List[Table2Row] = []

    for name in names:
        entry = get_instance(name)
        formula, _ = entry.build()
        records: List[RunRecord] = []
        for sampler in line_up:
            records.append(
                run_sampler_on_instance(
                    sampler, formula, num_solutions=num_solutions,
                    timeout_seconds=timeout_seconds,
                )
            )
        this_work = next((r for r in records if r.sampler_name == "this-work"), None)
        transform_extra = this_work.extra if this_work is not None else {}
        row = Table2Row(
            instance=name,
            num_variables=formula.num_variables,
            num_clauses=formula.num_clauses,
            primary_inputs=entry.paper.primary_inputs if entry.paper else 0,
            primary_outputs=entry.paper.primary_outputs if entry.paper else 0,
            paper_throughput_this_work=(
                entry.paper.throughput_this_work if entry.paper else None
            ),
            paper_speedup=entry.paper.speedup if entry.paper else None,
        )
        # Measured structural counts override the paper metadata when available.
        row.primary_inputs = int(transform_extra.get("primary_inputs", row.primary_inputs) or row.primary_inputs)
        best_baseline = 0.0
        for record in records:
            row.throughputs[record.sampler_name] = record.throughput
            row.timed_out[record.sampler_name] = record.timed_out
            if record.sampler_name != "this-work":
                best_baseline = max(best_baseline, record.throughput)
        if this_work is not None and best_baseline > 0:
            row.speedup_vs_best_baseline = this_work.throughput / best_baseline
        rows.append(row)
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    """Render the reproduced Table II as text."""
    return render_rows(
        [row.as_dict() for row in rows],
        title="Table II - unique-solution throughput (solutions/second)",
    )
