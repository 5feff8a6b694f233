"""Trace rendering and the shared benchmark timing helpers."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.bench import time_passes, timed
from repro.obs.render import group_spans_by_trace, render_trace


def _span(name, span_id, parent_id=None, trace_id=None, duration=0.1,
          start=0.0, status="ok"):
    return {"name": name, "span_id": span_id, "parent_id": parent_id,
            "trace_id": trace_id, "start_unix": start, "duration": duration,
            "status": status, "pid": 1}


class TestRenderTrace:
    def test_siblings_aggregate_into_one_line(self):
        spans = [_span("job", "j", trace_id="job-1", duration=1.0)]
        spans += [_span("round", f"r{i}", parent_id="j", trace_id="job-1",
                        duration=0.2, start=float(i)) for i in range(3)]
        text = render_trace(spans)
        assert "== job-1 — 4 spans across 1 process ==" in text
        assert "round" in text and "x3" in text
        # the parent's self time excludes the aggregated children
        job_line = next(line for line in text.splitlines() if "job " in line)
        assert "total    1.0000s" in job_line
        assert "self    0.4000s" in job_line

    def test_orphan_spans_render_as_roots(self):
        spans = [_span("child", "c", parent_id="gone", trace_id="t")]
        text = render_trace(spans)
        assert "child" in text  # not dropped

    def test_errors_are_annotated(self):
        spans = [_span("failing", "f", status="error")]
        assert "(1 error)" in render_trace(spans)

    def test_trace_filter(self):
        spans = [_span("a", "1", trace_id="job-1"),
                 _span("b", "2", trace_id="job-2")]
        text = render_trace(spans, trace_id="job-1")
        assert "a" in text and "job-2" not in text
        assert "no spans" in render_trace(spans, trace_id="job-9")

    def test_grouping_by_trace(self):
        spans = [_span("a", "1", trace_id="job-1"), _span("b", "2")]
        groups = group_spans_by_trace(spans)
        assert set(groups) == {"job-1", ""}

    def test_empty_trace(self):
        assert render_trace([]) == "no spans recorded\n"


class TestRenderMetricsDump:
    def test_tabulates_counters_and_histograms(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_r_total", labels=("op",)).inc(3.0, "hit")
        reg.histogram("repro_r_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = obs.render_metrics_dump(reg.to_dict())
        assert "repro_r_total (counter)" in text
        assert "{op=hit}" in text and "3" in text
        assert "repro_r_seconds (histogram)" in text
        assert "count        1" in text

    def test_empty_dump(self):
        assert obs.render_metrics_dump({}) == "no metrics recorded\n"


class TestBenchHelpers:
    def test_time_passes_counts_calls(self):
        calls = []
        seconds = time_passes(lambda: calls.append(1), repeats=3, passes=2,
                              warmup=1)
        assert len(calls) == 1 + 3 * 2  # warmup + repeats x passes
        assert seconds >= 0.0

    def test_time_passes_validates_arguments(self):
        step = lambda: None
        with pytest.raises(ValueError, match="repeats"):
            time_passes(step, repeats=0)
        with pytest.raises(ValueError, match="passes"):
            time_passes(step, passes=0)
        with pytest.raises(ValueError, match="reduce"):
            time_passes(step, reduce="mean")

    def test_timed_context_manager(self):
        with timed() as timer:
            sum(range(100))
        assert timer.seconds >= 0.0
