"""Deadline handling in the engine's training loop (repro.engine.train).

Regression tests for the timeout-overshoot fix: the GD loop must observe an
absolute deadline between chunks and between iterations instead of running a
whole round to completion, and must report the truncation to the caller.
The ``chunk_size`` span edge cases of ``learn_batch`` are pinned here too.
"""

import numpy as np
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.core.config import SamplerConfig
from repro.engine.compiler import compile_circuit
from repro.engine.train import learn_batch, learn_chunk


@pytest.fixture
def program():
    """A tiny compiled program: f = (a & b) | c."""
    builder = CircuitBuilder("deadline")
    a = builder.input("a")
    b = builder.input("b")
    c = builder.input("c")
    builder.output(builder.or_(builder.and_(a, b), c, name="f"))
    return compile_circuit(builder.circuit, ["f"])


@pytest.fixture
def fake_clock(monkeypatch):
    """Deterministic perf_counter: every call advances the clock by 0.01s."""
    import repro.engine.train as train_module

    state = {"now": 0.0}

    def fake_perf_counter():
        state["now"] += 0.01
        return state["now"]

    monkeypatch.setattr(train_module.time, "perf_counter", fake_perf_counter)
    return state


def _draw(chunk):
    return np.random.default_rng(0).normal(0.0, 1.0, size=(chunk, 3))


class TestLearnChunkDeadline:
    def test_no_deadline_runs_all_iterations(self, program):
        config = SamplerConfig(batch_size=4, iterations=7)
        hard, losses, timed_out = learn_chunk(program, _draw(4), config)
        assert not timed_out
        assert len(losses) == 7
        assert hard.shape == (4, 3)

    def test_expired_deadline_cuts_iterations(self, program, fake_clock):
        config = SamplerConfig(batch_size=4, iterations=1000)
        hard, losses, timed_out = learn_chunk(
            program, _draw(4), config, deadline=0.25
        )
        assert timed_out
        assert 0 < len(losses) < 1000
        assert hard.shape == (4, 3)  # partially-trained bits are still returned

    def test_already_expired_deadline_trains_nothing(self, program, fake_clock):
        config = SamplerConfig(batch_size=4, iterations=10)
        hard, losses, timed_out = learn_chunk(
            program, _draw(4), config, deadline=0.0
        )
        assert timed_out
        assert losses == []
        assert hard.shape == (4, 3)


class TestLearnBatchDeadline:
    def test_truncates_to_completed_chunks(self, program, fake_clock):
        # Per-sample chunking: each chunk consumes several clock ticks, so
        # a mid-batch deadline leaves later samples untrained.
        config = SamplerConfig(batch_size=8, iterations=3, chunk_size=1)
        hard, losses, timed_out = learn_batch(
            program, 8, config, _draw, deadline=0.15
        )
        assert timed_out
        assert 0 < hard.shape[0] < 8
        assert hard.shape[1] == 3

    def test_full_batch_without_deadline(self, program):
        config = SamplerConfig(batch_size=8, iterations=3)
        hard, losses, timed_out = learn_batch(program, 8, config, _draw)
        assert not timed_out
        assert hard.shape == (8, 3)
        assert len(losses) == 3


class TestLearnBatchSpans:
    """``learn_batch`` splits the batch into ``config.chunk_size`` spans."""

    @staticmethod
    def _spans(program, batch, chunk_size):
        sizes = []

        def draw(chunk):
            sizes.append(chunk)
            return _draw(chunk)

        config = SamplerConfig(iterations=2, chunk_size=chunk_size)
        hard, _, halted = learn_batch(program, batch, config, draw)
        assert not halted
        assert hard.shape == (batch, 3)
        return sizes

    @pytest.mark.parametrize(
        "batch, chunk_size, sizes",
        [
            (100, 0, [100]),
            (100, 4096, [100]),
            (10, 64, [10]),
            (8, 8, [8]),
            (100, 40, [40, 40, 20]),
            (5, 1, [1, 1, 1, 1, 1]),
            (0, 0, []),
            (0, 7, []),
        ],
        ids=[
            "whole-batch",
            "chunk-larger-than-batch",
            "small-batch-large-chunk",
            "chunk-equal-to-batch",
            "last-span-short",
            "per-sample",
            "empty-batch",
            "empty-batch-chunked",
        ],
    )
    def test_span_sizes(self, program, batch, chunk_size, sizes):
        assert self._spans(program, batch, chunk_size) == sizes
