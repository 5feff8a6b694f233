"""SamplingTask / ClauseDelta semantics: validation, identity, application.

The task layer is pure bookkeeping — no sampling here.  These tests pin the
contracts every other layer builds on: normalization and rejection rules,
the canonical/serialised forms used by signatures and serve coalescing, and
the CNF-level delta application (the edited formula's plan checked
field-for-field against a cold ``compile_evaluation_plan``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cnf import CNF, ClauseDelta, compile_evaluation_plan
from repro.cnf.formula import csr_rows
from repro.core.task import DEFAULT_TASK, SamplingTask
from repro.serve.jobs import SamplingJob, normalize_source
from repro.serve.journal import job_fingerprint


def apply_to_rows(delta: ClauseDelta, rows):
    """``delta.apply`` on the arrays of ``CNF(rows)``, as ``(rows, change position)``."""
    formula = CNF(rows)
    literals, offsets, change_position = delta.apply(formula.literals, formula.offsets)
    return csr_rows(literals, offsets), change_position


def small_formula() -> CNF:
    return CNF([[1, 2], [-1, 3], [2, -3], [-2, -3, 1]], num_variables=4, name="small")


# -- SamplingTask ------------------------------------------------------------------------

class TestSamplingTask:
    def test_default_task_is_identity(self):
        task = SamplingTask()
        assert task.is_default
        assert task.kind() == "default"
        formula = small_formula()
        assert task.apply_to(formula) is formula
        assert task.projection_columns(4) == ()
        assert task.weight_map() == {}

    def test_projection_normalized_sorted_deduplicated(self):
        task = SamplingTask(project=(3, 1, 3, 2))
        assert task.project == (1, 2, 3)
        assert task.projection_columns(4) == (0, 1, 2)
        assert task.kind() == "projected"

    def test_projection_rejects_nonpositive_and_out_of_range(self):
        with pytest.raises(ValueError):
            SamplingTask(project=(0,))
        with pytest.raises(ValueError):
            SamplingTask(project=(5,)).projection_columns(4)

    def test_weights_validated(self):
        task = SamplingTask(weights=((2, 0.25), (1, 0.75)))
        assert task.weights == ((1, 0.75), (2, 0.25))
        assert task.kind() == "weighted"
        logits = task.weight_logits()
        assert logits[1] == pytest.approx(math.log(3.0))
        for bad in ({1: 0.0}, {1: 1.0}, {0: 0.5}, {1: -0.2}):
            with pytest.raises(ValueError):
                SamplingTask.build(weights=bad)
        with pytest.raises(ValueError):
            SamplingTask(weights=((1, 0.2), (1, 0.8)))  # conflicting
        with pytest.raises(ValueError):
            SamplingTask(weights=((9, 0.5),)).weight_map(4)

    def test_kind_composes(self):
        task = SamplingTask.build(project=[1], weights={2: 0.9}, assume=[3])
        assert task.kind() == "projected+weighted+incremental"
        assert task.is_projected and task.is_weighted and task.is_incremental

    def test_canonical_and_dict_round_trip(self):
        task = SamplingTask.build(
            project=[2, 1], weights={3: 0.75}, add=[[1, -2]], assume=[4]
        )
        rebuilt = SamplingTask.from_dict(task.to_dict())
        assert rebuilt == task
        assert rebuilt.canonical() == task.canonical()
        assert SamplingTask.from_dict(None) == DEFAULT_TASK
        with pytest.raises(ValueError):
            SamplingTask.from_dict({"projection": [1]})

    def test_tasks_are_hashable(self):
        a = SamplingTask.build(project=[1, 2])
        b = SamplingTask.build(project=[2, 1])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, DEFAULT_TASK}) == 2


# -- ClauseDelta -------------------------------------------------------------------------

class TestClauseDelta:
    def test_empty_and_append_only(self):
        assert ClauseDelta().is_empty
        assert not ClauseDelta(add=((1, 2),)).is_empty
        assert ClauseDelta(add=((1, 2),), assume=(3,)).appended_clauses() == ((1, 2), (3,))
        assert ClauseDelta(retract=((1, 2),)).appended_clauses() == ()

    def test_assume_rejects_zero(self):
        with pytest.raises(ValueError):
            ClauseDelta(assume=(0,))

    def test_apply_appends_and_retracts(self):
        delta = ClauseDelta(add=((1, 3),), retract=((-1, 3),), assume=(2,))
        mutated, change_position = apply_to_rows(delta, [[1, 2], [-1, 3], [2, -3]])
        assert mutated == [(1, 2), (2, -3), (1, 3), (2,)]
        assert change_position == 1  # first mutated index: the retraction

    def test_apply_pure_append_change_position_is_length(self):
        delta = ClauseDelta(assume=(4,))
        mutated, change_position = apply_to_rows(delta, [[1, 2], [-1, 3]])
        assert change_position == 2
        assert mutated[-1] == (4,)

    def test_retract_missing_clause_raises(self):
        with pytest.raises(ValueError, match="cannot retract"):
            apply_to_rows(ClauseDelta(retract=((9, 8),)), [[1, 2]])

    def test_retract_matches_one_occurrence_per_entry(self):
        mutated, _ = apply_to_rows(ClauseDelta(retract=((1, 2),)), [[1, 2], [1, 2], [3]])
        assert mutated == [(1, 2), (3,)]

    def test_dict_round_trip(self):
        delta = ClauseDelta(add=((1, -2), (3,)), retract=((1, 2),), assume=(-4,))
        assert ClauseDelta.from_dict(delta.to_dict()) == delta
        with pytest.raises(ValueError):
            ClauseDelta.from_dict({"append": [[1]]})


# -- CNF.with_delta ------------------------------------------------------------------------

class TestFormulaDelta:
    def test_with_delta_empty_returns_self(self):
        formula = small_formula()
        assert formula.with_delta(ClauseDelta()) is formula
        assert formula.with_delta(None) is formula

    def test_with_delta_builds_mutated_formula(self):
        formula = small_formula()
        delta = ClauseDelta(add=((1, 4),), assume=(2,))
        mutated = formula.with_delta(delta)
        assert mutated is not formula
        assert mutated.num_clauses == formula.num_clauses + 2
        assert formula.num_clauses == 4  # original untouched

    def test_retract_clause(self):
        formula = small_formula()
        retracted = formula.with_delta(ClauseDelta(retract=([3, -1],)))
        assert (-1, 3) not in retracted.clauses
        assert retracted.clauses == formula.clauses[:1] + formula.clauses[2:]
        assert formula.num_clauses == 4  # original untouched
        with pytest.raises(ValueError, match="cannot retract"):
            formula.with_delta(ClauseDelta(retract=([9, 8],)))

    def test_append_only_delta_compiles_a_fresh_plan(self):
        formula = small_formula()
        plan = formula.evaluation_plan()  # compile before the delta
        delta = ClauseDelta(add=((4, -1), (1, 2, 3, -4)), assume=(2,))
        mutated = formula.with_delta(delta)
        fresh = mutated.evaluation_plan()
        assert fresh is not plan
        cold = compile_evaluation_plan(mutated)
        assert fresh.num_clauses == cold.num_clauses
        assert fresh.num_variables == cold.num_variables
        assert fresh.num_empty == cold.num_empty
        assert fresh.width_groups == cold.width_groups
        np.testing.assert_array_equal(fresh.literal_columns, cold.literal_columns)
        np.testing.assert_array_equal(fresh.literal_negated, cold.literal_negated)
        np.testing.assert_array_equal(fresh.reduce_offsets, cold.reduce_offsets)
        matrix = np.random.default_rng(0).random((64, mutated.num_variables)) < 0.5
        np.testing.assert_array_equal(fresh.evaluate(matrix), cold.evaluate(matrix))
        assert plan.num_clauses == 4  # parent plan untouched

    def test_retracting_delta_does_not_carry_stale_plan(self):
        formula = small_formula()
        formula.evaluation_plan()
        mutated = formula.with_delta(ClauseDelta(retract=((1, 2),)))
        plan = mutated.evaluation_plan()
        cold = compile_evaluation_plan(mutated)
        np.testing.assert_array_equal(plan.literal_columns, cold.literal_columns)
        assert plan.num_clauses == formula.num_clauses - 1

    def test_batch_evaluation_matches_after_delta(self):
        formula = small_formula()
        formula.evaluation_plan()
        mutated = formula.with_delta(ClauseDelta(add=((4, 1),), assume=(-2,)))
        rng = np.random.default_rng(0)
        batch = rng.random((64, mutated.num_variables)) < 0.5
        slow = np.array([
            all(c.evaluate_bool_row(row) if hasattr(c, "evaluate_bool_row")
                else any(row[abs(l) - 1] == (l > 0) for l in c)
                for c in mutated.clauses)
            for row in batch
        ])
        np.testing.assert_array_equal(mutated.evaluate_batch(batch), slow)


# -- task identity in job fingerprints --------------------------------------------------

def _fingerprint(task: SamplingTask) -> str:
    """The journal fingerprint of a job sampling ``small_formula`` under ``task``."""
    return job_fingerprint(SamplingJob(source=normalize_source(small_formula()), task=task))


class TestTaskSignature:
    def test_non_default_aspects_change_the_signature(self):
        signatures = {
            _fingerprint(SamplingTask()),
            _fingerprint(SamplingTask.build(project=[1])),
            _fingerprint(SamplingTask.build(project=[2])),
            _fingerprint(SamplingTask.build(weights={1: 0.9})),
            _fingerprint(SamplingTask.build(assume=[1])),
        }
        assert len(signatures) == 5  # all distinct

    def test_signature_is_stable_across_equal_tasks(self):
        a = SamplingTask.build(project=[2, 1], weights={3: 0.75})
        b = SamplingTask.build(project=[1, 2], weights=[(3, 0.75)])
        assert _fingerprint(a) == _fingerprint(b)
