"""Tests for the random CNF generators (tests.corpus.generators)."""

import hashlib

import numpy as np
import pytest

from repro.cnf import write_dimacs
from tests.corpus.generators import planted_ksat, planted_solution, random_horn, random_ksat


class TestRandomKSat:
    def test_shape(self):
        formula = random_ksat(20, 50, k=3, seed=0)
        assert formula.num_variables == 20
        assert formula.num_clauses == 50
        assert all(len(clause) <= 3 for clause in formula)

    def test_determinism(self):
        a = random_ksat(10, 20, seed=5)
        b = random_ksat(10, 20, seed=5)
        assert list(a) == list(b)

    def test_distinct_variables_per_clause(self):
        formula = random_ksat(10, 40, k=3, seed=1)
        for clause in formula:
            assert len({abs(literal) for literal in clause}) == len(clause)

    def test_k_larger_than_variables_rejected(self):
        with pytest.raises(ValueError):
            random_ksat(2, 5, k=3)


class TestPlantedKSat:
    def test_planted_solution_satisfies(self):
        formula = planted_ksat(25, 100, seed=3)
        witness = planted_solution(formula)
        assert witness is not None
        assert formula.evaluate_batch(witness[None, :])[0]

    def test_planted_comment_present(self):
        formula = planted_ksat(10, 20, seed=0)
        assert any(comment.startswith("planted") for comment in formula.comments)

    def test_no_planted_comment_returns_none(self):
        formula = random_ksat(10, 20, seed=0)
        assert planted_solution(formula) is None

    def test_determinism(self):
        a = planted_ksat(12, 30, seed=9)
        b = planted_ksat(12, 30, seed=9)
        assert list(a) == list(b)
        assert np.array_equal(planted_solution(a), planted_solution(b))


class TestRandomHorn:
    def test_horn_property(self):
        formula = random_horn(15, 60, seed=2)
        for clause in formula:
            positives = [literal for literal in clause if literal > 0]
            assert len(positives) <= 1

    def test_clause_count(self):
        assert random_horn(10, 25, seed=1).num_clauses == 25


@pytest.mark.parametrize(
    "make, digest",
    [
        (
            lambda: random_ksat(20, 60, 3, seed=1),
            "b8ecb2ae468fb4184d0d12315b5a868ce4893f96932427f66e97100b34a098db",
        ),
        (
            lambda: planted_ksat(30, 90, 4, seed=2),
            "e17e730c91a9fd7da305ef5babc67797033fff47544c5110eb883d3ccb457c8f",
        ),
        (
            lambda: random_horn(25, 50, seed=3),
            "bb7e6b5924870c64ada8facf89683bcbd6aeb6f28406be2beb3c8c2e9168ad56",
        ),
    ],
    ids=["random_ksat", "planted_ksat", "random_horn"],
)
def test_seeded_output_is_pinned(make, digest):
    # A seed names one formula for good: the tests that draw their inputs
    # from these generators rely on the same clauses (and planted witness)
    # on every run and every host.
    text = write_dimacs(make())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
