"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import derive_seed, new_rng


class TestNewRng:
    def test_integer_seed_is_deterministic(self):
        a = new_rng(7).integers(0, 1000, size=5)
        b = new_rng(7).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = new_rng(1).integers(0, 10**9)
        b = new_rng(2).integers(0, 10**9)
        assert a != b

    def test_passing_generator_returns_it(self):
        generator = np.random.default_rng(0)
        assert new_rng(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(5)
        generator = new_rng(sequence)
        assert isinstance(generator, np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "inst") == derive_seed(1, "inst")

    def test_token_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_result_in_range(self):
        value = derive_seed(123, "some-instance-name")
        assert 0 <= value < 2**63 - 1

    def test_none_seed_allowed(self):
        assert isinstance(derive_seed(None, "x"), int)
