"""Unit tests for the array-backend layer: registry, selection, RNG, caches."""

from __future__ import annotations

import numpy as np
import pytest

import repro.xp as xp
from repro.core.config import SamplerConfig


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """Every test leaves the process in the env-driven default state."""
    yield
    xp.set_active_backend(None)


class TestRegistry:
    def test_numpy_is_default_and_memoised(self):
        backend = xp.get_backend("numpy")
        assert backend.name == "numpy"
        assert backend is xp.get_backend("numpy")
        assert backend.float_dtype == np.float64

    def test_spec_selects_float_dtype(self):
        assert xp.get_backend("numpy:float32").float_dtype == np.float32
        assert xp.get_backend("numpy:float64").float_dtype == np.float64
        assert xp.get_backend("numpy:float32") is not xp.get_backend("numpy")

    def test_parse_spec(self):
        assert xp.parse_spec("numpy") == ("numpy", None)
        assert xp.parse_spec("numpy:float32") == ("numpy", "float32")

    @pytest.mark.parametrize(
        "spec", ["", "nope", "numpy:float16", "numpy:", "torch", "cupy:float32"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            xp.get_backend(spec)

    def test_cache_key_distinguishes_dtype_policy(self):
        assert (
            xp.get_backend("numpy").cache_key
            != xp.get_backend("numpy:float32").cache_key
        )


class TestActiveBackend:
    def test_default_is_numpy(self):
        assert xp.active_backend() is xp.get_backend("numpy")

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(xp.BACKEND_ENV_VAR, "numpy:float32")
        assert xp.active_backend().float_dtype == np.float32

    def test_set_active_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(xp.BACKEND_ENV_VAR, "numpy:float32")
        xp.set_active_backend("numpy")
        assert xp.active_backend().float_dtype == np.float64

    def test_use_backend_restores_previous(self):
        before = xp.active_backend()
        with xp.use_backend("numpy:float32") as backend:
            assert xp.active_backend() is backend
            assert backend.float_dtype == np.float32
        assert xp.active_backend() is before

    def test_use_backend_restores_on_error(self):
        before = xp.active_backend()
        with pytest.raises(RuntimeError):
            with xp.use_backend("numpy:float32"):
                raise RuntimeError("boom")
        assert xp.active_backend() is before


class TestSelectionPrecedence:
    """The documented resolution order: environment < config < CLI."""

    def test_env_is_weakest(self, monkeypatch):
        monkeypatch.setenv(xp.BACKEND_ENV_VAR, "numpy:float32")
        assert SamplerConfig().resolve_array_backend().float_dtype == np.float32

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(xp.BACKEND_ENV_VAR, "numpy")
        config = SamplerConfig(array_backend="numpy:float32")
        assert config.resolve_array_backend().float_dtype == np.float32

    def test_cli_writes_the_config_field(self, tmp_path):
        # The CLI flag lands in SamplerConfig.array_backend, so "CLI wins"
        # reduces to the config taking precedence (previous test).
        from repro.cli import _build_parser

        arguments = _build_parser().parse_args(
            ["sample", "x.cnf", "--array-backend", "numpy:float32"]
        )
        assert arguments.array_backend == "numpy:float32"

    def test_config_validates_spec_eagerly(self):
        with pytest.raises(ValueError):
            SamplerConfig(array_backend="not-a-backend")


class TestHostBoundary:
    def test_to_numpy_passes_ndarray_through(self):
        array = np.arange(4)
        assert xp.to_numpy(array) is array

    def test_to_numpy_coerces_sequences(self):
        assert np.array_equal(xp.to_numpy([1, 2, 3]), np.array([1, 2, 3]))

    def test_numpy_backend_boundary_is_identity(self):
        backend = xp.get_backend("numpy")
        array = np.ones(3)
        assert backend.asnumpy(array) is array
        assert backend.from_numpy(array) is array


class TestBackendRNG:
    def test_matches_numpy_generator_stream(self):
        ours = xp.get_backend("numpy").rng(123)
        theirs = np.random.default_rng(123)
        np.testing.assert_array_equal(
            ours.normal(0.0, 1.0, size=(3, 2)), theirs.normal(0.0, 1.0, size=(3, 2))
        )
        np.testing.assert_array_equal(
            ours.random(size=(2, 5)), theirs.random(size=(2, 5))
        )

    def test_reseeding_reproduces_the_stream(self):
        backend = xp.get_backend("numpy")
        first = backend.rng(7).normal(size=(4, 4))
        second = backend.rng(7).normal(size=(4, 4))
        np.testing.assert_array_equal(first, second)

    def test_stream_is_shared_across_draw_kinds(self):
        # normal() then random() must consume one underlying stream, like the
        # seed code's single np.random.Generator did.
        ours = xp.get_backend("numpy").rng(9)
        theirs = np.random.default_rng(9)
        ours.normal(size=3)
        theirs.normal(size=3)
        np.testing.assert_array_equal(ours.random(size=4), theirs.random(size=4))


class TestGenericFallbacks:
    """The base-class implementations optional backends inherit."""

    def test_generic_add_reduceat_matches_numpy(self):
        backend = xp.NumpyBackend()
        data = np.random.default_rng(0).random((11, 3))
        offsets = np.array([0, 2, 3, 7])
        expected = np.add.reduceat(data, offsets, axis=0)
        actual = xp.ArrayBackend.add_reduceat(backend, data, offsets, axis=0)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    def test_generic_add_reduceat_nonzero_first_offset(self):
        backend = xp.NumpyBackend()
        data = np.random.default_rng(3).random((10, 2))
        offsets = np.array([2, 5, 9])  # rows 0-1 belong to no segment
        expected = np.add.reduceat(data, offsets, axis=0)
        actual = xp.ArrayBackend.add_reduceat(backend, data, offsets, axis=0)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    def test_generic_add_reduceat_empty_segment_quirk(self):
        # np.add.reduceat yields a[offsets[i]] for an empty segment; the
        # generic fallback must reproduce that quirk.
        backend = xp.NumpyBackend()
        data = np.arange(12.0).reshape(6, 2)
        offsets = np.array([0, 3, 3, 5])
        expected = np.add.reduceat(data, offsets, axis=0)
        actual = xp.ArrayBackend.add_reduceat(backend, data, offsets, axis=0)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    def test_generic_add_reduceat_preserves_integer_dtype(self):
        backend = xp.NumpyBackend()
        data = np.arange(12, dtype=np.int64).reshape(6, 2)
        offsets = np.array([0, 2, 5])
        actual = xp.ArrayBackend.add_reduceat(backend, data, offsets, axis=0)
        assert actual.dtype == np.int64
        np.testing.assert_array_equal(actual, np.add.reduceat(data, offsets, axis=0))

    def test_generic_bit_ops_match_numpy(self):
        backend = xp.NumpyBackend()
        words = np.random.default_rng(1).integers(0, 256, size=(9, 4)).astype(np.uint8)
        offsets = np.array([0, 3, 4])
        np.testing.assert_array_equal(
            xp.ArrayBackend.bitwise_or_reduceat(backend, words, offsets, axis=0),
            np.bitwise_or.reduceat(words, offsets, axis=0),
        )
        np.testing.assert_array_equal(
            xp.ArrayBackend.bitwise_and_reduce(backend, words, axis=0),
            np.bitwise_and.reduce(words, axis=0),
        )
        bits = np.random.default_rng(2).random((5, 17)) < 0.5
        np.testing.assert_array_equal(
            xp.ArrayBackend.packbits(backend, bits, axis=1), np.packbits(bits, axis=1)
        )


class TestHostInputResidency:
    """Caller arrays evaluate on the NumPy reference, not the active policy."""

    def test_host_inputs_get_host_results_under_any_active_backend(self):
        from repro.cnf.formula import CNF

        formula = CNF([[1, -2], [2]], num_variables=2)
        matrix = np.array([[True, True], [False, False]])

        with xp.use_backend("numpy:float32"):
            result = formula.evaluate_batch(matrix)
            counts = formula.unsatisfied_clause_counts(matrix)
        # Host callers (metrics, baselines) must keep receiving NumPy results
        # whatever backend is the process default.
        assert type(result) is np.ndarray
        assert type(counts) is np.ndarray
        np.testing.assert_array_equal(result, [True, False])

    def test_direct_plan_calls_follow_input_residency(self):
        # WalkSAT and the metrics call the plan methods directly with host
        # matrices and no explicit backend; the process default must not
        # change what they get back.
        from repro.cnf.formula import CNF

        formula = CNF([[1, -2], [2], [-1, 2]], num_variables=2)
        plan = formula.evaluation_plan()
        matrix = np.array([[True, True], [False, False], [False, True]])
        with xp.use_backend("numpy:float32"):
            satisfaction = plan.clause_satisfaction(matrix)
            counts = plan.unsatisfied_counts(matrix)
            result = plan.evaluate(matrix)
        assert type(satisfaction) is np.ndarray
        assert type(counts) is np.ndarray
        assert type(result) is np.ndarray
        np.testing.assert_array_equal(
            result, formula.evaluate_batch(matrix, backend="reference")
        )


    def test_simulate_follows_input_residency(self):
        from repro.circuit.gates import GateType
        from repro.circuit.netlist import Circuit
        from repro.circuit.simulate import simulate

        circuit = Circuit("res")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.AND, ["a", "b"])
        circuit.set_output("y")
        matrix = np.array([[True, True], [True, False]])
        with xp.use_backend("numpy:float32"):
            values = simulate(circuit, matrix)
        assert type(values["y"]) is np.ndarray
        np.testing.assert_array_equal(values["y"], [True, False])

    def test_backend_for_rule(self):
        reference = xp.get_backend("numpy")
        with xp.use_backend("numpy:float32"):
            assert xp.backend_for(np.ones(3)) is reference
            assert xp.backend_for([1, 2]) is reference
        assert xp.backend_for(np.ones(3)) is reference


class TestThreadLocality:
    def test_use_backend_is_per_thread(self):
        import threading

        seen = {}

        def worker():
            seen["worker"] = xp.active_backend().float_dtype

        with xp.use_backend("numpy:float32"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert xp.active_backend().float_dtype == np.float32
        # The override never leaked into the other thread.
        assert seen["worker"] == np.float64

    def test_concurrent_samplers_with_different_backends(self, fig1_formula):
        import threading

        from repro.core.config import SamplerConfig
        from repro.core.sampler import GradientSATSampler

        results = {}

        def run(spec):
            config = SamplerConfig(
                batch_size=32, seed=4, max_rounds=2, array_backend=spec
            )
            sampler = GradientSATSampler(fig1_formula, config=config)
            results[spec] = sampler.sample(num_solutions=20)

        threads = [
            threading.Thread(target=run, args=(spec,))
            for spec in ("numpy", "numpy:float32")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Both ran to completion with valid solutions and no cross-talk.
        for spec, result in results.items():
            matrix = result.solution_matrix()
            assert fig1_formula.evaluate_batch(matrix).all(), spec


class TestClearCaches:
    def test_drops_cnf_plans_and_engine_programs(self):
        from repro.cnf.formula import CNF
        from repro.core.transform import transform_cnf

        formula = CNF([[1, 2], [-1, 3], [2, -3]], num_variables=3)
        formula.evaluation_plan()
        transform = transform_cnf(formula)
        from repro.engine.compiler import compiled_program_for

        nets = transform.constraint_nets() or [transform.circuit.outputs[0]]
        compiled_program_for(transform.circuit, nets)
        assert formula._plan is not None
        assert transform.circuit.engine_cache()
        xp.clear_caches()
        assert formula._plan is None
        assert not transform.circuit.engine_cache()

    def test_cleared_artifacts_are_rebuilt_on_demand(self):
        from repro.cnf.formula import CNF

        formula = CNF([[1], [1, -2]], num_variables=2)
        before = formula.evaluation_plan()
        xp.clear_caches()
        after = formula.evaluation_plan()
        assert after is not before
        matrix = np.array([[True, False], [False, True]])
        np.testing.assert_array_equal(after.evaluate(matrix), before.evaluate(matrix))
