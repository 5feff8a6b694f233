"""Unit tests for the float dtype policy: spec vocabulary, selection, RNG, caches.

An ``array_backend`` spec (``numpy``, ``numpy:float64`` or ``numpy:float32``)
selects nothing but the float dtype of the samplers' learning arrays; every
hot path calls NumPy directly and follows the dtype of its input arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import (
    ARRAY_BACKEND_DTYPES,
    ARRAY_BACKEND_ENV_VAR,
    SamplerConfig,
    array_dtype,
)
from repro.core.sampler import GradientSATSampler
from repro.engine.executor import float_array, forward
from repro.utils.rng import new_rng
from tests.oracles.cnf import evaluate_batch_reference


@pytest.fixture(autouse=True)
def _no_env_default(monkeypatch):
    """Every test starts from the built-in default, whatever the shell sets."""
    monkeypatch.delenv(ARRAY_BACKEND_ENV_VAR, raising=False)


class TestRegistry:
    def test_numpy_is_default_and_memoised(self):
        assert array_dtype("numpy") == np.float64
        assert array_dtype(None) is array_dtype("numpy")

    def test_spec_selects_float_dtype(self):
        assert array_dtype("numpy:float32") == np.float32
        assert array_dtype("numpy:float64") == np.float64
        assert array_dtype("numpy:float32") != array_dtype("numpy")

    def test_parse_spec(self):
        # The whole vocabulary: one runtime, two float policies.
        assert set(ARRAY_BACKEND_DTYPES) == {"numpy", "numpy:float64", "numpy:float32"}

    @pytest.mark.parametrize(
        "spec", ["", "nope", "numpy:float16", "numpy:", "torch", "cupy:float32"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            array_dtype(spec)
        with pytest.raises(ValueError):
            SamplerConfig(array_backend=spec)


class TestActiveBackend:
    """The process default: ``REPRO_ARRAY_BACKEND``, else ``numpy``."""

    def test_default_is_numpy(self):
        assert array_dtype() == np.float64
        assert SamplerConfig().float_dtype() == np.float64

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, "numpy:float32")
        assert array_dtype() == np.float32

    def test_set_active_backend_overrides_env(self, monkeypatch):
        # An explicit spec always beats the environment default.
        monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, "numpy:float32")
        assert array_dtype("numpy") == np.float64

    def test_bad_env_spec_rejected(self, monkeypatch):
        monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            SamplerConfig().float_dtype()


class TestSelectionPrecedence:
    """The documented resolution order: environment < config < CLI."""

    def test_env_is_weakest(self, monkeypatch):
        monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, "numpy:float32")
        assert SamplerConfig().float_dtype() == np.float32

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, "numpy")
        config = SamplerConfig(array_backend="numpy:float32")
        assert config.float_dtype() == np.float32

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
    """Float arrays pass through the hot paths as-is; anything else becomes float64."""

    def test_to_numpy_passes_ndarray_through(self):
        for dtype in (np.float64, np.float32):
            array = np.ones(4, dtype=dtype)
            assert float_array(array) is array

    def test_to_numpy_coerces_sequences(self):
        for data in ([1, 2, 3], np.array([1, 2, 3]), np.array([True, False, True])):
            array = float_array(data)
            assert array.dtype == np.float64
            np.testing.assert_array_equal(array, np.asarray(data, dtype=np.float64))

    def test_numpy_backend_boundary_is_identity(self):
        from repro.engine.compiler import compile_circuit
        from tests.engine.conftest import random_circuit

        circuit = random_circuit(np.random.default_rng(5), num_inputs=4, num_gates=10)
        program = compile_circuit(circuit, list(circuit.outputs))
        bits = np.random.default_rng(6).random((3, program.input_width)) < 0.5
        outputs, _ = forward(program, bits)
        assert outputs.dtype == np.float64
        np.testing.assert_array_equal(outputs, forward(program, bits.astype(np.float64))[0])


class TestBackendRNG:
    """One seeded NumPy generator feeds every draw under every dtype."""

    def test_matches_numpy_generator_stream(self, fig1_formula):
        ours = new_rng(123)
        theirs = np.random.default_rng(123)
        np.testing.assert_array_equal(
            ours.normal(0.0, 1.0, size=(3, 2)), theirs.normal(0.0, 1.0, size=(3, 2))
        )
        np.testing.assert_array_equal(ours.random(size=(2, 5)), theirs.random(size=(2, 5)))
        for spec in ("numpy", "numpy:float32"):
            config = SamplerConfig(seed=4, array_backend=spec)
            sampler = GradientSATSampler(fig1_formula, config=config)
            draw = sampler._draw_initial_soft_inputs(6)
            expected = np.random.default_rng(4).normal(
                0.0, 1.0, size=(6, sampler.model.num_inputs)
            )
            assert draw.dtype == array_dtype(spec)
            np.testing.assert_array_equal(draw, expected.astype(array_dtype(spec)))

    def test_reseeding_reproduces_the_stream(self, fig1_formula):
        config = SamplerConfig(seed=7, array_backend="numpy:float32")
        sampler = GradientSATSampler(fig1_formula, config=config)
        first = sampler._draw_initial_soft_inputs(4)
        sampler.reset_rng()
        np.testing.assert_array_equal(first, sampler._draw_initial_soft_inputs(4))

    def test_stream_is_shared_across_draw_kinds(self):
        # normal() then random() must consume one underlying stream, like the
        # seed code's single np.random.Generator did.
        ours = new_rng(9)
        theirs = np.random.default_rng(9)
        ours.normal(size=3)
        theirs.normal(size=3)
        np.testing.assert_array_equal(ours.random(size=4), theirs.random(size=4))


class TestHostInputResidency:
    """Boolean evaluation entry points ignore the float dtype policy."""

    @pytest.fixture(autouse=True)
    def _float32_default(self, monkeypatch):
        monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, "numpy:float32")

    def test_host_inputs_get_host_results_under_any_active_backend(self):
        from repro.cnf.formula import CNF

        formula = CNF([[1, -2], [2]], num_variables=2)
        matrix = np.array([[True, True], [False, False]])
        result = formula.evaluate_batch(matrix)
        assert type(result) is np.ndarray and result.dtype == np.bool_
        np.testing.assert_array_equal(result, [True, False])

    def test_direct_plan_calls_follow_input_residency(self):
        # The sampler calls the plan directly with host matrices; the dtype
        # policy must not change what it gets back.
        from repro.cnf.formula import CNF

        formula = CNF([[1, -2], [2], [-1, 2]], num_variables=2)
        plan = formula.evaluation_plan()
        matrix = np.array([[True, True], [False, False], [False, True]])
        result = plan.evaluate(matrix)
        assert type(result) is np.ndarray
        np.testing.assert_array_equal(result, evaluate_batch_reference(formula, matrix))

    def test_simulate_follows_input_residency(self):
        from repro.circuit.gates import GateType
        from repro.circuit.netlist import Circuit
        from repro.circuit.simulate import simulate

        circuit = Circuit("res")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.AND, ["a", "b"])
        circuit.set_output("y")
        values = simulate(circuit, [[True, True], [True, False]])
        assert type(values["y"]) is np.ndarray
        np.testing.assert_array_equal(values["y"], [True, False])

    def test_backend_for_rule(self, fig1_formula):
        from repro.core.transform import transform_cnf

        transform = transform_cnf(fig1_formula)
        inputs = np.random.default_rng(0).random((5, len(transform.primary_inputs))) < 0.5
        full = transform.complete_assignments(inputs.tolist())
        assert type(full) is np.ndarray and full.dtype == np.bool_
        np.testing.assert_array_equal(full, transform.complete_assignments(inputs))


class TestThreadLocality:
    def test_concurrent_samplers_with_different_backends(self, fig1_formula):
        import threading

        def run(spec):
            config = SamplerConfig(batch_size=32, seed=4, max_rounds=2, array_backend=spec)
            return GradientSATSampler(fig1_formula, config=config).sample(num_solutions=20)

        results = {}
        threads = [
            threading.Thread(target=lambda spec=spec: results.__setitem__(spec, run(spec)))
            for spec in ("numpy", "numpy:float32")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Both ran to completion, with no cross-talk: each matches a solo
        # run of the same spec.
        for spec, result in results.items():
            matrix = result.solution_matrix()
            assert fig1_formula.evaluate_batch(matrix).all(), spec
            np.testing.assert_array_equal(matrix, run(spec).solution_matrix())


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
        repro.clear_caches()
        assert formula._plan is None
        assert not transform.circuit.engine_cache()

    def test_cleared_artifacts_are_rebuilt_on_demand(self):
        from repro.cnf.formula import CNF

        formula = CNF([[1], [1, -2]], num_variables=2)
        before = formula.evaluation_plan()
        repro.clear_caches()
        after = formula.evaluation_plan()
        assert after is not before
        matrix = np.array([[True, False], [False, True]])
        np.testing.assert_array_equal(after.evaluate(matrix), before.evaluate(matrix))
