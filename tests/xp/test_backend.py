"""Learning is float32 with no dtype switch; the RNG stream, caches and the
boolean entry points around it.

The retired ``array_backend`` policy (``SamplerConfig(array_backend=...)``,
``REPRO_ARRAY_BACKEND``, ``--array-backend``) selected the float dtype of
the learning arrays.  Learning now always runs in ``float32``: the field is
a ``TypeError``, the variable is not read, and the engine casts its float
input.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.engine.executor import float_array, forward
from repro.utils.rng import new_rng
from tests.oracles.cnf import evaluate_batch_reference

#: The retired dtype switch; set in a test, it must change nothing.
RETIRED_ENV_VAR = "REPRO_ARRAY_BACKEND"


@pytest.fixture(autouse=True)
def _no_env_default(monkeypatch):
    """Every test starts without the retired variable, whatever the shell sets."""
    monkeypatch.delenv(RETIRED_ENV_VAR, raising=False)


def _learning_dtypes(monkeypatch, formula, config) -> set:
    """The dtypes every GD iteration of one sampling run saw."""
    from repro.engine import train

    seen = set()
    original = train.sigmoid_embedding

    def spy(soft_inputs):
        seen.add(soft_inputs.dtype)
        return original(soft_inputs)

    with monkeypatch.context() as patch:
        patch.setattr(train, "sigmoid_embedding", spy)
        GradientSATSampler(formula, config=config).sample(num_solutions=5)
    return seen


class TestRegistry:
    """No spec vocabulary is left: every spec is a removed keyword."""

    @pytest.mark.parametrize(
        "spec", ["", "nope", "numpy:float16", "numpy:", "torch", "cupy:float32"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(TypeError, match="array_backend"):
            SamplerConfig(array_backend=spec)


class TestActiveBackend:
    def test_default_is_numpy(self, fig1_formula, monkeypatch):
        # NumPy float32 is the only policy, so it is the default; the
        # retired variable, set to the old float64 spec, changes nothing.
        config = SamplerConfig(batch_size=16, seed=0, max_rounds=1)
        assert _learning_dtypes(monkeypatch, fig1_formula, config) == {np.dtype(np.float32)}
        monkeypatch.setenv(RETIRED_ENV_VAR, "numpy:float64")
        assert _learning_dtypes(monkeypatch, fig1_formula, config) == {np.dtype(np.float32)}


class TestSelectionPrecedence:
    def test_config_validates_spec_eagerly(self):
        # No layer selects a dtype: the config refuses the field at
        # construction, and a copy cannot add it later.
        with pytest.raises(TypeError, match="array_backend"):
            SamplerConfig(array_backend="not-a-backend")
        with pytest.raises(TypeError, match="array_backend"):
            SamplerConfig().with_(array_backend="numpy:float32")


class TestHostBoundary:
    """float32 arrays pass through the float paths as-is; anything else is cast."""

    def test_to_numpy_passes_ndarray_through(self):
        array = np.ones(4, dtype=np.float32)
        assert float_array(array) is array
        wide = np.linspace(-1.0, 1.0, 5)
        np.testing.assert_array_equal(float_array(wide), wide.astype(np.float32))
        assert float_array(wide).dtype == np.float32

    def test_to_numpy_coerces_sequences(self):
        for data in ([1, 2, 3], np.array([1, 2, 3]), np.array([True, False, True])):
            array = float_array(data)
            assert array.dtype == np.float32
            np.testing.assert_array_equal(array, np.asarray(data, dtype=np.float32))

    def test_numpy_backend_boundary_is_identity(self):
        from repro.engine.compiler import compile_circuit
        from tests.engine.conftest import random_circuit

        circuit = random_circuit(np.random.default_rng(5), num_inputs=4, num_gates=10)
        program = compile_circuit(circuit, list(circuit.outputs))
        bits = np.random.default_rng(6).random((3, program.input_width)) < 0.5
        outputs, _ = forward(program, bits)
        assert outputs.dtype == np.float32
        np.testing.assert_array_equal(outputs, forward(program, bits.astype(np.float32))[0])


class TestBackendRNG:
    """One seeded NumPy generator feeds every draw."""

    def test_matches_numpy_generator_stream(self, fig1_formula):
        ours = new_rng(123)
        theirs = np.random.default_rng(123)
        np.testing.assert_array_equal(
            ours.normal(0.0, 1.0, size=(3, 2)), theirs.normal(0.0, 1.0, size=(3, 2))
        )
        np.testing.assert_array_equal(ours.random(size=(2, 5)), theirs.random(size=(2, 5)))
        sampler = GradientSATSampler(fig1_formula, config=SamplerConfig(seed=4))
        draw = sampler._draw_initial_soft_inputs(6)
        expected = np.random.default_rng(4).normal(
            0.0, 1.0, size=(6, sampler.transform.round_plan.learn.input_width)
        )
        # Drawn in float64 (the stream of the float64 reference); the GD
        # loop casts it.
        assert draw.dtype == np.float64
        np.testing.assert_array_equal(draw, expected)

    def test_reseeding_reproduces_the_stream(self, fig1_formula):
        config = SamplerConfig(seed=7)
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
    """Boolean evaluation entry points return host boolean arrays."""

    @pytest.fixture(autouse=True)
    def _retired_variable_set(self, monkeypatch):
        monkeypatch.setenv(RETIRED_ENV_VAR, "numpy:float32")

    def test_host_inputs_get_host_results_under_any_active_backend(self):
        from repro.cnf.formula import CNF

        formula = CNF([[1, -2], [2]], num_variables=2)
        matrix = np.array([[True, True], [False, False]])
        result = formula.evaluate_batch(matrix)
        assert type(result) is np.ndarray and result.dtype == np.bool_
        np.testing.assert_array_equal(result, [True, False])

    def test_direct_plan_calls_follow_input_residency(self):
        # The sampler calls the plan directly with host matrices and gets
        # host results back.
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
        # Samplers keep no process-wide learning state: two seeds sampled
        # concurrently each match a solo run.
        import threading

        def run(seed):
            config = SamplerConfig(batch_size=32, seed=seed, max_rounds=2)
            return GradientSATSampler(fig1_formula, config=config).sample(num_solutions=20)

        results = {}
        threads = [
            threading.Thread(target=lambda seed=seed: results.__setitem__(seed, run(seed)))
            for seed in (4, 5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for seed, result in results.items():
            matrix = result.solution_matrix()
            assert fig1_formula.evaluate_batch(matrix).all(), seed
            np.testing.assert_array_equal(matrix, run(seed).solution_matrix())


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
