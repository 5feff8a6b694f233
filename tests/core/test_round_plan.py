"""The compiled sampling round against the per-column oracle.

A round routes the learned constrained bits, the unconstrained and free
draws and the simulated defined variables through the transform's round
plan into variable-major rows.  These tests pin it, bit for bit, to the
original batch-major assembly kept in :mod:`tests.oracles.completion`
(per-column scatter, name-dict ``simulate``, clause-loop CNF reference):
every registry instance, the default, weighted and projected tasks, the
round loop, the learning curve and store-loaded artifacts.  Half the runs
also learn the reference round on the ``float64`` interpreter oracle, so
they pin the ``float32`` engine's rows to the ``float64`` reference.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.extraction import VAR_PREFIX
from repro.core.sampler import GradientSATSampler
from repro.core.task import DEFAULT_TASK, SamplingTask
from repro.core.transform import transform_cnf
from repro.engine.compiler import compiled_program_for
from repro.instances.registry import list_instances
from repro.serve.cache import build_artifact
from repro.store.artifacts import load_sampling_artifact, persist_artifact
from repro.store.store import ArtifactStore
from tests.conftest import registry_instance
from tests.oracles.completion import complete_reference, use_reference_assembly
from tests.oracles.interpreter import use_interpreter

TASKS = ("default", "weighted", "projected")
#: The reference round's learning dtype, labelled with the retired
#: array-backend spec that used to select it: ``"numpy"`` learns on the
#: ``float64`` interpreter oracle, ``"numpy:float32"`` on the engine itself.
DTYPES = ("numpy", "numpy:float32")

_instance = registry_instance


def _variable(name: str) -> int:
    return int(name[len(VAR_PREFIX):])


def _task(kind: str, transform) -> SamplingTask:
    """A task of ``kind`` that touches every variable group of ``transform``."""
    if kind == "default":
        return DEFAULT_TASK
    if kind == "projected":
        return SamplingTask.build(project=range(1, transform.num_variables // 2 + 2))
    plan = transform.round_plan
    weights = {}
    for names, probability in (
        (plan.constrained_inputs, 0.8),
        (plan.unconstrained_inputs, 0.3),
        (transform.free_variables, 0.9),
    ):
        if names:
            weights[_variable(names[0])] = probability
    return SamplingTask.build(weights=weights)


def _config(**overrides) -> SamplerConfig:
    options = dict(batch_size=20, iterations=2, seed=11, max_rounds=2)
    options.update(overrides)
    return SamplerConfig(**options)


def _use_reference(patch, dtype: str) -> None:
    """The oracle assembly, plus the float64 oracle learner for ``"numpy"``."""
    use_reference_assembly(patch)
    if dtype == "numpy":
        use_interpreter(patch, np.float64)


def assert_rounds_match_oracle(formula, transform, config, task, monkeypatch, dtype):
    """Two rounds and a whole run: compiled round == the ``dtype`` reference."""
    compiled = GradientSATSampler(formula, transform, config, task)
    reference = GradientSATSampler(formula, transform, config, task)
    for _ in range(2):
        rows, mask, _, _ = compiled._run_round(config.batch_size)
        with monkeypatch.context() as patch:
            _use_reference(patch, dtype)
            expected_rows, expected_mask, _, _ = reference._run_round(config.batch_size)
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(mask, expected_mask)

    result = GradientSATSampler(formula, transform, config, task).sample(30)
    with monkeypatch.context() as patch:
        _use_reference(patch, dtype)
        expected = GradientSATSampler(formula, transform, config, task).sample(30)
    np.testing.assert_array_equal(result.solution_matrix(), expected.solution_matrix())
    assert result.num_valid == expected.num_valid


@pytest.mark.parametrize("index, name", list(enumerate(list_instances())))
def test_registry_round_matches_oracle(index, name, monkeypatch):
    """Every instance; the six task/dtype combinations rotate over them."""
    formula, transform = _instance(name)
    kind = TASKS[index % len(TASKS)]
    dtype = DTYPES[(index // len(TASKS)) % len(DTYPES)]
    assert_rounds_match_oracle(
        formula, transform, _config(), _task(kind, transform), monkeypatch, dtype
    )


COMBINATIONS = list(itertools.product(TASKS, DTYPES))


@pytest.mark.parametrize(
    "kind, dtype", COMBINATIONS, ids=[f"{kind}-{dtype}" for kind, dtype in COMBINATIONS]
)
@pytest.mark.parametrize("name", ["s15850a_3_2", "Prod-32"])
def test_table2_instances_every_task_and_dtype(name, kind, dtype, monkeypatch):
    formula, transform = _instance(name)
    assert_rounds_match_oracle(
        formula, transform, _config(), _task(kind, transform), monkeypatch, dtype
    )


def test_maps_are_intp_even_when_empty():
    # Prod-32 has no free variables: an empty map must still index as a no-op.
    _, transform = _instance("Prod-32")
    plan = transform.round_plan
    assert not transform.free_variables
    for rows in (
        plan.input_rows,
        plan.constrained_rows,
        plan.unconstrained_rows,
        plan.free_rows,
        plan.defined_rows,
    ):
        assert rows.dtype == np.intp
    assert plan.free_rows.shape == (0,)
    assert len(plan.defined_rows) == len(plan.defined_nets) == len(transform.definitions)


def test_round_plan_is_the_shared_skeleton():
    formula, transform = _instance("s9234a_3_2")
    first = GradientSATSampler(formula, transform, _config())
    second = GradientSATSampler(formula, transform, _config(seed=12))
    assert first._plan is second._plan is transform.round_plan
    assert first.transform is second.transform is transform
    assert transform.round_plan.learn is compiled_program_for(
        transform.circuit, transform.constraint_nets(), transform.constrained_inputs()
    )
    assert transform.round_plan.learn.input_width == len(transform.constrained_inputs())
    split = transform.constrained_inputs() + transform.unconstrained_inputs()
    assert sorted(split) == sorted(transform.primary_inputs)


def test_complete_assignments_matches_oracle_on_every_group():
    _, transform = _instance("s15850a_3_2")
    rng = np.random.default_rng(3)
    inputs = rng.random((37, len(transform.primary_inputs))) < 0.5
    free = rng.random((37, len(transform.free_variables))) < 0.5
    np.testing.assert_array_equal(
        transform.complete_assignments(inputs, free),
        complete_reference(transform, inputs, free),
    )
    np.testing.assert_array_equal(
        transform.complete_assignments(inputs), complete_reference(transform, inputs)
    )


def test_free_values_shape_is_checked():
    # A (batch, 1) array used to broadcast silently over all 22 free columns.
    _, transform = _instance("s15850a_3_2")
    assert len(transform.free_variables) == 22
    inputs = np.zeros((8, len(transform.primary_inputs)), dtype=bool)
    for bad in (np.ones((8, 1), dtype=bool), np.ones((7, 22), dtype=bool)):
        with pytest.raises(ValueError, match=r"\(batch, len\(free_variables\)\) = \(8, 22\)"):
            transform.complete_assignments(inputs, bad)
    with pytest.raises(IndexError):
        complete_reference(transform, inputs, np.ones((8, 1), dtype=bool))


@pytest.mark.parametrize("dtype", DTYPES)
def test_unconstrained_instance_and_learning_curve(dtype, monkeypatch):
    # x2 = x1 is a pure definition: no constraints, so no model to learn.
    formula = CNF([[2, -1], [-2, 1]], num_variables=4, name="buf-free")
    transform = transform_cnf(formula)
    assert transform.round_plan.learn is None
    config = _config(batch_size=8)
    assert_rounds_match_oracle(formula, transform, config, DEFAULT_TASK, monkeypatch, dtype)
    for source in (formula, _instance("s9234a_3_2")[0]):
        transform = transform_cnf(source)
        curve = GradientSATSampler(source, transform, config).learning_curve(3)
        with monkeypatch.context() as patch:
            _use_reference(patch, dtype)
            expected = GradientSATSampler(source, transform, config).learning_curve(3)
        assert curve == expected


def test_store_loaded_artifact_samples_identical_rows(tmp_path):
    formula, _ = _instance("s9234a_3_2")
    built = build_artifact(formula)
    store = ArtifactStore(tmp_path / "store")
    assert persist_artifact(store, built)
    loaded = load_sampling_artifact(store, built.signature)
    assert loaded is not None and loaded.source == "store"
    assert "round_plan" not in loaded.transform.__dict__  # rebuilt, not unpickled
    config = _config(max_rounds=3)
    rows = [
        GradientSATSampler(artifact.formula, artifact.transform, config)
        .sample(40)
        .solution_matrix()
        for artifact in (built, loaded)
    ]
    assert rows[0].shape[0] > 0
    np.testing.assert_array_equal(rows[0], rows[1])


def test_warm_sampler_skips_transitive_fanin(monkeypatch):
    formula, transform = _instance("s13207a_3_2")
    GradientSATSampler(formula, transform, _config()).sample(10)
    calls = []
    original = Circuit.transitive_fanin

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "transitive_fanin", counted)
    GradientSATSampler(formula, transform, _config(seed=12)).sample(10)
    assert calls == []


def _assert_same_arrays(left, right, names):
    for name in names:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("name", list_instances())
def test_round_entry_round_trips_every_registry_instance(name):
    # The pickle-free store entry accepts every real round and gives it back
    # field for field: row maps, both programs and the CNF plan.
    from repro.store import KIND_ROUND
    from repro.store.format import encode_entry, verify_entry
    from repro.store.schema import decode_round, encode_round

    formula, transform = _instance(name)
    plan, cnf_plan = transform.round_plan, formula.evaluation_plan()
    blob = encode_entry(KIND_ROUND, "sig", encode_round(plan, cnf_plan))
    loaded, loaded_cnf = decode_round(verify_entry(bytearray(blob), kind=KIND_ROUND))
    assert loaded.num_variables == plan.num_variables
    for names in ("constrained_inputs", "unconstrained_inputs", "defined_nets"):
        assert getattr(loaded, names) == getattr(plan, names)
    _assert_same_arrays(
        loaded,
        plan,
        ("input_rows", "constrained_rows", "unconstrained_rows", "free_rows", "defined_rows"),
    )
    for role in ("learn", "fill"):
        program, original = getattr(loaded, role), getattr(plan, role)
        assert (program is None) == (original is None)
        if program is None:
            continue
        assert program.describe() == original.describe()
        for field in ("source_name", "cone_inputs", "output_nets", "input_width"):
            assert getattr(program, field) == getattr(original, field)
        assert (program.const0_slot, program.const1_slot) == (
            original.const0_slot,
            original.const1_slot,
        )
        _assert_same_arrays(
            program,
            original,
            ("input_columns", "opcodes", "a_slots", "b_slots", "output_slots"),
        )
    assert (loaded_cnf.num_clauses, loaded_cnf.num_empty, loaded_cnf.width_groups) == (
        cnf_plan.num_clauses,
        cnf_plan.num_empty,
        cnf_plan.width_groups,
    )
    _assert_same_arrays(
        loaded_cnf, cnf_plan, ("literal_columns", "literal_negated", "reduce_offsets")
    )
