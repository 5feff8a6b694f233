"""FaultPlan parsing, activation semantics, and the production hook sites."""

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpecError, InjectedFault


class TestSpecParsing:
    def test_sites_and_options(self):
        plan = FaultPlan.from_spec(
            "seed=7;kill:at=3,incarnation=0;corrupt:every=2;delay:prob=0.5,seconds=0.2"
        )
        assert plan.seed == 7
        assert [rule.site for rule in plan.rules] == ["kill", "corrupt", "delay"]
        assert plan.rules[0].at == 3 and plan.rules[0].incarnation == 0
        assert plan.rules[1].every == 2
        assert plan.rules[2].prob == 0.5 and plan.rules[2].seconds == 0.2

    def test_empty_spec_has_no_rules(self):
        assert FaultPlan.from_spec("").rules == ()
        assert FaultPlan.from_spec(" ; ; ").rules == ()

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:at=1",          # unknown site
            "kill:at=0",             # at must be >= 1
            "kill:prob=1.5",         # prob out of range
            "kill:wat=3",            # unknown option
            "kill:at",               # not key=value
            "kill:at=x",             # not an int
            "seed=x",                # bad seed segment
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(spec)


class TestActivation:
    def test_at_fires_exactly_once(self):
        plan = FaultPlan.from_spec("kill:at=3")
        hits = [plan.fire("kill") is not None for _ in range(6)]
        assert hits == [False, False, True, False, False, False]
        assert plan.activations() == {"kill": 1}

    def test_every_fires_periodically(self):
        plan = FaultPlan.from_spec("corrupt:every=2")
        hits = [plan.fire("corrupt") is not None for _ in range(6)]
        assert hits == [False, True, False, True, False, True]

    def test_times_caps_activations(self):
        plan = FaultPlan.from_spec("delay:every=1,times=2")
        hits = [plan.fire("delay") is not None for _ in range(5)]
        assert hits == [True, True, False, False, False]

    def test_prob_is_seed_deterministic(self):
        def draw():
            plan = FaultPlan.from_spec("seed=11;kill:prob=0.5")
            plan.set_identity(worker=1, incarnation=0)
            return [plan.fire("kill") is not None for _ in range(32)]

        first = draw()
        assert first == draw()
        assert any(first) and not all(first)

    def test_identity_filters(self):
        plan = FaultPlan.from_spec("kill:at=1,worker=1,incarnation=0")
        # wrong worker
        assert plan.fire("kill", worker=0, incarnation=0) is None
        # respawned incarnation no longer matches
        assert plan.fire("kill", worker=1, incarnation=1) is None
        # the original worker 1 does (identity-filtered events count per rule,
        # and this is its first eligible one)
        assert plan.fire("kill", worker=1, incarnation=0) is not None

    def test_phase_defaults_to_task(self):
        plan = FaultPlan.from_spec("kill:at=1,phase=round")
        assert plan.fire("kill") is None  # phase "task" by default
        assert plan.fire("kill", phase="round") is not None

    def test_unmatched_site_is_quiet(self):
        plan = FaultPlan.from_spec("kill:at=1")
        assert plan.fire("build") is None


class TestModuleState:
    def test_install_and_clear(self):
        assert faults.install_plan("kill:at=1") is not None
        assert faults.fire("kill") is not None
        faults.install_plan(None)
        assert faults.active_plan() is None
        assert faults.fire("kill") is None

    def test_env_var_resolved_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "delay:every=1,seconds=0")
        faults.clear()
        rule = faults.fire("delay")
        assert rule is not None and rule.seconds == 0

    def test_corrupt_file_flips_one_byte(self, tmp_path):
        target = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 8
        target.write_bytes(payload)
        plan = FaultPlan.from_spec("seed=5;corrupt:every=1")
        assert plan.corrupt_file(target)
        mutated = target.read_bytes()
        assert len(mutated) == len(payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, mutated)) if a != b]
        assert len(diffs) == 1
        # the flip lands in the payload half, past any header region
        assert diffs[0] >= len(payload) // 2


class TestProductionSites:
    def test_build_site_raises_injected_fault(self):
        from repro.cnf.dimacs import parse_dimacs
        from repro.serve.cache import build_artifact
        from tests.conftest import FIG1_DIMACS

        faults.install_plan("build:at=1")
        with pytest.raises(InjectedFault):
            build_artifact(parse_dimacs(FIG1_DIMACS))
        # the rule fired once; the rebuild succeeds
        artifact = build_artifact(parse_dimacs(FIG1_DIMACS))
        assert artifact.formula.num_variables > 0

    def test_store_corruption_is_quarantined_as_miss(self, tmp_path):
        from repro.store import ArtifactStore
        from repro.store.format import FlatPayload

        store = ArtifactStore(tmp_path / "store")
        faults.install_plan("seed=3;corrupt:at=1")
        assert store.put("plan", "a" * 16, FlatPayload(fields={}, arrays={"x": np.arange(64)}))
        # checksum verification catches the injected flip: miss + quarantine
        assert store.get("plan", "a" * 16) is None
        counters = store.counters()
        assert counters["corrupt"] == 1 and counters["misses"] == 1

    def test_lease_counters_registered(self, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        counters = store.counters()
        assert "lease_broken" in counters
        assert "lease_wait_timeouts" in counters
