"""Tests for job specs, config round-trips and manifest parsing."""

import json

import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.core.config import SamplerConfig
from repro.gpu.device import Device, DeviceKind
from repro.serve.jobs import (
    ManifestError,
    SamplingJob,
    config_from_dict,
    config_to_dict,
    load_manifest,
    load_source,
    normalize_source,
    parse_manifest,
)
from tests.conftest import FIG1_DIMACS


class TestSources:
    def test_cnf_round_trips_through_dimacs(self, tiny_sat_formula):
        spec = normalize_source(tiny_sat_formula)
        assert "dimacs" in spec
        assert load_source(spec) == tiny_sat_formula

    def test_path_and_text_are_distinguished(self, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text(FIG1_DIMACS)
        assert normalize_source(str(path)) == {"path": str(path)}
        assert "dimacs" in normalize_source(FIG1_DIMACS)
        assert load_source({"path": str(path)}) == parse_dimacs(FIG1_DIMACS)

    def test_instance_source(self):
        formula = load_source({"instance": "or-50-10-7-UC-10"})
        assert formula.num_variables > 0

    def test_bad_spec_rejected(self):
        with pytest.raises(ManifestError):
            normalize_source({"path": "a", "instance": "b"})
        with pytest.raises(ManifestError):
            load_source({"nonsense": "x"})


class TestConfigRoundTrip:
    def test_round_trip_preserves_everything(self):
        config = SamplerConfig(
            batch_size=128,
            iterations=7,
            learning_rate=2.5,
            optimizer="adam",
            init_scale=0.5,
            seed=42,
            max_rounds=9,
            stall_rounds=2,
            timeout_seconds=3.5,
            device=Device(DeviceKind.CPU, chunk_size=4),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_device_as_string(self):
        config = config_from_dict({"device": "cpu"})
        assert config.device.kind == DeviceKind.CPU

    def test_unknown_field_rejected(self):
        with pytest.raises(ManifestError):
            config_from_dict({"learning_rte": 1.0})
        with pytest.raises(ManifestError):
            config_from_dict({"device": {"kindd": "cpu"}})
        with pytest.raises(ManifestError, match="unknown device fields"):
            config_from_dict({"device": {"kind": "cpu", "array_backend": "numpy"}})

    @pytest.mark.parametrize("value", ["engine", "interpreter"])
    def test_removed_backend_key_rejected(self, value):
        # The evaluation-backend switch is gone (the engine is the only
        # path); a manifest still carrying it fails naming the key.
        with pytest.raises(ManifestError, match="unknown config field 'backend'"):
            config_from_dict({"backend": value})
        with pytest.raises(ManifestError, match="job #0.*'backend'"):
            parse_manifest(json.dumps([{"instance": "x", "config": {"backend": value}}]))


    @pytest.mark.parametrize("value", ["auto", "native", "python", "off"])
    def test_removed_kernel_key_rejected(self, value):
        # The kernel-mode switch is gone (the platform picks the engine
        # tier); a manifest still carrying it fails naming the key.
        with pytest.raises(ManifestError, match="unknown config field 'kernel'"):
            config_from_dict({"kernel": value})
        with pytest.raises(ManifestError, match="job #0.*'kernel'"):
            parse_manifest(json.dumps([{"instance": "x", "config": {"kernel": value}}]))


class TestManifests:
    def test_json_array(self, tmp_path):
        manifest = [
            {"dimacs": FIG1_DIMACS, "num_solutions": 5},
            {"instance": "or-50-10-7-UC-10", "id": "named",
             "config": {"batch_size": 32, "seed": 3}, "portfolio": 2},
        ]
        jobs = parse_manifest(json.dumps(manifest))
        assert len(jobs) == 2
        assert jobs[0].job_id is None  # the service assigns a unique id
        assert jobs[0].num_solutions == 5
        assert jobs[1].job_id == "named"
        assert jobs[1].config.batch_size == 32
        assert len(jobs[1].portfolio) == 2

    def test_jobs_object(self):
        text = json.dumps({"jobs": [{"instance": "or-50-10-7-UC-10"}]})
        assert len(parse_manifest(text)) == 1

    def test_jsonl(self):
        lines = "\n".join(
            json.dumps({"instance": "or-50-10-7-UC-10", "num_solutions": n})
            for n in (1, 2, 3)
        )
        jobs = parse_manifest(lines)
        assert [job.num_solutions for job in jobs] == [1, 2, 3]

    def test_single_object_is_one_job(self):
        jobs = parse_manifest(json.dumps({"instance": "or-50-10-7-UC-10"}))
        assert len(jobs) == 1

    def test_load_manifest_file(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(json.dumps({"dimacs": FIG1_DIMACS}) + "\n")
        assert len(load_manifest(path)) == 1

    def test_errors_are_precise(self):
        with pytest.raises(ManifestError, match="empty"):
            parse_manifest("")
        with pytest.raises(ManifestError, match="exactly one of"):
            parse_manifest(json.dumps([{"num_solutions": 3}]))
        with pytest.raises(ManifestError, match="unknown keys"):
            parse_manifest(json.dumps([{"instance": "x", "portfolioo": 2}]))
        with pytest.raises(ManifestError, match="jobs"):
            parse_manifest(json.dumps({"work": []}))
        with pytest.raises(ManifestError, match="invalid JSON line"):
            parse_manifest("not json at all")
        with pytest.raises(ManifestError, match="num_solutions"):
            parse_manifest(json.dumps([{"instance": "x", "num_solutions": 0}]))
        for config in (
            {"kernel": "numba"},
            {"kernel": "cext"},
            {"array_backend": "torch"},
            {"array_backend": "cupy"},
        ):
            with pytest.raises(ManifestError, match="job #1"):
                parse_manifest(
                    json.dumps(
                        [{"instance": "x"}, {"instance": "x", "config": config}]
                    )
                )

    def test_portfolio_validation(self):
        with pytest.raises(ManifestError, match="portfolio size"):
            SamplingJob.build({"dimacs": FIG1_DIMACS}, portfolio=0)
        with pytest.raises(ManifestError, match="unknown config fields"):
            SamplingJob.build({"dimacs": FIG1_DIMACS}, portfolio=[{"sed": 1}])
