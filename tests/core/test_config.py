"""Tests for the sampler configuration (repro.core.config)."""

import pytest

from repro.core.config import SamplerConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = SamplerConfig.paper_defaults()
        assert config.learning_rate == 10.0
        assert config.iterations == 5

    def test_default_device_is_vectorised(self):
        # chunk_size 0 is one launch over the whole batch.
        assert SamplerConfig().chunk_size == 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"iterations": 0},
            {"learning_rate": 0.0},
            {"max_rounds": 0},
            {"init_scale": 0.0},
            {"chunk_size": -1},
            {"timeout_seconds": 0.0},
            {"stall_rounds": 0},
            {"learning_rate": -10.0},
            {"timeout_seconds": -1.0},
            {"init_scale": -1.0},
            {"stall_rounds": -2},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)

    @pytest.mark.parametrize("value", [None, "auto", "native", "python", "off"])
    def test_removed_kernel_field_rejected(self, value):
        # The platform picks the engine tier; no config field selects it.
        with pytest.raises(TypeError, match="kernel"):
            SamplerConfig(kernel=value)

    @pytest.mark.parametrize("value", [None, "cpu", "gpu-sim"])
    def test_removed_device_field_rejected(self, value):
        # Chunking is the chunk_size field; there is no device object.
        with pytest.raises(TypeError, match="device"):
            SamplerConfig(device=value)

    @pytest.mark.parametrize("value", [None, "numpy", "numpy:float32", "numpy:float64"])
    def test_removed_array_backend_field_rejected(self, value):
        # Learning always runs in float32; no config field picks a dtype.
        with pytest.raises(TypeError, match="array_backend"):
            SamplerConfig(array_backend=value)

    @pytest.mark.parametrize("value", ["sgd", "adam", "bogus"])
    def test_removed_optimizer_field_rejected(self, value):
        # Learning is plain gradient descent (Eq. 10); no field picks another.
        with pytest.raises(TypeError, match="optimizer"):
            SamplerConfig(optimizer=value)

    @pytest.mark.parametrize("key", ["telemetry", "store_dir"])
    @pytest.mark.parametrize("value", [None, "off", "/tmp/x"])
    def test_removed_deployment_field_rejected(self, key, value):
        # Tracing and the artifact store belong to the entry point
        # (sample_cnf, SamplingService, the CLI), not to the config.
        with pytest.raises(TypeError, match=key):
            SamplerConfig(**{key: value})

    def test_negative_chunk_size_names_the_field(self):
        with pytest.raises(ValueError, match="chunk_size"):
            SamplerConfig(chunk_size=-1)

    def test_none_timeout_allowed(self):
        assert SamplerConfig(timeout_seconds=None).timeout_seconds is None

    def test_none_stall_rounds_allowed(self):
        assert SamplerConfig(stall_rounds=None).stall_rounds is None


class TestWith:
    def test_with_overrides_field(self):
        config = SamplerConfig()
        updated = config.with_(batch_size=16)
        assert updated.batch_size == 16
        assert config.batch_size != 16 or config.batch_size == 2048

    def test_with_validates(self):
        with pytest.raises(ValueError):
            SamplerConfig().with_(learning_rate=-1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            SamplerConfig().batch_size = 1
