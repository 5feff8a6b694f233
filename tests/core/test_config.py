"""Tests for the sampler configuration (repro.core.config)."""

import pytest

from repro.core.config import SamplerConfig
from repro.gpu.device import DeviceKind


class TestDefaults:
    def test_paper_defaults(self):
        config = SamplerConfig.paper_defaults()
        assert config.learning_rate == 10.0
        assert config.iterations == 5
        assert config.optimizer == "sgd"

    def test_default_device_is_vectorised(self):
        assert SamplerConfig().device.kind == DeviceKind.GPU_SIM


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"iterations": 0},
            {"learning_rate": 0.0},
            {"max_rounds": 0},
            {"init_scale": 0.0},
            {"optimizer": "rmsprop"},
            {"timeout_seconds": 0.0},
            {"stall_rounds": 0},
            {"array_backend": "numpy:float16"},
            {"timeout_seconds": -1.0},
            {"array_backend": "torch"},
            {"array_backend": "cupy"},
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
