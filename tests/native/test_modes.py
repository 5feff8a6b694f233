"""How the platform picks the engine tier, and the ``REPRO_NATIVE`` switch."""

from __future__ import annotations

import pytest

from repro import native
from repro.native import cext
from tests.conftest import force_numpy_tier


@pytest.fixture
def unprobed(monkeypatch):
    """Forget the memoised probe so the next call reads ``REPRO_NATIVE`` again."""
    monkeypatch.setattr(native, "_PROBE", None)


class TestModeResolution:
    def test_python_mode_disables_kernels(self, monkeypatch):
        # The test suite's NumPy-tier switch really takes the C tier away.
        force_numpy_tier(monkeypatch)
        assert native.kernels_for(None) is None
        assert native.active_tier() is None
        assert not native.native_available()

    def test_off_is_an_alias_of_python(self, monkeypatch, unprobed):
        monkeypatch.setenv(native.NATIVE_ENV_VAR, "off")
        assert native.kernels_for(None) is None
        assert native.active_tier() is None
        assert "REPRO_NATIVE=off" in native._probe()[1]

    def test_unknown_mode_rejected(self, monkeypatch, unprobed):
        for value in ("vulkan", "cext", "numba", "python", "native", "OFF", " auto"):
            monkeypatch.setenv(native.NATIVE_ENV_VAR, value)
            with pytest.raises(ValueError, match=r"\$REPRO_NATIVE must be unset, 'auto' or 'off'"):
                native.kernels_for(None)
            assert native._PROBE is None  # a bad value is never memoised

    def test_env_var_sets_the_default(self, monkeypatch):
        # Unset, empty and "auto" all mean: the C tier if it builds.
        expected = "cext" if cext.available() else None
        for value in (None, "", "auto"):
            monkeypatch.setattr(native, "_PROBE", None)
            if value is None:
                monkeypatch.delenv(native.NATIVE_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(native.NATIVE_ENV_VAR, value)
            assert native.active_tier() == expected

    def test_env_var_is_read_once_at_probe_time(self, monkeypatch, unprobed):
        monkeypatch.setenv(native.NATIVE_ENV_VAR, "off")
        assert native.active_tier() is None
        monkeypatch.setenv(native.NATIVE_ENV_VAR, "auto")
        assert native.active_tier() is None  # the probe is process-wide

    def test_no_caller_picks_the_tier(self):
        with pytest.raises(TypeError, match="REPRO_NATIVE=off"):
            native.kernels_for("native")
        with pytest.raises(TypeError):
            native.active_tier("python")
        for name in ("use_kernel", "set_default_mode", "default_mode", "resolve_mode", "MODES"):
            assert not hasattr(native, name)


class TestUnavailableTiers:
    @pytest.fixture
    def no_tiers(self, monkeypatch):
        """Force the C-tier probe to report unavailable."""
        monkeypatch.setattr(native, "_PROBE", (None, "cext forced off"))

    def test_auto_degrades_silently(self, no_tiers):
        assert native.kernels_for(None) is None
        assert native.active_tier() is None
        assert not native.native_available()

    def test_native_mode_raises_loudly(self, monkeypatch, unprobed):
        # The loud "native" mode is gone; asking for it through the one
        # switch fails, naming the variable, instead of degrading.
        monkeypatch.setenv(native.NATIVE_ENV_VAR, "native")
        with pytest.raises(ValueError, match=r"\$REPRO_NATIVE .* got 'native'"):
            native.active_tier()


class TestAvailableTiers:
    def test_kernels_report_their_tier(self, tier, kernels):
        assert kernels.tier == "cext"
        assert native.active_tier() == "cext"

    def test_auto_selects_an_available_tier(self, tier):
        assert native.active_tier() == tier
        assert native.native_available()

    def test_compile_seconds_is_monotone_and_finite(self, kernels):
        first = native.compile_seconds()
        assert first >= 0.0
        assert native.compile_seconds() >= first
