"""The engine's one tier: the C kernels, which no caller picks."""

from __future__ import annotations

import pytest

from repro import native


class TestModeResolution:
    def test_no_caller_picks_the_tier(self):
        with pytest.raises(TypeError, match="takes no kernel mode"):
            native.kernels_for("native")
        with pytest.raises(TypeError):
            native.active_tier("python")
        for name in ("use_kernel", "set_default_mode", "default_mode", "resolve_mode", "MODES"):
            assert not hasattr(native, name)


class TestAvailableTiers:
    def test_kernels_report_their_tier(self, tier, kernels):
        assert kernels.tier == "cext"
        assert native.active_tier() == "cext"

    def test_auto_selects_an_available_tier(self, tier):
        # No argument, variable or setting is consulted: the tier is the C tier.
        assert native.active_tier() == tier

    def test_compile_seconds_is_monotone_and_finite(self, kernels):
        first = native.compile_seconds()
        assert first >= 0.0
        assert native.compile_seconds() >= first
