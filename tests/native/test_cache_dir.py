"""The C tier's library cache directory must be private before it is used.

Loading a shared library runs its code.  A cache directory another user can
write to (or swap for a symlink) would let them plant a library every repro
process loads, so such a directory makes the tier unavailable with a reason
that names the permission problem — the planted file is never loaded.
"""

from __future__ import annotations

import hashlib
import os
import stat

import pytest

from repro import native
from repro.native import cext

pytestmark = pytest.mark.skipif(
    cext._find_compiler() is None,
    reason="no C compiler: the tier never builds or loads a library here",
)


@pytest.fixture
def fresh_tier(monkeypatch):
    """Forget the loaded library and the probe, so the next probe starts over."""
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_load_error", None)
    monkeypatch.setattr(native, "_PROBE", None)
    monkeypatch.delenv(native.NATIVE_ENV_VAR, raising=False)


def _library_name() -> str:
    digest = hashlib.sha256(cext.C_SOURCE.encode()).hexdigest()[:16]
    return f"repronative_{digest}.so"


def _probe_reason(monkeypatch, cache_dir) -> str:
    monkeypatch.setenv(cext.CACHE_DIR_ENV_VAR, str(cache_dir))
    kernels, reason = native._probe()
    assert kernels is None
    assert native.active_tier() is None
    return reason


def test_world_writable_directory_with_a_planted_library_is_refused(
    tmp_path, monkeypatch, fresh_tier
):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    planted = shared / _library_name()
    planted.write_bytes(b"\x7fELF planted by another user")
    reason = _probe_reason(monkeypatch, shared)
    assert "unsafe cache directory" in reason
    assert "mode 0o777: group or other users may write to it" in reason
    # The permission check fired, not a failed dlopen of the planted file.
    assert "ELF" not in reason and "OSError" not in reason
    assert planted.read_bytes() == b"\x7fELF planted by another user"


def test_symlinked_directory_is_refused(tmp_path, monkeypatch, fresh_tier):
    real = tmp_path / "real"
    real.mkdir(mode=0o700)
    (real / _library_name()).write_bytes(b"\x7fELF planted behind a link")
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    reason = _probe_reason(monkeypatch, link)
    assert "unsafe cache directory" in reason
    assert "is not a real directory" in reason
    assert "ELF" not in reason and "OSError" not in reason


@pytest.mark.skipif(os.getuid() != 0, reason="changing a directory's owner needs root")
def test_directory_owned_by_another_user_is_refused(tmp_path, monkeypatch, fresh_tier):
    foreign = tmp_path / "foreign"
    foreign.mkdir(mode=0o755)
    os.chown(foreign, 65534, 65534)
    reason = _probe_reason(monkeypatch, foreign)
    assert "is owned by uid 65534" in reason


def test_new_directory_is_created_private_and_used(tmp_path, monkeypatch, fresh_tier):
    cache_dir = tmp_path / "fresh" / "native"
    monkeypatch.setenv(cext.CACHE_DIR_ENV_VAR, str(cache_dir))
    assert native.active_tier() == "cext"
    assert stat.S_IMODE(os.lstat(cache_dir).st_mode) == 0o700
    assert (cache_dir / _library_name()).exists()
