"""When the C tier cannot be brought up, every entry point says why, loudly.

The engine has no other tier, so a host where the kernels do not build gets
one :class:`~repro.native.BackendUnavailableError` naming the failure — from
:func:`repro.native.kernels_for`, from building a sampler, and as a one-line
``repro-sat`` error with exit code 2.

Loading a shared library runs its code.  A cache directory another user can
write to (or swap for a symlink) would let them plant a library every repro
process loads, so such a directory is refused with a reason that names the
permission problem — the planted file is left as it is and never loaded.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro import native
from repro.core.pipeline import sample_cnf
from repro.native import cext
from repro.serve import SamplingService
from tests.conftest import FIG1_DIMACS
from tests.integration.test_cli import run_cli

NO_COMPILER = "native C tier unavailable: no C compiler (cc/gcc/clang) on PATH"


@pytest.fixture
def fresh_tier(monkeypatch):
    """Forget the loaded library (and any memoised failure), and record every
    library load, so the next probe starts over and a test can show what it
    loaded."""
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_load_error", None)
    loaded = []
    real_cdll = cext.ctypes.CDLL

    def recording_cdll(path, *args, **kwargs):
        loaded.append(str(path))
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(cext.ctypes, "CDLL", recording_cdll)
    return loaded


def _library_name() -> str:
    return f"{cext.library_stem()}.so"


def _refusal(monkeypatch, cache_dir) -> str:
    monkeypatch.setenv(cext.CACHE_DIR_ENV_VAR, str(cache_dir))
    with pytest.raises(native.BackendUnavailableError) as refused:
        native.kernels_for(None)
    with pytest.raises(native.BackendUnavailableError):
        native.active_tier()
    return str(refused.value)


def test_world_writable_directory_with_a_planted_library_is_refused(
    tmp_path, monkeypatch, fresh_tier
):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    planted = shared / _library_name()
    planted.write_bytes(b"\x7fELF planted by another user")
    reason = _refusal(monkeypatch, shared)
    assert "unsafe cache directory" in reason
    assert "mode 0o777: group or other users may write to it" in reason
    # The permission check fired, not a failed dlopen of the planted file.
    assert "ELF" not in reason and "OSError" not in reason
    assert fresh_tier == []
    assert planted.read_bytes() == b"\x7fELF planted by another user"


def test_symlinked_directory_is_refused(tmp_path, monkeypatch, fresh_tier):
    real = tmp_path / "real"
    real.mkdir(mode=0o700)
    planted = real / _library_name()
    planted.write_bytes(b"\x7fELF planted behind a link")
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    reason = _refusal(monkeypatch, link)
    assert "unsafe cache directory" in reason
    assert "is not a real directory" in reason
    assert "ELF" not in reason and "OSError" not in reason
    assert fresh_tier == []
    assert planted.read_bytes() == b"\x7fELF planted behind a link"


@pytest.mark.skipif(os.getuid() != 0, reason="changing a directory's owner needs root")
def test_directory_owned_by_another_user_is_refused(tmp_path, monkeypatch, fresh_tier):
    foreign = tmp_path / "foreign"
    foreign.mkdir(mode=0o755)
    planted = foreign / _library_name()
    planted.write_bytes(b"\x7fELF planted by uid 65534")
    os.chown(foreign, 65534, 65534)
    reason = _refusal(monkeypatch, foreign)
    assert "unsafe cache directory" in reason
    assert "is owned by uid 65534" in reason
    assert fresh_tier == []
    assert planted.read_bytes() == b"\x7fELF planted by uid 65534"


def test_new_directory_is_created_private_and_used(tmp_path, monkeypatch, fresh_tier):
    cache_dir = tmp_path / "fresh" / "native"
    monkeypatch.setenv(cext.CACHE_DIR_ENV_VAR, str(cache_dir))
    assert native.active_tier() == "cext"
    assert stat.S_IMODE(os.lstat(cache_dir).st_mode) == 0o700
    assert (cache_dir / _library_name()).exists()
    assert fresh_tier == [str(cache_dir / _library_name())]


def test_library_name_covers_the_compile_flags(monkeypatch):
    # A cached library built with other flags must never be loaded: the
    # name hashes the command line's flags together with the source.
    assert "-ffp-contract=off" in cext.COMPILE_FLAGS
    stems = set()
    for flags in (("-O3", "-fPIC", "-shared"), ("-O2", "-fPIC", "-shared"), cext.COMPILE_FLAGS):
        monkeypatch.setattr(cext, "COMPILE_FLAGS", flags)
        stems.add(cext.library_stem())
    assert len(stems) == 3


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """A ``PATH`` holding no C compiler and a fresh cache directory."""
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv(cext.CACHE_DIR_ENV_VAR, str(tmp_path / "cache"))
    assert cext._find_compiler() is None
    return {"PATH": str(empty), cext.CACHE_DIR_ENV_VAR: str(tmp_path / "cache")}


def test_sampling_without_a_compiler_fails_loudly(fig1_formula, fresh_tier, no_compiler):
    reason = r"no C compiler \(cc/gcc/clang\) on PATH"
    with pytest.raises(native.BackendUnavailableError, match=reason):
        sample_cnf(fig1_formula, num_solutions=4)
    # A service refuses at construction, before any job is admitted.
    for num_workers in (0, 1):
        with pytest.raises(native.BackendUnavailableError, match=reason):
            SamplingService(num_workers=num_workers)
    assert fresh_tier == []


def test_a_built_library_loads_without_a_compiler(tmp_path, monkeypatch, fresh_tier):
    # Build once with the host's compiler, then take every compiler away:
    # the cached library still loads, and only a fresh directory refuses.
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(cext.CACHE_DIR_ENV_VAR, str(cache_dir))
    assert native.active_tier() == "cext"
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setattr(cext, "_lib", None)
    assert cext._find_compiler() is None
    assert native.kernels_for(None) is not None
    assert fresh_tier == [str(cache_dir / _library_name())] * 2
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setenv(cext.CACHE_DIR_ENV_VAR, str(tmp_path / "fresh"))
    with pytest.raises(native.BackendUnavailableError, match=r"no C compiler \(cc/gcc/clang\) on PATH"):
        native.kernels_for(None)


@pytest.mark.parametrize("command", ["sample", "serve"])
def test_cli_without_a_compiler_is_a_one_line_error(tmp_path, no_compiler, command):
    target = tmp_path / "fig1.cnf"
    target.write_text(FIG1_DIMACS)
    if command == "serve":
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"path": str(target)}]))
        target = manifest
    completed = run_cli(command, str(target), "-o", str(tmp_path / "out"), env_extra=no_compiler)
    assert completed.returncode == 2
    assert completed.stderr.splitlines() == [f"repro-sat: error: {NO_COMPILER}"]
    assert not (tmp_path / "out").exists()
