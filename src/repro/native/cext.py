"""The C tier of :mod:`repro.native`: kernels compiled on demand with ``cc``.

The engine's forward, backward and boolean passes are a handful of small,
dependency-free C functions.  Rather than shipping a build step, the source
below is compiled *on first use* into a shared library (``cc`` with
:data:`COMPILE_FLAGS`) under a per-user cache directory, named by a hash of
the source *and* the flags, then loaded with :mod:`ctypes`.  A repeat
process with the same source and flags finds the library on disk and pays
nothing; the one-time build cost is recorded in
:func:`repro.native.compile_seconds` so benchmarks and the serving layer can
report cold-vs-warm numbers honestly.

Loading a library runs its code, so the cache directory must be private:
it is created with mode ``0o700``, and before anything is written to or
loaded from it, it must be a real directory (not a symlink) owned by the
current user with no group or other write bit.  The default lives under the
shared temp directory at a predictable name; without the check, another
local user could create it first and plant a library every repro process
would load.

No compiler, a failing compile, a failing load or an unsafe cache directory
raise :class:`BackendUnavailableError` naming the failure; it is memoised,
so a process that cannot bring the tier up fails the same way every time.

Kernel inventory (all operate on caller-allocated C-contiguous buffers):

* ``repro_engine_forward`` / ``repro_engine_backward`` — the ``float32``
  program as one C loop over its flat per-op arrays (op ``i`` writes slot
  ``first + i``, so no out-slot array exists).  Every op is one elementwise
  statement per row, and ``-ffp-contract=off`` keeps any toolchain from
  fusing a multiply-add, so both equal the per-op NumPy loop of
  ``tests/oracles/executor.py`` bit for bit; backward accumulates operand
  gradients in reverse op order.
* ``repro_engine_execute_bool`` — the boolean execution mode of the same
  program.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro import obs


class BackendUnavailableError(ImportError):
    """Raised when the C tier cannot be brought up on this host."""


_COMPILE_SECONDS_METRIC = obs.counter(
    "repro_native_compile_seconds_total",
    "Wall-clock seconds spent building native kernel tiers.",
    labels=("tier",),
)

#: Environment variable overriding where compiled libraries are cached.
CACHE_DIR_ENV_VAR = "REPRO_NATIVE_CACHE_DIR"

#: Compiler flags of the build.  ``-ffp-contract=off`` forbids fused
#: multiply-adds, which would round differently from a separate multiply
#: and add.  The library name hashes these flags with the source.
COMPILE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

C_SOURCE = r"""
#include <stdint.h>

/* ---------------- engine kernels (flat per-op straight-line program) ------------- */
/* opcodes: 0 = MUL (a*b / &), 1 = ADD (a+b / |), 2 = NOT (1-a / ^).
   values is the (num_slots, batch) C-contiguous slot matrix; op i writes row
   first + i and reads rows a[i] (and b[i]), both below first + i, so one
   in-order pass computes every op after its operands.  Nothing here checks
   an index: callers pass programs the compiler emitted or
   CompiledProgram.check accepted.                                          */

void repro_engine_forward(float *values, int64_t batch, int64_t nops,
                          int64_t first, const uint8_t *opc, const int32_t *a,
                          const int32_t *b)
{
    for (int64_t i = 0; i < nops; ++i) {
        float *out = values + (first + i) * batch;
        const float *pa = values + (int64_t)a[i] * batch;
        if (opc[i] == 0) {
            const float *pb = values + (int64_t)b[i] * batch;
            for (int64_t j = 0; j < batch; ++j)
                out[j] = pa[j] * pb[j];
        } else if (opc[i] == 1) {
            const float *pb = values + (int64_t)b[i] * batch;
            for (int64_t j = 0; j < batch; ++j)
                out[j] = pa[j] + pb[j];
        } else {
            for (int64_t j = 0; j < batch; ++j)
                out[j] = 1.0f - pa[j];
        }
    }
}

void repro_engine_backward(const float *values, float *grads, int64_t batch,
                           int64_t nops, int64_t first, const uint8_t *opc,
                           const int32_t *a, const int32_t *b)
{
    for (int64_t i = nops - 1; i >= 0; --i) {
        const float *g = grads + (first + i) * batch;
        float *ga = grads + (int64_t)a[i] * batch;
        if (opc[i] == 0) {
            float *gb = grads + (int64_t)b[i] * batch;
            const float *va = values + (int64_t)a[i] * batch;
            const float *vb = values + (int64_t)b[i] * batch;
            for (int64_t j = 0; j < batch; ++j) {
                ga[j] += g[j] * vb[j];
                gb[j] += g[j] * va[j];
            }
        } else if (opc[i] == 1) {
            float *gb = grads + (int64_t)b[i] * batch;
            for (int64_t j = 0; j < batch; ++j) {
                ga[j] += g[j];
                gb[j] += g[j];
            }
        } else {
            for (int64_t j = 0; j < batch; ++j)
                ga[j] -= g[j];
        }
    }
}

void repro_engine_execute_bool(uint8_t *values, int64_t batch, int64_t nops,
                               int64_t first, const uint8_t *opc,
                               const int32_t *a, const int32_t *b)
{
    for (int64_t i = 0; i < nops; ++i) {
        uint8_t *out = values + (first + i) * batch;
        const uint8_t *pa = values + (int64_t)a[i] * batch;
        if (opc[i] == 0) {
            const uint8_t *pb = values + (int64_t)b[i] * batch;
            for (int64_t j = 0; j < batch; ++j)
                out[j] = pa[j] & pb[j];
        } else if (opc[i] == 1) {
            const uint8_t *pb = values + (int64_t)b[i] * batch;
            for (int64_t j = 0; j < batch; ++j)
                out[j] = pa[j] | pb[j];
        } else {
            for (int64_t j = 0; j < batch; ++j)
                out[j] = pa[j] ^ 1;
        }
    }
}
"""

#: Wall-clock seconds spent compiling (building the shared library); read via
#: :func:`repro.native.compile_seconds`.
_compile_seconds = 0.0

_lib: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None


def compile_seconds() -> float:
    """Seconds this process spent building the C tier (0.0 on a disk-cache hit).

    The workers report it per task; the registered form is
    ``repro_native_compile_seconds_total{tier="cext"}`` in :mod:`repro.obs`.
    """
    return _compile_seconds


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV_VAR)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _private_cache_dir() -> Path:
    """The cache directory, created private and checked before any use.

    Raises :class:`BackendUnavailableError` naming the problem
    when the path is not a real directory owned by this user, or when group
    or other users may write to it.
    """
    cache_dir = _cache_dir()
    try:
        cache_dir.mkdir(mode=0o700, parents=True)
    except FileExistsError:
        pass  # checked below, whoever created it
    info = os.lstat(cache_dir)
    problem = None
    if not stat.S_ISDIR(info.st_mode):
        problem = "is not a real directory (a symlink or another file type)"
    elif info.st_uid != os.getuid():
        problem = f"is owned by uid {info.st_uid}, not by this user (uid {os.getuid()})"
    elif info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        problem = (
            f"has mode {stat.S_IMODE(info.st_mode):#o}: group or other users may "
            "write to it"
        )
    if problem is not None:
        raise BackendUnavailableError(
            f"native C tier unavailable: unsafe cache directory {cache_dir} "
            f"{problem}; no library is built or loaded from it (set "
            f"{CACHE_DIR_ENV_VAR} to a private directory)"
        )
    return cache_dir


def _find_compiler() -> Optional[str]:
    from shutil import which

    for name in ("cc", "gcc", "clang"):
        path = which(name)
        if path:
            return path
    return None


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Attach argtypes so a mismatched call fails loudly instead of corrupting."""
    # Buffers are passed as raw addresses of C-contiguous NumPy arrays.
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.repro_engine_forward.argtypes = [ptr, i64, i64, i64, ptr, ptr, ptr]
    lib.repro_engine_forward.restype = None
    lib.repro_engine_backward.argtypes = [ptr, ptr, i64, i64, i64, ptr, ptr, ptr]
    lib.repro_engine_backward.restype = None
    lib.repro_engine_execute_bool.argtypes = [ptr, i64, i64, i64, ptr, ptr, ptr]
    lib.repro_engine_execute_bool.restype = None
    return lib


def library_stem() -> str:
    """The cached library's file stem: a hash of the source and the flags.

    A flag change therefore names a new library instead of loading one a
    different command line built.
    """
    key = "\0".join((C_SOURCE, *COMPILE_FLAGS))
    return f"repronative_{hashlib.sha256(key.encode()).hexdigest()[:16]}"


def _build_library() -> ctypes.CDLL:
    global _compile_seconds
    compiler = _find_compiler()
    if compiler is None:
        raise BackendUnavailableError(
            "native C tier unavailable: no C compiler (cc/gcc/clang) on PATH"
        )
    stem = library_stem()
    cache_dir = _private_cache_dir()
    library_path = cache_dir / f"{stem}.so"
    if not library_path.exists():
        start = time.perf_counter()
        source_path = cache_dir / f"{stem}.c"
        source_path.write_text(C_SOURCE)
        # Build into a temp name then rename: concurrent processes racing the
        # build each produce a complete library and the rename is atomic.
        scratch = cache_dir / f"{stem}.{os.getpid()}.so"
        command = [compiler, *COMPILE_FLAGS, "-o", str(scratch), str(source_path)]
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            raise BackendUnavailableError(
                f"native C tier unavailable: compile failed: {result.stderr.strip()}"
            )
        os.replace(scratch, library_path)
        delta = time.perf_counter() - start
        _compile_seconds += delta
        _COMPILE_SECONDS_METRIC.inc(delta, "cext")
    return _declare(ctypes.CDLL(str(library_path)))


def load_library() -> ctypes.CDLL:
    """The compiled kernel library (built and memoised on first call).

    Raises :class:`BackendUnavailableError` when the tier cannot be brought
    up; the failure is memoised, so every later call raises it again without
    another compile attempt.
    """
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise BackendUnavailableError(_load_error)
    try:
        _lib = _build_library()
    except BackendUnavailableError as error:
        _load_error = str(error)
        raise
    except Exception as error:  # pragma: no cover - environment-specific
        _load_error = f"native C tier unavailable: {type(error).__name__}: {error}"
        raise BackendUnavailableError(_load_error) from error
    return _lib

