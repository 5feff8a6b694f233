"""The C tier of :mod:`repro.native`: kernels compiled on demand with ``cc``.

The hot loop NumPy cannot fuse — the engine's per-slot op dispatch — is a
handful of small, dependency-free C functions.  Rather than shipping a build
step, the source below is compiled *on first use* into a shared library
(``cc -O3 -fPIC -shared``) under a per-user cache directory keyed by the
source hash, then loaded with :mod:`ctypes`.  A repeat process with the same
source finds the library on disk and pays nothing; the one-time build cost is recorded in
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
all degrade to "tier unavailable"
(:class:`~repro.native.BackendUnavailableError`, which the probe in
:mod:`repro.native` turns into the NumPy paths, keeping the reason).

Kernel inventory (all operate on caller-allocated C-contiguous buffers):

* ``repro_engine_forward_/backward_f64/f32`` — the levelized program as one
  C loop over flat per-op arrays; forward is elementwise and therefore
  bitwise identical to the NumPy block path, backward accumulates operand
  gradients sequentially per op (covered by the engine's 1e-10 gradient
  contract — NumPy's ``reduceat`` uses platform-dependent reduction trees).
* ``repro_engine_execute_bool`` / ``_packed`` — the boolean and bit-parallel
  execution modes of the same program.
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

from repro.native import BackendUnavailableError
from repro import obs

_COMPILE_SECONDS_METRIC = obs.counter(
    "repro_native_compile_seconds_total",
    "Wall-clock seconds spent building native kernel tiers.",
    labels=("tier",),
)

#: Environment variable overriding where compiled libraries are cached.
CACHE_DIR_ENV_VAR = "REPRO_NATIVE_CACHE_DIR"

C_SOURCE = r"""
#include <stdint.h>

/* ---------------- engine kernels (flat per-op straight-line program) ------------- */
/* opcodes: 0 = MUL (a*b / &), 1 = ADD (a+b / |), 2 = NOT (1-a / ^ / ~).
   values is the (num_slots, batch) C-contiguous slot matrix; the per-op slot
   arrays index rows of it.  Operand rows always precede output rows, so the
   single in-order pass reproduces the levelized block schedule exactly.      */

#define ENGINE_FORWARD(NAME, T)                                                \
void NAME(T *values, int64_t batch, int64_t nops, const uint8_t *opc,          \
          const int32_t *a, const int32_t *b, const int32_t *o)                \
{                                                                              \
    for (int64_t i = 0; i < nops; ++i) {                                       \
        T *out = values + (int64_t)o[i] * batch;                               \
        const T *pa = values + (int64_t)a[i] * batch;                          \
        if (opc[i] == 0) {                                                     \
            const T *pb = values + (int64_t)b[i] * batch;                      \
            for (int64_t j = 0; j < batch; ++j)                                \
                out[j] = pa[j] * pb[j];                                        \
        } else if (opc[i] == 1) {                                              \
            const T *pb = values + (int64_t)b[i] * batch;                      \
            for (int64_t j = 0; j < batch; ++j)                                \
                out[j] = pa[j] + pb[j];                                        \
        } else {                                                               \
            for (int64_t j = 0; j < batch; ++j)                                \
                out[j] = (T)1 - pa[j];                                         \
        }                                                                      \
    }                                                                          \
}

ENGINE_FORWARD(repro_engine_forward_f64, double)
ENGINE_FORWARD(repro_engine_forward_f32, float)

#define ENGINE_BACKWARD(NAME, T)                                               \
void NAME(const T *values, T *grads, int64_t batch, int64_t nops,              \
          const uint8_t *opc, const int32_t *a, const int32_t *b,              \
          const int32_t *o)                                                    \
{                                                                              \
    for (int64_t i = nops - 1; i >= 0; --i) {                                  \
        const T *g = grads + (int64_t)o[i] * batch;                            \
        T *ga = grads + (int64_t)a[i] * batch;                                 \
        if (opc[i] == 0) {                                                     \
            T *gb = grads + (int64_t)b[i] * batch;                             \
            const T *va = values + (int64_t)a[i] * batch;                      \
            const T *vb = values + (int64_t)b[i] * batch;                      \
            for (int64_t j = 0; j < batch; ++j) {                              \
                ga[j] += g[j] * vb[j];                                         \
                gb[j] += g[j] * va[j];                                         \
            }                                                                  \
        } else if (opc[i] == 1) {                                              \
            T *gb = grads + (int64_t)b[i] * batch;                             \
            for (int64_t j = 0; j < batch; ++j) {                              \
                ga[j] += g[j];                                                 \
                gb[j] += g[j];                                                 \
            }                                                                  \
        } else {                                                               \
            for (int64_t j = 0; j < batch; ++j)                                \
                ga[j] -= g[j];                                                 \
        }                                                                      \
    }                                                                          \
}

ENGINE_BACKWARD(repro_engine_backward_f64, double)
ENGINE_BACKWARD(repro_engine_backward_f32, float)

void repro_engine_execute_bool(uint8_t *values, int64_t batch, int64_t nops,
                               const uint8_t *opc, const int32_t *a,
                               const int32_t *b, const int32_t *o)
{
    for (int64_t i = 0; i < nops; ++i) {
        uint8_t *out = values + (int64_t)o[i] * batch;
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

void repro_engine_execute_packed(uint64_t *values, int64_t lanes, int64_t nops,
                                 const uint8_t *opc, const int32_t *a,
                                 const int32_t *b, const int32_t *o)
{
    for (int64_t i = 0; i < nops; ++i) {
        uint64_t *out = values + (int64_t)o[i] * lanes;
        const uint64_t *pa = values + (int64_t)a[i] * lanes;
        if (opc[i] == 0) {
            const uint64_t *pb = values + (int64_t)b[i] * lanes;
            for (int64_t j = 0; j < lanes; ++j)
                out[j] = pa[j] & pb[j];
        } else if (opc[i] == 1) {
            const uint64_t *pb = values + (int64_t)b[i] * lanes;
            for (int64_t j = 0; j < lanes; ++j)
                out[j] = pa[j] | pb[j];
        } else {
            for (int64_t j = 0; j < lanes; ++j)
                out[j] = ~pa[j];
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

    Back-compat accessor; the registered form is
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

    Raises :class:`~repro.native.BackendUnavailableError` naming the problem
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
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    p_u64 = ctypes.POINTER(ctypes.c_uint64)
    p_i32 = ctypes.POINTER(ctypes.c_int32)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    p_f32 = ctypes.POINTER(ctypes.c_float)
    i64 = ctypes.c_int64
    for name, p_t in (
        ("repro_engine_forward_f64", p_f64),
        ("repro_engine_forward_f32", p_f32),
    ):
        fn = getattr(lib, name)
        fn.argtypes = [p_t, i64, i64, p_u8, p_i32, p_i32, p_i32]
        fn.restype = None
    for name, p_t in (
        ("repro_engine_backward_f64", p_f64),
        ("repro_engine_backward_f32", p_f32),
    ):
        fn = getattr(lib, name)
        fn.argtypes = [p_t, p_t, i64, i64, p_u8, p_i32, p_i32, p_i32]
        fn.restype = None
    lib.repro_engine_execute_bool.argtypes = [p_u8, i64, i64, p_u8, p_i32, p_i32, p_i32]
    lib.repro_engine_execute_bool.restype = None
    lib.repro_engine_execute_packed.argtypes = [
        p_u64, i64, i64, p_u8, p_i32, p_i32, p_i32,
    ]
    lib.repro_engine_execute_packed.restype = None
    return lib


def _build_library() -> ctypes.CDLL:
    global _compile_seconds
    compiler = _find_compiler()
    if compiler is None:
        raise BackendUnavailableError(
            "native C tier unavailable: no C compiler (cc/gcc/clang) on PATH"
        )
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = _private_cache_dir()
    library_path = cache_dir / f"repronative_{digest}.so"
    if not library_path.exists():
        start = time.perf_counter()
        source_path = cache_dir / f"repronative_{digest}.c"
        source_path.write_text(C_SOURCE)
        # Build into a temp name then rename: concurrent processes racing the
        # build each produce a complete library and the rename is atomic.
        scratch = cache_dir / f"repronative_{digest}.{os.getpid()}.so"
        command = [compiler, "-O3", "-fPIC", "-shared", "-o", str(scratch), str(source_path)]
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

    Raises :class:`~repro.native.BackendUnavailableError` when the tier
    cannot be brought up; the failure is memoised so repeated availability
    probes stay cheap.
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


def available() -> bool:
    """Whether the C tier can be (or already was) brought up."""
    try:
        load_library()
    except BackendUnavailableError:
        return False
    return True
