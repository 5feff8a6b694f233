"""Where a benchmark record came from: code, host and toolchain."""

from __future__ import annotations

import hashlib
import os
import platform
from typing import Dict, Optional


def git_commit(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git.

    ``None`` when ``root`` is not a git work tree (an exported checkout);
    ``source_sha256`` then still identifies the code exactly.
    """
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head[len("ref:"):].strip()
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(source_dir: str) -> str:
    """SHA-256 over every ``.py`` file under ``source_dir`` (path and bytes)."""
    digest = hashlib.sha256()
    paths = []
    for directory, subdirs, files in os.walk(source_dir):
        subdirs[:] = sorted(name for name in subdirs if name != "__pycache__")
        paths.extend(os.path.join(directory, name) for name in files if name.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, source_dir).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(root: str, workload_seed: int, jobs: int, nproc: int) -> Dict[str, object]:
    """``nproc`` is the CPUs the run may use, counted before it pins itself."""
    import numpy
    from repro import native

    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "host": platform.node(),
        "cpu": cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_tier": native.active_tier(),
        "workload_seed": workload_seed,
        "jobs_per_run": jobs,
    }
