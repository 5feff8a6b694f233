"""Shared fixtures for the artifact-store suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.core.signatures import formula_signature
from repro.serve.cache import build_artifact
from repro.store import ArtifactStore
from repro.store.format import FlatPayload
from tests.conftest import FIG1_DIMACS


def flat(values) -> FlatPayload:
    """A test entry holding ``values`` as its one ``int64`` array, ``x``."""
    return FlatPayload(fields={}, arrays={"x": np.asarray(values, dtype=np.int64)})


@pytest.fixture
def fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


@pytest.fixture
def fig1_signature(fig1):
    return formula_signature(fig1)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def fig1_artifact(fig1, fig1_signature):
    """A freshly built artifact for Fig. 1 (transform + plan + program)."""
    return build_artifact(fig1, fig1_signature)
