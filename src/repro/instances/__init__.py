"""Synthetic benchmark-instance generators.

The paper evaluates on 60 instances from Meel's public model-counting /
uniform-sampling benchmark suite (Zenodo 3793090), drawn from four families
that Table II samples: ``or-*`` constrained-random instances, ``*-q``
blocked/mux instances, ``s15850a_*`` ISCAS'89-derived circuit CNFs and
``Prod-*`` product (multiplier) instances.  The original DIMACS files are not
redistributable here, so each family is rebuilt from the kind of circuit it
was Tseitin-encoded from, at a configurable scale.  Every
generator returns both the CNF (what samplers consume) and the originating
circuit (ground truth for the transformation tests).

:mod:`repro.instances.registry` names 60 concrete instances — including the
14 representative ones of Table II — with deterministic seeds, so experiments
are reproducible run to run.
"""

from repro.instances.or_chain import generate_or_instance
from repro.instances.blocked import generate_q_instance
from repro.instances.iscas import generate_iscas_like_instance
from repro.instances.product import generate_product_instance
from repro.instances.registry import (
    BenchmarkInstance,
    REGISTRY,
    TABLE2_INSTANCES,
    FIGURE_INSTANCES,
    get_instance,
    list_instances,
)

__all__ = [
    "generate_or_instance",
    "generate_q_instance",
    "generate_iscas_like_instance",
    "generate_product_instance",
    "BenchmarkInstance",
    "REGISTRY",
    "TABLE2_INSTANCES",
    "FIGURE_INSTANCES",
    "get_instance",
    "list_instances",
]
