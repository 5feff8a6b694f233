"""Named benchmark instances (the reproduction's analogue of the 60-instance suite).

Every entry pairs a deterministic generator configuration with the metadata
needed by the evaluation harness: the family it models, the scaled-down
generation parameters used here, and — for the 14 representative instances of
Table II — the variable/clause counts and throughputs the paper reports, so
a report can put paper numbers and measured numbers side by side.

The parameters are scaled down relative to the original suite (this
reproduction runs on CPU-hosted NumPy rather than a V100), but each
instance keeps its family's structure, so the transformation and the sampler
exercise the same code paths at every scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.cnf.formula import CNF
from repro.instances.blocked import generate_q_instance
from repro.instances.iscas import generate_iscas_like_instance
from repro.instances.or_chain import generate_or_instance
from repro.instances.product import generate_product_instance
from repro.utils.rng import derive_seed

#: Signature shared by all family generators.
Generator = Callable[..., Tuple[CNF, Circuit]]


@dataclass(frozen=True)
class PaperRow:
    """The Table II row the paper reports for a representative instance."""

    primary_inputs: int
    primary_outputs: int
    num_variables: int
    num_clauses: int
    throughput_this_work: float
    speedup: float
    throughput_unigen3: Optional[float]
    throughput_cmsgen: Optional[float]
    throughput_diffsampler: Optional[float]


@dataclass(frozen=True)
class BenchmarkInstance:
    """One named instance of the reproduction suite."""

    name: str
    family: str
    generator: Generator
    parameters: Dict[str, object]
    description: str = ""
    paper: Optional[PaperRow] = None
    tags: Tuple[str, ...] = field(default_factory=tuple)

    def build(self) -> Tuple[CNF, Circuit]:
        """Generate the instance (deterministic for a given registry entry)."""
        formula, circuit = self.generator(name=self.name, **self.parameters)
        formula.name = self.name
        return formula, circuit

    def build_cnf(self) -> CNF:
        """Generate and return only the CNF."""
        return self.build()[0]


def _seed(name: str) -> int:
    return derive_seed(20250212, name)


def _or_entry(
    name: str,
    num_inputs: int,
    num_outputs: int,
    cones: int,
    paper: Optional[PaperRow] = None,
    tags: Tuple[str, ...] = (),
) -> BenchmarkInstance:
    return BenchmarkInstance(
        name=name,
        family="or",
        generator=generate_or_instance,
        parameters={
            "num_inputs": num_inputs,
            "num_constrained_outputs": num_outputs,
            "num_unconstrained_cones": cones,
            "seed": _seed(name),
        },
        description="loosely constrained OR/AND network (constrained-random verification style)",
        paper=paper,
        tags=tags,
    )


def _q_entry(
    name: str,
    num_inputs: int,
    chains: int,
    chain_length: int,
    paper: Optional[PaperRow] = None,
    tags: Tuple[str, ...] = (),
) -> BenchmarkInstance:
    return BenchmarkInstance(
        name=name,
        family="q",
        generator=generate_q_instance,
        parameters={
            "num_inputs": num_inputs,
            "num_select_chains": chains,
            "chain_length": chain_length,
            "seed": _seed(name),
        },
        description="mux/ITE cascade with buffer chains and one constrained output",
        paper=paper,
        tags=tags,
    )


def _iscas_entry(
    name: str,
    num_inputs: int,
    num_gates: int,
    num_outputs: int,
    paper: Optional[PaperRow] = None,
    tags: Tuple[str, ...] = (),
) -> BenchmarkInstance:
    return BenchmarkInstance(
        name=name,
        family="iscas",
        generator=generate_iscas_like_instance,
        parameters={
            "num_inputs": num_inputs,
            "num_gates": num_gates,
            "num_constrained_outputs": num_outputs,
            "seed": _seed(name),
        },
        description="ISCAS'89-style random-logic netlist with constrained outputs",
        paper=paper,
        tags=tags,
    )


def _prod_entry(
    name: str,
    width: int,
    constrained_bits: int,
    paper: Optional[PaperRow] = None,
    tags: Tuple[str, ...] = (),
) -> BenchmarkInstance:
    return BenchmarkInstance(
        name=name,
        family="prod",
        generator=generate_product_instance,
        parameters={
            "width": width,
            "num_constrained_bits": constrained_bits,
            "seed": _seed(name),
        },
        description="array-multiplier product instance with constrained product bits",
        paper=paper,
        tags=tags,
    )


# -- Table II representative instances (paper-reported rows) ----------------------------------
_TABLE2 = [
    _or_entry(
        "or-50-10-7-UC-10", 50, 4, 6,
        paper=PaperRow(50, 4, 100, 254, 5_974_780.8, 79.6, 64.7, 36_693.5, 75_040.1),
        tags=("table2",),
    ),
    _or_entry(
        "or-60-20-10-UC-10", 60, 5, 7,
        paper=PaperRow(60, 5, 120, 305, 4_777_137.7, 86.0, 81.7, 33_987.0, 55_521.3),
        tags=("table2",),
    ),
    _or_entry(
        "or-70-5-5-UC-10", 70, 7, 7,
        paper=PaperRow(69, 7, 140, 357, 2_468_613.4, 77.8, 94.5, 31_732.4, 16_035.1),
        tags=("table2",),
    ),
    _or_entry(
        "or-100-20-8-UC-10", 100, 10, 8,
        paper=PaperRow(98, 10, 200, 510, 1_707_142.3, 51.6, 43.4, 22_951.7, 33_175.3),
        tags=("table2", "figure"),
    ),
    _q_entry(
        "75-10-1-q", 75, 6, 10,
        paper=PaperRow(83, 1, 452, 443, 478_723.0, 42.0, 1.6, 11_281.8, 156.1),
        tags=("table2",),
    ),
    _q_entry(
        "75-10-10-q", 75, 6, 12,
        paper=PaperRow(79, 1, 456, 439, 2_075_175.0, 197.1, 1.6, 10_527.4, 251.8),
        tags=("table2",),
    ),
    _q_entry(
        "90-10-1-q", 90, 7, 12,
        paper=PaperRow(51, 1, 432, 411, 2_809_981.5, 251.7, 1.0, 11_162.5, 227.9),
        tags=("table2",),
    ),
    _q_entry(
        "90-10-10-q", 90, 7, 14,
        paper=PaperRow(31, 1, 428, 391, 3_567_035.2, 326.9, 1.4, 10_913.0, 57.9),
        tags=("table2", "figure"),
    ),
    _iscas_entry(
        "s15850a_3_2", 180, 1500, 3,
        paper=PaperRow(600, 3, 10_908, 24_476, 20_267.1, 47.1, 0.4, 430.4, None),
        tags=("table2",),
    ),
    _iscas_entry(
        "s15850a_7_4", 180, 1500, 7,
        paper=PaperRow(600, 7, 10_926, 24_552, 14_930.5, 34.1, 0.5, 437.9, None),
        tags=("table2",),
    ),
    _iscas_entry(
        "s15850a_15_7", 180, 1500, 15,
        paper=PaperRow(600, 15, 10_995, 24_836, 14_177.1, 33.6, 0.5, 422.2, None),
        tags=("table2", "figure"),
    ),
    _prod_entry(
        "Prod-8", 8, 2,
        paper=PaperRow(293, 2, 14_952, 74_702, 994.9, 523.6, 1.9, 0.2, None),
        tags=("table2",),
    ),
    _prod_entry(
        "Prod-20", 10, 2,
        paper=PaperRow(677, 2, 37_320, 186_734, 139.1, 347.8, 0.4, None, None),
        tags=("table2",),
    ),
    _prod_entry(
        "Prod-32", 12, 2,
        paper=PaperRow(1061, 2, 59_688, 298_766, 96.0, 480.0, 0.2, None, None),
        tags=("table2", "figure"),
    ),
]


def _build_full_registry() -> List[BenchmarkInstance]:
    """The 60-instance suite: the Table II rows plus sweeps over each family."""
    entries: List[BenchmarkInstance] = list(_TABLE2)

    # or-* sweep: 4 sizes x 5 replicas (UC-1 .. UC-5).
    for num_inputs, num_outputs in ((50, 4), (60, 5), (70, 7), (100, 10)):
        for replica in range(1, 6):
            name = f"or-{num_inputs}-{num_outputs * 5}-{replica}-UC-{replica * 2}"
            entries.append(_or_entry(name, num_inputs, num_outputs, 5 + replica))

    # *-q sweep: two base sizes x 7 replicas.
    for base in (75, 90):
        for replica in range(2, 9):
            name = f"{base}-10-{replica}-q"
            if any(existing.name == name for existing in entries):
                continue
            entries.append(_q_entry(name, base, 6 + (replica % 3), 8 + replica))

    # ISCAS-like sweep: additional circuit sizes.
    for circuit_name, num_inputs, num_gates, num_outputs in (
        ("s9234a_3_2", 120, 800, 3),
        ("s9234a_7_4", 120, 800, 7),
        ("s13207a_3_2", 150, 1100, 3),
        ("s13207a_7_4", 150, 1100, 7),
        ("s35932_3_2", 220, 2000, 3),
        ("s35932_7_4", 220, 2000, 7),
    ):
        entries.append(_iscas_entry(circuit_name, num_inputs, num_gates, num_outputs))

    # Prod sweep: widths between the representative rows.
    for width in (4, 5, 6, 7, 9, 11):
        entries.append(_prod_entry(f"Prod-w{width}", width, 2))

    return entries


#: The full suite (60 instances).
REGISTRY: List[BenchmarkInstance] = _build_full_registry()

#: The 14 representative instances of Table II, in the paper's order.
TABLE2_INSTANCES: List[str] = [entry.name for entry in _TABLE2]

#: The 4 instances used in the paper's Fig. 3 / Fig. 4 ablations.
FIGURE_INSTANCES: List[str] = [
    entry.name for entry in _TABLE2 if "figure" in entry.tags
]

_BY_NAME: Dict[str, BenchmarkInstance] = {entry.name: entry for entry in REGISTRY}


def get_instance(name: str) -> BenchmarkInstance:
    """Look up a registry entry by name."""
    try:
        return _BY_NAME[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown instance {name!r}; known instances: {sorted(_BY_NAME)[:10]}..."
        ) from exc


def list_instances(family: Optional[str] = None, tag: Optional[str] = None) -> List[str]:
    """List instance names, optionally filtered by family or tag."""
    names = []
    for entry in REGISTRY:
        if family is not None and entry.family != family:
            continue
        if tag is not None and tag not in entry.tags:
            continue
        names.append(entry.name)
    return names
