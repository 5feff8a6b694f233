"""Circuit simulation over batches of input vectors.

Both entry points are execution modes of the compiled levelized engine
(:mod:`repro.engine`): the requested nets' cone is compiled once per netlist
state into an index-based program (memoized on the circuit) and executed with
fused NumPy ops — boolean arrays for :func:`simulate`, 64-samples-per-word
``uint64`` lanes for :func:`simulate_packed`.  The same compiled program also
backs the probabilistic forward/backward passes of the sampler model, so all
evaluation styles share one substrate.

* :func:`simulate` — boolean NumPy arrays, one column per input; used for
  validating sampled solutions against the recovered circuit;
* :func:`simulate_packed` — 64 samples per ``uint64`` word, the classic
  bit-parallel simulation used by logic-simulation and ATPG tools.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.engine.compiler import compiled_program_for
from repro.engine.executor import execute_bool, execute_packed


def simulate(
    circuit: Circuit,
    input_matrix,
    input_order: Optional[Sequence[str]] = None,
    nets: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Simulate the circuit on a ``(batch, num_inputs)`` boolean matrix.

    ``input_order`` gives the column order (defaults to ``circuit.inputs``).
    Returns a map from net name to a boolean vector of length ``batch`` for
    the requested ``nets`` (default: primary outputs).
    """
    input_matrix = np.asarray(input_matrix, dtype=np.bool_)
    if input_matrix.ndim != 2:
        raise ValueError(f"expected 2-D input matrix, got shape {input_matrix.shape}")
    order = list(input_order) if input_order is not None else list(circuit.inputs)
    if input_matrix.shape[1] != len(order):
        raise ValueError(
            f"input matrix has {input_matrix.shape[1]} columns but {len(order)} inputs given"
        )
    provided = set(order)
    for name in circuit.inputs:
        if name not in provided:
            raise ValueError(f"no column provided for primary input {name!r}")
    wanted = list(nets) if nets is not None else list(circuit.outputs)
    if not wanted:
        return {}
    program = compiled_program_for(circuit, wanted, order)
    values = execute_bool(program, input_matrix)
    return {name: values[program.net_slot[name]] for name in wanted}


def simulate_packed(
    circuit: Circuit,
    packed_inputs: Dict[str, np.ndarray],
    nets: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Bit-parallel simulation: each net carries a uint64 vector of packed samples.

    ``packed_inputs`` maps every primary input to an identically shaped
    ``uint64`` array (any shape); each bit position is an independent sample.
    """
    shapes = {name: np.asarray(arr).shape for name, arr in packed_inputs.items()}
    if len(set(shapes.values())) > 1:
        raise ValueError(f"packed input arrays must share a shape, got {shapes}")
    for name in circuit.inputs:
        if name not in packed_inputs:
            raise ValueError(f"no packed vector provided for primary input {name!r}")
    wanted = list(nets) if nets is not None else list(circuit.outputs)
    if not wanted:
        return {}
    program = compiled_program_for(circuit, wanted, None)
    values = execute_packed(program, packed_inputs)
    return {name: values[name] for name in wanted}
