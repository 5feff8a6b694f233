"""Circuit simulation over batches of input vectors.

:func:`simulate` is the boolean execution mode of the compiled levelized
engine (:mod:`repro.engine`): the requested nets' cone is compiled once per
netlist state into an index-based program (memoized on the circuit) and run
over boolean arrays, one column per input.  The same compiled program also
backs the probabilistic forward/backward passes of the sampler model, so
every evaluation style shares one substrate.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.engine.compiler import compiled_program_for
from repro.engine.executor import execute_bool


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
    values = execute_bool(program, input_matrix)[program.output_slots]
    return dict(zip(wanted, values))

