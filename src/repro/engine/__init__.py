"""The compiled execution engine.

This package is the single evaluation substrate behind the differentiable
circuit core: :mod:`repro.engine.compiler` lowers a circuit cone once into a
:class:`~repro.engine.program.CompiledProgram` — one flat op stream of
opcode and operand-slot arrays that the C tier (:mod:`repro.native`) runs as
one loop — and :mod:`repro.engine.executor` runs that program in two modes
(probabilistic forward/backward, boolean) while :mod:`repro.engine.train`
supplies the fused gradient-descent loop the samplers call.

The engine is the library's only evaluation path.  The per-gate autodiff
walk it replaced lives under ``tests/oracles/`` as the reference oracle;
the engine is tested bitwise-identical to it.
"""

from repro.engine.compiler import CompileError, compile_circuit, compiled_program_for
from repro.engine.executor import backward, execute_bool, forward
from repro.engine.program import OP_ADD, OP_MUL, OP_NOT, CompiledProgram
from repro.engine.train import learn_batch, learn_chunk, sigmoid_embedding

__all__ = [
    "CompileError",
    "compile_circuit",
    "compiled_program_for",
    "forward",
    "backward",
    "execute_bool",
    "CompiledProgram",
    "OP_MUL",
    "OP_ADD",
    "OP_NOT",
    "learn_batch",
    "learn_chunk",
    "sigmoid_embedding",
]
