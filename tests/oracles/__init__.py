"""Reference implementations the library's compiled paths are tested against.

Nothing under ``src/`` imports these: they are the plain originals the
engine replaced, kept so equivalence tests and benchmarks can compare the
shipped code with them.
"""
