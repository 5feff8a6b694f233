"""Reference oracle: the version 1 formula signature.

Version 1 of :func:`repro.core.signatures.formula_signature` hashed each
clause's DIMACS text, clause by clause.  It is kept to show that no version
1 key equals a version 2 key, so a store written under version 1 keys
(format v5) can never be read as the current one.
"""

from __future__ import annotations

import hashlib


def formula_signature_v1(formula) -> str:
    """The version 1 content hash of ``formula`` (hex digest)."""
    digest = hashlib.sha256()
    digest.update(f"p {formula.num_variables}\n".encode())
    for clause in formula.clauses:
        digest.update(" ".join(str(literal) for literal in clause).encode())
        digest.update(b"\n")
    return digest.hexdigest()
