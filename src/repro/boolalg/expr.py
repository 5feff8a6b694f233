"""Immutable, hash-consed Boolean expression AST.

Expressions are hashable, structurally comparable trees built from variables,
constants and the operators NOT/AND/OR/XOR.  Convenience constructors perform
cheap local normalisation (flattening nested AND/OR, removing duplicate
operands, constant folding) so that the rest of the library rarely sees
degenerate trees.

Nodes are *interned* (hash-consed): constructing the same expression twice
returns the same object, so structural equality usually reduces to a pointer
comparison and per-node derived data — the structural hash, the support set,
the 2-input gate count and the node count — is computed once and shared by
every consumer (``simplify``, the transformation's ``accept_definition``,
``circuit_from_expressions``, the truth-table memos, ...).  Equality remains
structural with an identity fast path, so expressions that bypass the intern
table still compare correctly.

The node types intentionally mirror the operators whose CNF signatures the
paper enumerates in Section III-A (Eqs. 1--4): NOT, AND, OR, NAND, NOR, XOR
and XNOR.  NAND/NOR/XNOR are represented as ``Not`` wrappers around the base
operator, which keeps the AST minimal without losing the ability to detect
those gates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple, Union
from weakref import KeyedRef

from _weakref import _remove_dead_weakref

BoolLike = Union[bool, int]

#: The global hash-cons table: a weak reference to the canonical node per
#: structural key.  An entry disappears when its node's last reference dies.
_INTERN: Dict[tuple, KeyedRef] = {}


class Expr:
    """Base class of all Boolean expression nodes.

    Instances are immutable; Python's ``&``, ``|``, ``^`` and ``~`` operators
    are overloaded to build new expressions.
    """

    #: ``_hash`` caches the structural hash, ``_support``/``_gate2``/``_nodes``
    #: lazily cache :meth:`support`, :meth:`two_input_gate_count` and
    #: :meth:`node_count`; ``__weakref__`` lets the intern table drop nodes.
    __slots__ = ("_hash", "_support", "_gate2", "_nodes", "__weakref__")

    # -- construction operators -------------------------------------------------
    def __and__(self, other: "Expr") -> "Expr":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, other)

    def __xor__(self, other: "Expr") -> "Expr":
        return Xor(self, other)

    def __invert__(self) -> "Expr":
        return Not(self)

    # -- interface ---------------------------------------------------------------
    def evaluate(self, assignment: Dict[str, BoolLike]) -> bool:
        """Evaluate the expression under a ``{variable name: bool}`` assignment."""
        raise NotImplementedError

    def support(self) -> FrozenSet[str]:
        """Return the set of variable names the expression depends on syntactically."""
        try:
            return self._support
        except AttributeError:
            pass
        result = self._compute_support()
        object.__setattr__(self, "_support", result)
        return result

    def _compute_support(self) -> FrozenSet[str]:
        raise NotImplementedError

    def substitute(self, mapping: Dict[str, "Expr"]) -> "Expr":
        """Return a copy with variables replaced by expressions from ``mapping``."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions."""
        return ()

    # -- generic helpers ---------------------------------------------------------
    def node_count(self) -> int:
        """Total number of AST nodes (shared structure counted repeatedly)."""
        try:
            return self._nodes
        except AttributeError:
            pass
        result = 1 + sum(child.node_count() for child in self.children())
        object.__setattr__(self, "_nodes", result)
        return result

    def depth(self) -> int:
        """Height of the AST (a leaf has depth 0)."""
        kids = self.children()
        if not kids:
            return 0
        return 1 + max(child.depth() for child in kids)

    def two_input_gate_count(self) -> int:
        """Number of 2-input gate equivalents needed to implement the expression.

        An ``n``-ary AND/OR/XOR counts as ``n - 1`` two-input gates; a NOT
        counts as one gate (an inverter).  This is the metric used by the
        paper's Fig. 4 (middle) ops-reduction ablation.
        """
        try:
            return self._gate2
        except AttributeError:
            pass
        if isinstance(self, (Var, Const)):
            result = 0
        elif isinstance(self, Not):
            result = 1 + self.operand.two_input_gate_count()
        else:
            arity_cost = max(len(self.children()) - 1, 0)
            result = arity_cost + sum(c.two_input_gate_count() for c in self.children())
        object.__setattr__(self, "_gate2", result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return str(self)


def _interned(key: tuple):
    """The live canonical node under ``key``, or ``None``."""
    ref = _INTERN.get(key)
    return None if ref is None else ref()


def _forget(ref: KeyedRef) -> None:
    # A node died: drop its entry, unless a newer node already took the key.
    _remove_dead_weakref(_INTERN, ref.key)


def _intern(key: tuple, instance: Expr) -> Expr:
    """Publish ``instance`` under ``key``, returning the canonical winner."""
    ref = KeyedRef(instance, _forget, key)
    winner = _INTERN.setdefault(key, ref)
    if winner is not ref:
        existing = winner()
        if existing is not None:
            return existing
        _INTERN[key] = ref  # the previous node died before its entry went
    return instance


class Const(Expr):
    """A Boolean constant, ``TRUE`` or ``FALSE``."""

    __slots__ = ("value",)

    def __new__(cls, value: BoolLike):
        value = bool(value)
        key = ("c", value)
        existing = _interned(key)
        if existing is not None:
            return existing
        instance = object.__new__(cls)
        object.__setattr__(instance, "value", value)
        object.__setattr__(instance, "_hash", hash(("const", value)))
        return _intern(key, instance)

    def __setattr__(self, *args) -> None:
        raise AttributeError("Const is immutable")

    def evaluate(self, assignment: Dict[str, BoolLike]) -> bool:
        return self.value

    def _compute_support(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "1" if self.value else "0"


TRUE = Const(True)
FALSE = Const(False)


class Var(Expr):
    """A named Boolean variable."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable name must be a non-empty string, got {name!r}")
        key = ("v", name)
        existing = _interned(key)
        if existing is not None:
            return existing
        instance = object.__new__(cls)
        object.__setattr__(instance, "name", name)
        object.__setattr__(instance, "_hash", hash(("var", name)))
        return _intern(key, instance)

    def __setattr__(self, *args) -> None:
        raise AttributeError("Var is immutable")

    def evaluate(self, assignment: Dict[str, BoolLike]) -> bool:
        try:
            return bool(assignment[self.name])
        except KeyError as exc:
            raise KeyError(f"assignment is missing variable {self.name!r}") from exc

    def _compute_support(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


class Not(Expr):
    """Logical negation.  ``Not(Not(x))`` collapses to ``x`` at construction."""

    __slots__ = ("operand",)

    def __new__(cls, operand: Expr):
        if isinstance(operand, Const):
            return FALSE if operand.value else TRUE
        if isinstance(operand, Not):
            return operand.operand
        key = ("~", operand)
        existing = _interned(key)
        if existing is not None:
            return existing
        instance = object.__new__(cls)
        object.__setattr__(instance, "operand", operand)
        object.__setattr__(instance, "_hash", hash(("not", operand)))
        return _intern(key, instance)

    def __setattr__(self, *args) -> None:
        raise AttributeError("Not is immutable")

    def evaluate(self, assignment: Dict[str, BoolLike]) -> bool:
        return not self.operand.evaluate(assignment)

    def _compute_support(self) -> FrozenSet[str]:
        return self.operand.support()

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return Not(self.operand.substitute(mapping))

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Not) and other.operand == self.operand

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"~{_wrap(self.operand)}"


class _NaryOp(Expr):
    """Shared implementation of the flattening n-ary operators AND/OR/XOR."""

    __slots__ = ("operands",)

    _symbol = "?"

    def __setattr__(self, *args) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def _compute_support(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.support()
        return result

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(other) is type(self) and other.operands == self.operands

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        joined = f" {self._symbol} ".join(_wrap(op) for op in self.operands)
        return f"({joined})"


def _new_nary(cls, operands: Tuple[Expr, ...]) -> Expr:
    """Intern an n-ary node with the given (already normalised) operands."""
    key = (cls._symbol, operands)
    existing = _interned(key)
    if existing is not None:
        return existing
    instance = object.__new__(cls)
    object.__setattr__(instance, "operands", operands)
    object.__setattr__(instance, "_hash", hash((cls.__name__, operands)))
    return _intern(key, instance)


def _flatten(cls, operands: Iterable[Expr]) -> Tuple[Expr, ...]:
    """Flatten nested applications of the same n-ary operator."""
    flat = []
    for operand in operands:
        if not isinstance(operand, Expr):
            raise TypeError(f"operands must be Expr, got {type(operand).__name__}")
        if isinstance(operand, cls):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    return tuple(flat)


def _has_complement_pair(seen, seen_set) -> bool:
    """Whether ``seen`` contains some ``x`` together with ``~x``.

    Any complementary pair contains exactly one ``Not``-rooted member (double
    negation is collapsed at construction), so checking the ``Not`` operands
    against the set is equivalent to building ``Not(op)`` per operand.
    """
    for operand in seen:
        if isinstance(operand, Not) and operand.operand in seen_set:
            return True
    return False


class And(_NaryOp):
    """N-ary conjunction with local normalisation.

    Construction rules: nested ANDs are flattened, duplicates removed,
    ``FALSE`` annihilates, ``TRUE`` is dropped, and ``x & ~x`` folds to
    ``FALSE``.  A single surviving operand is returned unwrapped.
    """

    _symbol = "&"

    def __new__(cls, *operands: Expr):
        flat = _flatten(cls, operands)
        seen = []
        seen_set = set()
        for operand in flat:
            if isinstance(operand, Const):
                if not operand.value:
                    return FALSE
                continue
            if operand in seen_set:
                continue
            seen_set.add(operand)
            seen.append(operand)
        if _has_complement_pair(seen, seen_set):
            return FALSE
        if not seen:
            return TRUE
        if len(seen) == 1:
            return seen[0]
        return _new_nary(cls, tuple(seen))

    def evaluate(self, assignment: Dict[str, BoolLike]) -> bool:
        return all(op.evaluate(assignment) for op in self.operands)

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return And(*(op.substitute(mapping) for op in self.operands))


class Or(_NaryOp):
    """N-ary disjunction with local normalisation (dual of :class:`And`)."""

    _symbol = "|"

    def __new__(cls, *operands: Expr):
        flat = _flatten(cls, operands)
        seen = []
        seen_set = set()
        for operand in flat:
            if isinstance(operand, Const):
                if operand.value:
                    return TRUE
                continue
            if operand in seen_set:
                continue
            seen_set.add(operand)
            seen.append(operand)
        if _has_complement_pair(seen, seen_set):
            return TRUE
        if not seen:
            return FALSE
        if len(seen) == 1:
            return seen[0]
        return _new_nary(cls, tuple(seen))

    def evaluate(self, assignment: Dict[str, BoolLike]) -> bool:
        return any(op.evaluate(assignment) for op in self.operands)

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return Or(*(op.substitute(mapping) for op in self.operands))


class Xor(_NaryOp):
    """N-ary exclusive OR with local normalisation.

    Constants are folded into a parity flag, duplicate operands cancel in
    pairs, and the parity flag is realised by negating the final expression
    when needed.
    """

    _symbol = "^"

    def __new__(cls, *operands: Expr):
        flat = _flatten(cls, operands)
        parity = False
        counts: Dict[Expr, int] = {}
        order = []
        for operand in flat:
            if isinstance(operand, Const):
                parity ^= operand.value
                continue
            if isinstance(operand, Not):
                # ~x == x ^ 1 inside an XOR chain.
                parity ^= True
                operand = operand.operand
            if operand not in counts:
                counts[operand] = 0
                order.append(operand)
            counts[operand] += 1
        survivors = [op for op in order if counts[op] % 2 == 1]
        if not survivors:
            return TRUE if parity else FALSE
        if len(survivors) == 1:
            core: Expr = survivors[0]
        else:
            core = _new_nary(cls, tuple(survivors))
        return Not(core) if parity else core

    def evaluate(self, assignment: Dict[str, BoolLike]) -> bool:
        result = False
        for operand in self.operands:
            result ^= operand.evaluate(assignment)
        return result

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return Xor(*(op.substitute(mapping) for op in self.operands))


# -- derived operators ---------------------------------------------------------
def nand_(*operands: Expr) -> Expr:
    """NAND of the operands."""
    return Not(And(*operands))


def nor_(*operands: Expr) -> Expr:
    """NOR of the operands."""
    return Not(Or(*operands))


def xnor_(*operands: Expr) -> Expr:
    """XNOR (even parity) of the operands."""
    return Not(Xor(*operands))


def ite(cond: Expr, then: Expr, else_: Expr) -> Expr:
    """If-then-else: ``(cond & then) | (~cond & else_)``."""
    return Or(And(cond, then), And(Not(cond), else_))


def variables(names: Iterable[str]) -> Tuple[Var, ...]:
    """Construct a tuple of :class:`Var` from an iterable of names."""
    return tuple(Var(name) for name in names)


def _wrap(expr: Expr) -> str:
    """Parenthesise composite operands when printing."""
    return str(expr)
