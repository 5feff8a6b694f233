"""Reference oracle: Reduced Ordered Binary Decision Diagrams (ROBDDs).

The BDD manager provides canonical representations of Boolean functions, so
semantic equality reduces to node-id equality.  The library's semantic
queries enumerate truth tables (:mod:`repro.boolalg.truth_table`, supports up
to 20 variables); the tests use the BDD as an independent oracle against
them, and the seed-transform oracle (:mod:`tests.oracles.transform`) uses it
for wide supports.

The implementation follows the classic Bryant construction: a unique table
keyed by ``(level, low, high)``, an ``apply`` cache per operation, and
variable order fixed at manager construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolalg.expr import And, Const, Expr, Not, Or, Var, Xor

#: Terminal node ids.
FALSE_NODE = 0
TRUE_NODE = 1


class BDD:
    """A BDD manager over a fixed, ordered list of variable names."""

    def __init__(self, var_order: Sequence[str]) -> None:
        self._order: List[str] = list(var_order)
        if len(set(self._order)) != len(self._order):
            raise ValueError("variable order contains duplicates")
        self._level: Dict[str, int] = {name: i for i, name in enumerate(self._order)}
        # node id -> (level, low, high); terminals are implicit.
        self._nodes: List[Tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple[str, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}

    # -- basic properties --------------------------------------------------------
    @property
    def true(self) -> int:
        """Node id of the constant-1 function."""
        return TRUE_NODE

    @property
    def false(self) -> int:
        """Node id of the constant-0 function."""
        return FALSE_NODE

    @property
    def var_order(self) -> List[str]:
        """The variable order used by this manager."""
        return list(self._order)

    def node_count(self) -> int:
        """Total number of (non-terminal plus terminal) nodes allocated so far."""
        return len(self._nodes)

    # -- node construction -------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node_id = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node_id
        return node_id

    def var(self, name: str) -> int:
        """Return the node for the projection function of variable ``name``."""
        if name not in self._level:
            raise KeyError(f"variable {name!r} is not in the manager's order")
        return self._mk(self._level[name], FALSE_NODE, TRUE_NODE)

    # -- operations ---------------------------------------------------------------
    def negate(self, u: int) -> int:
        """Return the node for the complement of ``u``."""
        if u == FALSE_NODE:
            return TRUE_NODE
        if u == TRUE_NODE:
            return FALSE_NODE
        cached = self._not_cache.get(u)
        if cached is not None:
            return cached
        level, low, high = self._nodes[u]
        result = self._mk(level, self.negate(low), self.negate(high))
        self._not_cache[u] = result
        return result

    def _apply(self, op: str, u: int, v: int) -> int:
        terminal = _terminal_apply(op, u, v)
        if terminal is not None:
            return terminal
        key = (op, u, v) if op != "and" and op != "or" and op != "xor" else (op, min(u, v), max(u, v))
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        u_level = self._nodes[u][0] if u > TRUE_NODE else len(self._order)
        v_level = self._nodes[v][0] if v > TRUE_NODE else len(self._order)
        level = min(u_level, v_level)
        u_low, u_high = (self._nodes[u][1], self._nodes[u][2]) if u_level == level else (u, u)
        v_low, v_high = (self._nodes[v][1], self._nodes[v][2]) if v_level == level else (v, v)
        result = self._mk(
            level,
            self._apply(op, u_low, v_low),
            self._apply(op, u_high, v_high),
        )
        self._apply_cache[key] = result
        return result

    def apply_and(self, u: int, v: int) -> int:
        """Conjunction of two BDD nodes."""
        return self._apply("and", u, v)

    def apply_or(self, u: int, v: int) -> int:
        """Disjunction of two BDD nodes."""
        return self._apply("or", u, v)

    def apply_xor(self, u: int, v: int) -> int:
        """Exclusive-or of two BDD nodes."""
        return self._apply("xor", u, v)

    def ite(self, cond: int, then: int, else_: int) -> int:
        """If-then-else composition of three BDD nodes."""
        return self.apply_or(
            self.apply_and(cond, then), self.apply_and(self.negate(cond), else_)
        )

    # -- conversion ----------------------------------------------------------------
    def from_expr(self, expr: Expr) -> int:
        """Build the BDD node for an expression (its support must be in the order)."""
        if isinstance(expr, Const):
            return TRUE_NODE if expr.value else FALSE_NODE
        if isinstance(expr, Var):
            return self.var(expr.name)
        if isinstance(expr, Not):
            return self.negate(self.from_expr(expr.operand))
        if isinstance(expr, And):
            result = TRUE_NODE
            for operand in expr.operands:
                result = self.apply_and(result, self.from_expr(operand))
            return result
        if isinstance(expr, Or):
            result = FALSE_NODE
            for operand in expr.operands:
                result = self.apply_or(result, self.from_expr(operand))
            return result
        if isinstance(expr, Xor):
            result = FALSE_NODE
            for operand in expr.operands:
                result = self.apply_xor(result, self.from_expr(operand))
            return result
        raise TypeError(f"unsupported expression node: {type(expr).__name__}")

    # -- queries --------------------------------------------------------------------
    def evaluate(self, u: int, assignment: Dict[str, bool]) -> bool:
        """Evaluate node ``u`` under a complete assignment."""
        while u > TRUE_NODE:
            level, low, high = self._nodes[u]
            name = self._order[level]
            u = high if assignment.get(name, False) else low
        return u == TRUE_NODE

    def count_solutions(self, u: int, num_vars: Optional[int] = None) -> int:
        """Count satisfying assignments of ``u`` over ``num_vars`` variables.

        ``num_vars`` defaults to the full manager order length.
        """
        total_vars = len(self._order) if num_vars is None else num_vars
        cache: Dict[int, int] = {}

        def count(node: int, level: int) -> int:
            if node == FALSE_NODE:
                return 0
            if node == TRUE_NODE:
                return 2 ** (total_vars - level)
            key = node
            if key in cache:
                # Scale the cached count (computed at the node's own level).
                node_level = self._nodes[node][0]
                return cache[key] * 2 ** (node_level - level)
            node_level, low, high = self._nodes[node]
            below = count(low, node_level + 1) + count(high, node_level + 1)
            cache[key] = below
            return below * 2 ** (node_level - level)

        return count(u, 0)

    def support_of(self, u: int) -> List[str]:
        """Variables that node ``u`` actually depends on."""
        seen = set()
        names = set()
        stack = [u]
        while stack:
            node = stack.pop()
            if node <= TRUE_NODE or node in seen:
                continue
            seen.add(node)
            level, low, high = self._nodes[node]
            names.add(self._order[level])
            stack.append(low)
            stack.append(high)
        return sorted(names, key=self._order.index)


def _terminal_apply(op: str, u: int, v: int) -> Optional[int]:
    """Resolve an apply call when at least one operand is a terminal."""
    if op == "and":
        if u == FALSE_NODE or v == FALSE_NODE:
            return FALSE_NODE
        if u == TRUE_NODE:
            return v
        if v == TRUE_NODE:
            return u
        if u == v:
            return u
    elif op == "or":
        if u == TRUE_NODE or v == TRUE_NODE:
            return TRUE_NODE
        if u == FALSE_NODE:
            return v
        if v == FALSE_NODE:
            return u
        if u == v:
            return u
    elif op == "xor":
        if u == v:
            return FALSE_NODE
        if u == FALSE_NODE:
            return v
        if v == FALSE_NODE:
            return u
        if u == TRUE_NODE and v == TRUE_NODE:
            return FALSE_NODE
    else:
        raise ValueError(f"unknown BDD operation {op!r}")
    return None
