"""Expression trees over {+, -, *, protected /}, variables and a constant grid.

Trees are immutable: nodes carry their token symbol and a tuple of children.
The textual form used everywhere (logs, corpus files, model vocabulary) is the
space-separated prefix enumeration, e.g. ``ADD v1 MUL v2 C+0.3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

OPERATORS = ("ADD", "SUB", "MUL", "PDIV")
CONSTANT_VALUES = tuple(round(-0.5 + 0.1 * i, 1) for i in range(11))
MAX_DEPTH = 17  # default depth cap of offspring trees, in every engine

FULL = "full"
GROW = "grow"


class ParseError(DataError):
    """A token sequence that is not the prefix form of one tree."""


def const_token(value: float) -> str:
    return f"C{value:+.1f}"


@dataclass(frozen=True)
class PrimitiveSet:
    """``OPERATORS``, variables v1..vd and the ``CONSTANT_VALUES`` grid."""

    n_variables: int = 4

    @cached_property
    def variables(self) -> tuple:
        return tuple(f"v{i}" for i in range(1, self.n_variables + 1))

    @cached_property
    def constants(self) -> tuple:
        return tuple(const_token(v) for v in CONSTANT_VALUES)

    @cached_property
    def terminals(self) -> tuple:
        return self.variables + self.constants


class Node:
    """One tree node; operators have exactly two children, terminals none.

    ``n_nodes`` and ``height`` (edges on the longest downward path) are set
    when the node is built, from its children's, so they cost O(1) to read.
    Nodes are immutable by convention: nothing assigns to a built node, so
    trees share subtrees freely. Equality and hashing are structural.
    """

    __slots__ = ("symbol", "children", "n_nodes", "height")

    def __init__(self, symbol: str, children: tuple = ()):
        self.symbol = symbol
        self.children = children
        if symbol in OPERATORS:
            if len(children) != 2:
                raise ValueError(
                    f"operator {symbol} needs 2 children, got {len(children)}")
            left, right = children
            self.n_nodes = 1 + left.n_nodes + right.n_nodes
            lh, rh = left.height, right.height
            self.height = 1 + (lh if lh > rh else rh)
        elif children:
            raise ValueError(f"terminal {symbol} cannot have children")
        else:
            self.n_nodes = 1
            self.height = 0

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Node:
            return NotImplemented
        return self.symbol == other.symbol and self.children == other.children

    def __hash__(self):
        return hash((self.symbol, self.children))

    def __repr__(self):
        return f"Node(symbol={self.symbol!r}, children={self.children!r})"


def size(tree: Node) -> int:
    """Number of nodes."""
    return tree.n_nodes


def depth(tree: Node) -> int:
    """Edges on the longest root-to-leaf path; a single node has depth 0."""
    return tree.height


def serialize_prefix(tree: Node) -> list:
    """Preorder token enumeration (root, left, right)."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node.symbol)
        # push right first so left is visited first
        stack.extend(reversed(node.children))
    return out


def to_string(tree: Node) -> str:
    return " ".join(serialize_prefix(tree))


def parse_prefix(tokens, prims: PrimitiveSet) -> Node:
    """Parse a preorder token sequence back into the unique tree it encodes."""
    pos = 0

    def build():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("tokens exhausted with open operator slots")
        tok = tokens[pos]
        pos += 1
        if tok in OPERATORS:
            left = build()
            right = build()
            return Node(tok, (left, right))
        if tok in prims.terminals:
            return Node(tok)
        raise ParseError(f"unknown token {tok!r}")

    tree = build()
    if pos != len(tokens):
        raise ParseError(f"{len(tokens) - pos} tokens left after tree closed")
    return tree


def _leaf(sym: str, inputs: np.ndarray):
    """A variable leaf's input column, or a constant leaf's value."""
    if sym[0] == "v":
        idx = int(sym[1:])
        d = inputs.shape[1]
        if not 1 <= idx <= d:
            raise DataError(f"variable {sym} out of range for d={d}")
        return inputs[:, idx - 1]
    return np.float64(sym[1:])


def evaluate(tree: Node, inputs: np.ndarray) -> np.ndarray:
    """``evaluate_many`` of one tree; the benchmark traces this name."""
    return evaluate_many([tree], inputs)[0]


_UFUNCS = {"ADD": np.add, "SUB": np.subtract, "MUL": np.multiply}


def evaluate_many(trees, inputs: np.ndarray) -> list:
    """Each tree's output on an (m, d) input matrix, shape (m,), in one pass.

    Each distinct node is computed once. The walk does not descend into an
    operator node it has reached before (the same object, shared by several
    trees or within one), and leaves with the same symbol share one row.
    Operator nodes are then computed in order of height: one gather of the
    children's rows per height, one NumPy call per (height, operator) group.
    Each element is rounded on its own, so a row holds exactly what that
    node alone evaluates to. A denominator that is exactly zero yields 1.
    Overflow is not clamped (fitness policy lives in :mod:`tsgp.semantics`),
    and one ``np.errstate`` covers the batch, so no warning escapes. Every
    output is a copy of its row, so keeping one does not keep the batch
    alive.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a 2-D matrix")
    row = {}     # id(node) -> row of ``values``; operators get theirs below
    leaves = {}  # leaf symbol -> (row, value)
    levels = {}  # height -> {operator: nodes}
    stack = list(trees)
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        key = id(node)
        if key in row:
            continue
        children = node.children
        if children:
            row[key] = None
            level = levels.get(node.height)
            if level is None:
                level = levels[node.height] = {}
            level.setdefault(node.symbol, []).append(node)
            push(children)
        else:
            hit = leaves.get(node.symbol)
            if hit is None:
                hit = leaves[node.symbol] = (len(leaves),
                                             _leaf(node.symbol, inputs))
            row[key] = hit[0]

    # rows: the leaves, then each height's nodes grouped by operator; a
    # node's children sit at lower heights, so they are computed first
    n = len(leaves)
    plan = []
    for height in sorted(levels):
        nodes, spans = [], []
        for op, group in levels[height].items():
            spans.append((op, len(nodes), len(nodes) + len(group)))
            nodes += group
        row.update(zip(map(id, nodes), range(n, n + len(nodes))))
        plan.append((n, nodes, spans))
        n += len(nodes)
    values = np.empty((n, inputs.shape[0]))
    for r, value in leaves.values():
        values[r] = value
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start, nodes, spans in plan:
            a = values[[row[id(node.children[0])] for node in nodes]]
            b = values[[row[id(node.children[1])] for node in nodes]]
            for op, i, j in spans:
                out = values[start + i:start + j]
                if op == "PDIV":  # exact-zero denominator -> 1
                    out.fill(1.0)
                    np.divide(a[i:j], b[i:j], out=out, where=b[i:j] != 0.0)
                else:
                    _UFUNCS[op](a[i:j], b[i:j], out=out)
    return [values[row[id(tree)]].copy() for tree in trees]


def random_tree(method: str, depth_min: int, depth_max: int,
                prims: PrimitiveSet, rng: np.random.Generator) -> Node:
    """Generate a random tree; the target depth is uniform in [depth_min, depth_max].

    FULL places every leaf at exactly the sampled depth. GROW may stop earlier
    once depth_min is reached, choosing a terminal with probability
    |terminals| / (|terminals| + |operators|).
    """
    if not 0 <= depth_min <= depth_max:
        raise ValueError("need 0 <= depth_min <= depth_max")
    height = int(rng.integers(depth_min, depth_max + 1))
    terminals = prims.terminals
    t_ratio = len(terminals) / (len(terminals) + len(OPERATORS))

    def gen(d: int) -> Node:
        if d == height:
            return Node(terminals[rng.integers(len(terminals))])
        if method == GROW and d >= depth_min and rng.random() < t_ratio:
            return Node(terminals[rng.integers(len(terminals))])
        op = OPERATORS[rng.integers(len(OPERATORS))]
        return Node(op, (gen(d + 1), gen(d + 1)))

    return gen(0)


def ramped_half_and_half(n: int, depth_min: int, depth_max: int,
                         prims: PrimitiveSet, rng: np.random.Generator) -> list:
    """Population initialization: per individual, FULL or GROW with equal odds."""
    return [
        random_tree(FULL if rng.random() < 0.5 else GROW, depth_min, depth_max, prims, rng)
        for _ in range(n)
    ]
