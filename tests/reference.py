"""Test-side helpers with no caller in ``tsgp``: parsing a tree from its
text form, reading the trace CSVs back, the recursive tree evaluator that
is the oracle of ``expr.evaluate_many``, the uncached SLIM evaluation built
on it, and the ``np.linalg.norm`` forms of ``semantics.rmse`` and
``sd_on_test``."""

from __future__ import annotations

import csv
import math

import numpy as np

from tsgp import expr
from tsgp.expr import Node, PrimitiveSet
from tsgp.slim import SlimIndividual, sigmoid
from tsgp.trace import RunTrace


def from_string(text: str) -> Node:
    """The tree of a space-separated prefix string over the default
    primitives (v1..v4 and the constant grid)."""
    return expr.parse_prefix(text.split(), PrimitiveSet())


def reference_evaluate(tree: Node, inputs: np.ndarray) -> np.ndarray:
    """The evaluator as first written: a recursive walk with full-length
    constant arrays and one ``np.errstate`` per operator node."""
    m = inputs.shape[0]

    def rec(node: Node) -> np.ndarray:
        if not node.children:
            if node.symbol.startswith("v"):
                return inputs[:, int(node.symbol[1:]) - 1]
            return np.full(m, float(node.symbol[1:]))
        a, b = rec(node.children[0]), rec(node.children[1])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if node.symbol == "ADD":
                return a + b
            if node.symbol == "SUB":
                return a - b
            if node.symbol == "MUL":
                return a * b
            out = np.ones(m)
            np.divide(a, b, out=out, where=b != 0.0)
            return out

    return rec(tree)


def slim_evaluate(ind: SlimIndividual, X: np.ndarray) -> np.ndarray:
    """Full (non-cached) evaluation on arbitrary inputs."""
    out = reference_evaluate(ind.base, X)
    for b in ind.blocks:
        out = out + b.ms * (sigmoid(reference_evaluate(b.r1, X))
                            - sigmoid(reference_evaluate(b.r2, X)))
    return out


def rmse_norm(y, y_hat) -> float:
    """``semantics.rmse`` through ``np.linalg.norm``."""
    a = np.asarray(y, dtype=np.float64)
    b = np.asarray(y_hat, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        return math.inf
    return float(np.linalg.norm(a - b) / np.sqrt(len(a)))


def sd_norm(sp: np.ndarray, sc: np.ndarray) -> float:
    """``semantics.sd_on_test`` of two test outputs, through
    ``np.linalg.norm``."""
    if not (np.isfinite(sp).all() and np.isfinite(sc).all()):
        return math.nan
    return float(np.linalg.norm(sp - sc))


def read_trace_csv(path) -> RunTrace:
    """The per-generation records of a ``write_trace_csv`` file."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"empty trace file {path}")
    trace = RunTrace(method=rows[0]["method"], seed=int(rows[0]["seed"]))
    for r in rows:
        trace.record(int(r["generation"]), float(r["best_train_rmse"]),
                     int(r["best_size"]))
    return trace


def read_variation_csv(path, trace: RunTrace):
    """Append the records of a ``write_variation_csv`` file to ``trace``."""
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            trace.log_variation(int(r["generation"]), int(r["parent_size"]),
                                int(r["offspring_size"]), float(r["sd_test"]),
                                bool(int(r["structurally_different"])))
