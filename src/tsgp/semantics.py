"""Semantic vectors, semantic distance, RMSE and standardization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr


class SemanticsError(Exception):
    pass


class LengthMismatchError(SemanticsError):
    pass


class ConstantColumnError(SemanticsError):
    pass


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column mean and population standard deviation."""

    mean: np.ndarray
    std: np.ndarray


def sample_standard_inputs(m_sem: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (m_sem, d) matrix of independent standard-normal inputs."""
    if m_sem < 2:
        raise ValueError("m_sem must be >= 2")
    return rng.standard_normal((m_sem, d))


def semantics_of(tree: expr.Node, points: np.ndarray) -> np.ndarray:
    """Semantics of a tree on the given input sample; never raises on overflow."""
    return expr.evaluate(tree, points)


def _vals(s) -> np.ndarray:
    return np.asarray(s, dtype=np.float64)


def sd_on_test(parent, child, X_test) -> float:
    """Parent-offspring semantic distance on the test inputs, as the engines
    log it: NaN when either output is non-finite.

    ``parent`` and ``child`` are engine individuals; ``semantics_on_test``
    evaluates each at most once per run, however many children it has.
    """
    sp = parent.semantics_on_test(X_test)
    sc = child.semantics_on_test(X_test)
    if not (np.isfinite(sp).all() and np.isfinite(sc).all()):
        return math.nan
    return float(np.linalg.norm(sp - sc))


def rmse(y, y_hat) -> float:
    """Root mean squared error, ||Y - Yhat||_2 / sqrt(m).

    Non-finite predictions yield +inf (worst fitness) rather than NaN.
    """
    a, b = _vals(y), _vals(y_hat)
    if a.shape != b.shape:
        raise LengthMismatchError(f"lengths {a.shape} vs {b.shape}")
    if not np.all(np.isfinite(b)):
        return float("inf")
    return float(np.linalg.norm(a - b) / np.sqrt(len(a)))


def standardize(matrix: np.ndarray, params: StandardizationParams = None):
    """Scale columns to zero mean, unit population std.

    When ``params`` is given, applies it; otherwise fits on the data.
    Returns (transformed, params). 1-D input is treated as a single column.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[:, None]
    if params is None:
        mean = arr.mean(axis=0)
        std = arr.std(axis=0)  # population convention (divide by n)
        if np.any(std == 0.0):
            bad = int(np.flatnonzero(std == 0.0)[0])
            raise ConstantColumnError(f"column {bad} is constant")
        params = StandardizationParams(mean=mean, std=std)
    out = (arr - params.mean) / params.std
    if squeeze:
        out = out[:, 0]
    return out, params
