"""Semantic vectors, semantic distance, RMSE and standardization."""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def sample_standard_inputs(m_sem: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (m_sem, d) matrix of independent standard-normal inputs."""
    if m_sem < 2:
        raise ValueError("m_sem must be >= 2")
    return rng.standard_normal((m_sem, d))


def _vals(s) -> np.ndarray:
    return np.asarray(s, dtype=np.float64)


def sd_on_test(parent: np.ndarray, child: np.ndarray) -> float:
    """Parent-offspring semantic distance between two outputs on the test
    inputs, as the engines log it: NaN when either output is non-finite.

    The norm is ``math.sqrt(d.dot(d))``: for a 1-D float64 ``d`` that is
    exactly what ``np.linalg.norm(d)`` computes, without its Python-level
    wrapper.
    """
    if not (np.isfinite(parent).all() and np.isfinite(child).all()):
        return math.nan
    d = parent - child
    return math.sqrt(d.dot(d))


def rmse(y, y_hat) -> float:
    """Root mean squared error, ||Y - Yhat||_2 / sqrt(m).

    Non-finite predictions yield +inf (worst fitness) rather than NaN. The
    norm is taken as in ``sd_on_test``.
    """
    a, b = _vals(y), _vals(y_hat)
    if a.shape != b.shape:
        raise ValueError(f"lengths {a.shape} vs {b.shape}")
    if not np.isfinite(b).all():
        return math.inf
    d = a - b
    return math.sqrt(d.dot(d)) / math.sqrt(len(a))


def standardize(matrix: np.ndarray) -> np.ndarray:
    """Scale columns to zero mean, unit population std; 1-D input is
    treated as a single column."""
    arr = np.asarray(matrix, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[:, None]
    # a repeated inexact value (0.1) has a population std of about 1e-17,
    # not 0, so constancy is tested on the range
    constant = np.ptp(arr, axis=0) == 0.0
    if constant.any():
        raise DataError(f"column {int(np.flatnonzero(constant)[0])} is "
                        "constant")
    mean = arr.mean(axis=0)
    std = arr.std(axis=0)  # population convention (divide by n)
    out = (arr - mean) / std
    if squeeze:
        out = out[:, 0]
    return out
