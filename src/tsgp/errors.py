"""The two errors a run can end with, one class per exit code.

``cli.main`` maps ``DataError`` to exit 2 and ``NumericError`` to exit 3.
This module imports nothing, so ``main`` catches both without loading
NumPy before ``--threads`` caps its BLAS pool.
"""


class DataError(Exception):
    """An input file, dataset, checkpoint or download is not what the run
    needs (exit 2)."""


class NumericError(Exception):
    """Training diverged or a verification check failed (exit 3)."""
