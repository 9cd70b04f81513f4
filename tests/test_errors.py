"""The exit-code policy: ``tsgp.errors`` holds the only error types, and
``cli.main`` catches them without loading NumPy, so ``--threads`` and
``--deterministic`` are in the environment before NumPy starts its BLAS."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tsgp
from tsgp import errors, expr

SRC = str(Path(tsgp.__file__).resolve().parents[1])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_only_the_exit_code_errors_are_defined():
    defined = set()
    for info in pkgutil.walk_packages(tsgp.__path__, "tsgp."):
        module = importlib.import_module(info.name)
        defined |= {f"{info.name}.{obj.__qualname__}"
                    for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == info.name}
    assert defined == {"tsgp.errors.DataError", "tsgp.errors.NumericError",
                       "tsgp.expr.ParseError"}
    assert issubclass(expr.ParseError, errors.DataError)


def _run(script, *args):
    """Run ``script`` in a fresh interpreter with no BLAS thread variable
    set (this suite's conftest sets them to 1); returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_numpy_unloaded():
    out = _run("import sys, tsgp.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


THREADS_AFTER_GEMM = """
import os, sys
from tsgp.cli import main
assert main(sys.argv[2:] + ["gen-corpus", "--problems", "1", "--pop", "5",
            "--gens", "0", "--rows", "10", "--m-sem", "2",
            "--out", sys.argv[1]]) == 0
import numpy as np
a = np.ones((800, 800))
a @ a
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="no /proc/self/task to count OS threads")
@pytest.mark.parametrize("flags", [["--threads", "1"], ["--deterministic"]],
                         ids=["threads 1", "deterministic"])
def test_thread_flags_cap_blas(tmp_path, flags):
    out = _run(THREADS_AFTER_GEMM, str(tmp_path / "corpus.jsonl"), *flags)
    assert out.split()[-1] == "1"
