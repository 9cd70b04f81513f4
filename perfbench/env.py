"""Process environment shared by every benchmark entry point.

Import this before NumPy: it pins the BLAS/OpenMP thread count and puts the
checkout's ``src/`` first on ``sys.path`` so the benchmark measures the code
of the checkout it sits in. Exits with code 2 when there is no ``src/tsgp``
to measure.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHECKPOINT = BENCH_DIR / "desk_model.tsgp"
CHECKPOINT_META = BENCH_DIR / "desk_model.json"
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

if "numpy" in sys.modules:
    raise RuntimeError("env must be imported before numpy")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

if not (SRC / "tsgp" / "__init__.py").is_file():
    print(f"error: no tsgp sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
