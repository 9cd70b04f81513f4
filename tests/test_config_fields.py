"""The settable surface of the engines. Each config dataclass holds only the
fields that some caller sets; the paper's fixed hyper-parameters are module
constants. A new field or engine parameter is a new knob, so it has to be
added here on purpose, and some call in ``src/`` or ``perfbench/`` has to
set a new field. So does a new defaulted parameter of any function in
``src/``: the count of settable values is pinned too."""

import ast
import inspect
from dataclasses import fields
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from tsgp.expr import PrimitiveSet
from tsgp.model.transformer import Hyperparams, SdTransformer
from tsgp.sampler import SearchConfig, run_tsgp
from tsgp.slim import SlimConfig, run_slim
from tsgp.stdgp import GPConfig, evolve, run_stdgp

ROOT = Path(__file__).resolve().parents[1]

FIELDS = {
    GPConfig: ("pop_size", "generations", "selection"),
    SlimConfig: ("pop_size", "generations"),
    SearchConfig: ("sd_desired", "pop_size", "generations"),
    PrimitiveSet: ("n_variables",),
    Hyperparams: ("d_model", "n_heads", "n_encoder_layers", "n_decoder_layers",
                  "lr", "weight_decay", "epochs", "batch_size"),
}

# settable values: the parameters with a default of every function in
# ``src/``, and the fields of the five config classes
SETTABLE = {"defaulted parameters": 50, "config fields": 17}
CONFIG_CLASSES = (GPConfig, SlimConfig, SearchConfig, PrimitiveSet,
                  Hyperparams)

# each engine entry point, the loop they share and the model: its parameters
# in order, each with its default (``inspect.Parameter.empty`` for none)
NONE = inspect.Parameter.empty
SIGNATURES = {
    run_stdgp: {"config": NONE, "dataset": NONE, "rng": NONE,
                "on_generation": None, "log_variations": True},
    run_slim: {"config": NONE, "dataset": NONE, "rng": NONE},
    run_tsgp: {"model": NONE, "dataset": NONE, "config": NONE, "rng": NONE},
    evolve: {"trace": NONE, "config": NONE, "dataset": NONE, "rng": NONE,
             "prims": NONE, "make": NONE, "vary": NONE, "fill_test": NONE,
             "log_variations": True, "on_generation": None},
    SdTransformer: {"hyper": NONE, "vocab": NONE, "rng": None,
                    "params": None, "dtype": np.float64},
}


@cache
def _set_by_calls() -> dict:
    """class -> the fields that some call of it in ``src/`` or ``perfbench/``
    passes, by keyword or by position."""
    by_name = {cls.__name__: cls for cls in FIELDS}
    found = {cls: set() for cls in FIELDS}
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "perfbench").rglob("*.py"))
    for path in files:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in by_name:
                cls = by_name[name]
                found[cls].update(f.name for f in fields(cls)[:len(call.args)])
                found[cls].update(kw.arg for kw in call.keywords if kw.arg)
    return found


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_config_fields_are_pinned(cls):
    assert tuple(f.name for f in fields(cls)) == FIELDS[cls]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_every_field_has_a_setter(cls):
    unset = [f.name for f in fields(cls) if f.name not in _set_by_calls()[cls]]
    assert unset == [], "no caller sets it: make it a module constant"


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__name__)
def test_engine_signatures_are_pinned(fn):
    params = inspect.signature(fn).parameters.values()
    assert ([(p.name, p.default) for p in params]
            == list(SIGNATURES[fn].items()))


def test_settable_value_count_is_pinned():
    defaulted = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                defaulted += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    assert {"defaulted parameters": defaulted,
            "config fields": sum(len(fields(cls))
                                 for cls in CONFIG_CLASSES)} == SETTABLE
