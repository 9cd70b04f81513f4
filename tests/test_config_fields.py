"""The settable surface of the engines. Each config dataclass holds only the
fields that some caller sets; the paper's fixed hyper-parameters are module
constants. A new field is a new knob, so it has to be added here on purpose,
and some call in ``src/`` or ``perfbench/`` has to set it."""

import ast
from dataclasses import fields
from functools import cache
from pathlib import Path

import pytest

from tsgp.expr import PrimitiveSet
from tsgp.sampler import SearchConfig
from tsgp.slim import SlimConfig
from tsgp.stdgp import GPConfig

ROOT = Path(__file__).resolve().parents[1]

FIELDS = {
    GPConfig: ("pop_size", "generations", "selection"),
    SlimConfig: ("pop_size", "generations"),
    SearchConfig: ("sd_desired", "pop_size", "generations"),
    PrimitiveSet: ("n_variables",),
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
