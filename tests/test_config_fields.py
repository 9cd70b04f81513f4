"""The settable surface of the engines. Each config dataclass holds only the
fields that some caller sets; the paper's fixed hyper-parameters are module
constants. A new field is a new knob, so it has to be added here on purpose."""

from dataclasses import fields

import pytest

from tsgp.expr import PrimitiveSet
from tsgp.sampler import SearchConfig
from tsgp.slim import SlimConfig
from tsgp.stdgp import GPConfig

FIELDS = {
    GPConfig: ("pop_size", "generations", "crossover_prob", "mutation_prob",
               "max_depth", "init_depth_min", "init_depth_max", "selection"),
    SlimConfig: ("pop_size", "generations", "init_depth_min",
                 "init_depth_max"),
    SearchConfig: ("sd_desired", "pop_size", "generations", "init_depth_min",
                   "init_depth_max"),
    PrimitiveSet: ("n_variables",),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_config_fields_are_pinned(cls):
    assert tuple(f.name for f in fields(cls)) == FIELDS[cls]
