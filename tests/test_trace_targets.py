"""The benchmark patches ``tsgp`` names from outside ``src/``: its span
tracer wraps functions by name, and its generation clock replaces each
engine module's ``RunTrace``. These tests fail when a refactor removes or
renames a traced function, or stops looking such a name up through its
module global."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tsgp import bench, corpus, sampler, slim, stdgp, trace

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for owner, attr, name, _ in tracing.TARGETS:
        assert callable(owner.__dict__[attr]), name


def test_installed_wraps_and_restores(tracing):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        for (owner, attr, _, _), fn in zip(tracing.TARGETS, originals):
            assert owner.__dict__[attr].__wrapped__ is fn
    assert [owner.__dict__[attr]
            for owner, attr, _, _ in tracing.TARGETS] == originals


@pytest.fixture(scope="module")
def dataset():
    prob = corpus.gen_synthetic_problem(4, 60, 0.1, np.random.default_rng(3))
    return bench.make_dataset("traced", prob.X, prob.y, 3)


def test_engines_call_traced_names(tracing, tiny_model, dataset):
    tracer = tracing.Tracer()
    with tracer.installed():
        for method in ("stdgp", "slim", "tsgp"):
            bench.run_method(method, dataset, 4, generations=2, pop_size=10,
                             model=tiny_model)
    for name in ("bench.run_method", "stdgp.run_stdgp",
                 "stdgp.subtree_crossover", "stdgp.subtree_mutation",
                 "slim.run_slim", "slim.inflate", "slim.deflate",
                 "sampler.run_tsgp", "sampler.sample_tokens_batch",
                 "expr.parse_prefix", "expr.evaluate"):
        assert tracer.count(name) > 0, name


@pytest.mark.parametrize("method,module", [("stdgp", stdgp), ("slim", slim),
                                           ("tsgp", sampler)])
def test_engine_builds_trace_from_own_module(monkeypatch, tiny_model,
                                             dataset, method, module):
    class Marked(trace.RunTrace):
        pass

    monkeypatch.setattr(module, "RunTrace", Marked)
    tr = bench.run_method(method, dataset, 4, generations=2, pop_size=10,
                          model=tiny_model)
    assert type(tr) is Marked
