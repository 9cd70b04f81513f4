import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsgp import bench, expr, semantics, slim
from tsgp.slim import (Block, SlimConfig, add_new_blocks, deflate,
                       fill_test_semantics, inflate, make_individuals,
                       run_slim, sigmoid)

from reference import from_string, reference_evaluate, slim_evaluate


class _ToyDataset:
    def __init__(self, seed=0, m=50):
        rng = np.random.default_rng(seed)
        self.X_train = rng.standard_normal((m, 4))
        self.X_test = rng.standard_normal((m, 4))
        y = self.X_train[:, 0] * self.X_train[:, 1]
        self.y_train = semantics.standardize(y)
        # the test target takes the train target's scaling
        self.y_test = ((self.X_test[:, 0] * self.X_test[:, 1] - y.mean())
                       / y.std())
        self.seed = seed


@pytest.fixture
def ds():
    return _ToyDataset()


def _grown(ind, prims, rng, ds):
    """``inflate(ind)`` with its new block evaluated, as ``run_slim`` does
    once the generation is built."""
    child = inflate(ind, prims, rng)
    add_new_blocks([(ind, child)], ds.X_train, ds.y_train)
    return child


def _contribution(block, X):
    return slim._contributions([block], X)[0]


class TestBlocks:
    def test_sigmoid_range(self):
        t = np.array([-1e4, -1.0, 0.0, 1.0, 1e4])
        s = sigmoid(t)
        assert np.all((s >= 0) & (s <= 1))
        assert s[2] == 0.5

    def test_zero_ms_contribution(self, ds):
        b = Block(ms=0.0, r1=from_string("v1"), r2=from_string("v2"))
        np.testing.assert_array_equal(_contribution(b, ds.X_train), 0.0)

    def test_identical_randoms_contribute_zero(self, ds):
        b = Block(ms=0.7, r1=from_string("v1"), r2=from_string("v1"))
        np.testing.assert_array_equal(_contribution(b, ds.X_train), 0.0)


class TestOperators:
    def test_inflate_incremental_cache_matches_full(self, ds, prims):
        rng = np.random.default_rng(0)
        ind = make_individuals([from_string("ADD v1 v2")],
                               ds.X_train, ds.y_train)[0]
        for _ in range(20):
            ind = _grown(ind, prims, rng, ds)
            full = slim_evaluate(ind, ds.X_train)
            np.testing.assert_allclose(ind.train_semantics, full, atol=1e-10)

    def test_inflate_semantics_delta(self, ds, prims):
        rng = np.random.default_rng(1)
        ind = make_individuals([from_string("v1")],
                               ds.X_train, ds.y_train)[0]
        child = _grown(ind, prims, rng, ds)
        b = child.blocks[-1]
        expected = ind.train_semantics + b.ms * (
            sigmoid(reference_evaluate(b.r1, ds.X_train))
            - sigmoid(reference_evaluate(b.r2, ds.X_train)))
        np.testing.assert_allclose(child.train_semantics, expected, atol=1e-12)

    def test_deflate_shrinks_and_cache_consistent(self, ds, prims):
        rng = np.random.default_rng(2)
        ind = make_individuals([from_string("v1")],
                               ds.X_train, ds.y_train)[0]
        for _ in range(5):
            ind = _grown(ind, prims, rng, ds)
        smaller = deflate(ind, rng, ds.y_train)
        assert smaller.size < ind.size
        assert len(smaller.blocks) == len(ind.blocks) - 1
        np.testing.assert_allclose(smaller.train_semantics,
                                   slim_evaluate(smaller, ds.X_train),
                                   atol=1e-10)

    def test_deflate_never_removes_base(self, ds):
        ind = make_individuals([from_string("ADD v1 v2")],
                               ds.X_train, ds.y_train)[0]
        out = deflate(ind, np.random.default_rng(3), ds.y_train)
        assert out.base == ind.base
        assert out.blocks == []


class TestRunSlim:
    def test_best_non_increasing(self, ds):
        cfg = SlimConfig(pop_size=20, generations=5)
        trace = run_slim(cfg, ds, np.random.default_rng(0))
        best = [g.best_train_rmse for g in trace.generations]
        assert len(best) == 6
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_structural_changes_mostly_move_semantics(self, ds):
        # a variation changes semantics unless degenerate (e.g. r1 == r2)
        cfg = SlimConfig(pop_size=15, generations=4)
        trace = run_slim(cfg, ds, np.random.default_rng(1))
        diff = [v for v in trace.variations if v.structurally_different]
        assert diff
        moved = [v for v in diff if np.isfinite(v.sd_test) and v.sd_test > 0]
        # degenerate blocks (r1 == r2) are rare; require a clear majority
        assert len(moved) >= 0.9 * len(diff)

    def test_trace_method_tag(self, ds):
        cfg = SlimConfig(pop_size=5, generations=1)
        trace = run_slim(cfg, ds, np.random.default_rng(2))
        assert trace.method == "slim"


class TestSemanticsCache:
    """Cached test semantics are ``slim_evaluate``'s, bit for bit, and no
    tree is evaluated twice."""

    def test_deflate_evaluates_no_tree(self, ds, prims, monkeypatch):
        rng = np.random.default_rng(6)
        ind = make_individuals([from_string("SUB v3 v1")],
                               ds.X_train, ds.y_train)[0]
        for _ in range(4):
            ind = _grown(ind, prims, rng, ds)
        real = expr.evaluate_many
        with monkeypatch.context() as m:
            m.setattr(expr, "evaluate_many", None)  # any evaluation fails
            smaller = deflate(ind, rng, ds.y_train)
        assert expr.evaluate_many is real
        np.testing.assert_allclose(smaller.train_semantics,
                                   slim_evaluate(smaller, ds.X_train),
                                   atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           steps=st.lists(st.tuples(st.booleans(), st.booleans()),
                          min_size=1, max_size=25))
    def test_matches_slim_evaluate_bitwise(self, seed, steps):
        ds = _ToyDataset(seed=seed % 7)
        prims = expr.PrimitiveSet()
        rng = np.random.default_rng(seed)
        ind = make_individuals([expr.random_tree(expr.GROW, 1, 4, prims, rng)],
                               ds.X_train, ds.y_train)[0]
        lineage = [ind]
        for grow, fill_parent in steps:
            if fill_parent:  # its children inherit the base tree's output
                fill_test_semantics([ind], ds.X_test)
            ind = (_grown(ind, prims, rng, ds) if grow
                   else deflate(ind, rng, ds.y_train))
            lineage.append(ind)
        fill_test_semantics(lineage, ds.X_test)
        for member in lineage:
            assert (member.test_semantics.tobytes()
                    == slim_evaluate(member, ds.X_test).tobytes())

    def test_child_evaluates_only_its_new_block(self, ds, prims, monkeypatch):
        real = expr.evaluate_many
        rng = np.random.default_rng(4)
        parent = make_individuals([from_string("MUL v1 v2")],
                                  ds.X_train, ds.y_train)[0]
        for _ in range(3):
            parent = _grown(parent, prims, rng, ds)
        fill_test_semantics([parent], ds.X_test)
        child = _grown(parent, prims, rng, ds)
        smaller = deflate(parent, rng, ds.y_train)
        seen = []
        monkeypatch.setattr(
            expr, "evaluate_many",
            lambda trees, X: seen.extend(trees) or real(trees, X))
        fill_test_semantics([child, smaller], ds.X_test)
        new = child.blocks[-1]
        assert len(seen) == 2 and seen[0] is new.r1 and seen[1] is new.r2
        assert child.base_test is parent.base_test

    @pytest.mark.parametrize("method", ["stdgp", "slim", "tsgp"])
    def test_logged_run_evaluates_each_tree_once_on_test(
            self, ds, evaluations, tiny_model, method):
        trace = bench.run_method(method, ds, 5, generations=3, pop_size=10,
                                 model=tiny_model)
        seen = [tree for tree, X in evaluations if X is ds.X_test]
        # one logged row per offspring, every engine through stdgp.evolve
        assert len(trace.variations) == 10 * 3 and seen
        # no tree twice on test: a slim child inherits its base tree's
        # output, and a child that is its parent is that individual
        assert len(seen) == len({id(t) for t in seen})
        # base trees and block trees alike, once each on the train inputs
        train = [tree for tree, X in evaluations if X is ds.X_train]
        assert len(train) == len({id(t) for t in train}) > 10

    @pytest.mark.parametrize("log", [True], ids=["logged"])
    def test_new_blocks_one_batch_per_input_set_per_generation(
            self, ds, monkeypatch, log):
        events = []  # ("inflate", child) and ("evaluate", tree ids, inputs)
        many, grow = expr.evaluate_many, slim.inflate

        def evaluate_many(trees, X):
            events.append(("evaluate", [id(t) for t in trees], X))
            return many(trees, X)

        def inflate(*args):
            events.append(("inflate", grow(*args)))
            return events[-1][1]

        monkeypatch.setattr(expr, "evaluate_many", evaluate_many)
        monkeypatch.setattr(slim, "inflate", inflate)
        trace = run_slim(SlimConfig(pop_size=10, generations=3), ds,
                         np.random.default_rng(5))
        assert bool(trace.variations) == log
        _, bases, X = events[0]  # the initial population
        assert X is ds.X_train
        pattern, new, batch = "", [], None
        for kind, *rest in events[1:]:
            if kind == "inflate":
                block = rest[0].blocks[-1]
                new += [id(block.r1), id(block.r2)]
            elif rest[1] is ds.X_train:  # every block since the last batch
                assert rest[0] == new
                pattern, new, batch = pattern + "T", [], rest[0]
            elif len(rest[0]) == 1 and rest[0][0] in bases:
                pattern += "b"  # a base tree's test output, once per run
            else:
                assert rest[0] == batch
                pattern += "t"
        assert new == [] and 0 < pattern.count("T") <= 3
        # each train batch followed by the same trees on test
        assert pattern.replace("b", "") == "Tt" * pattern.count("T")
