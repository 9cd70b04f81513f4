import numpy as np
import pytest

from tsgp import expr, semantics, stdgp
from tsgp.stdgp import (DOUBLE_TOURNAMENT, GPConfig, Individual,
                        double_tournament_select, run_stdgp, subtree_crossover,
                        subtree_mutation, tournament_select)


def _pop(fitnesses):
    return [Individual(expr.Node("v1"), f) for f in fitnesses]


class TestTournament:
    def test_k1_uniform(self):
        pop = _pop([3.0, 1.0, 2.0])
        rng = np.random.default_rng(0)
        picks = {id(tournament_select(pop, 1, rng)) for _ in range(200)}
        assert len(picks) == 3  # every individual reachable

    def test_argmin_of_sample(self):
        pop = _pop([5.0, 1.0, 3.0, 4.0])
        winner = tournament_select(pop, 4, np.random.default_rng(1))
        assert winner.fitness in {1.0, 3.0, 4.0, 5.0}

    def test_monotone_invariance(self):
        # winner identical under any strictly increasing fitness transform
        rng_fit = np.random.default_rng(5)
        base = list(rng_fit.random(20))
        pop_a = _pop(base)
        pop_b = _pop([f ** 3 + 1 for f in base])
        for seed in range(100):
            wa = tournament_select(pop_a, 5, np.random.default_rng(seed))
            wb = tournament_select(pop_b, 5, np.random.default_rng(seed))
            assert pop_a.index(wa) == pop_b.index(wb)


class TestDoubleTournament:
    def test_parsimony_prefers_smaller(self):
        small = Individual(expr.from_string("v1"), 1.0)
        big = Individual(expr.from_string("ADD v1 v2"), 1.0)
        pop = [small, big]
        rng = np.random.default_rng(2)
        picks = [double_tournament_select(pop, 2, 1.0, rng) for _ in range(50)]
        assert all(p.size <= 3 for p in picks)
        assert sum(p is small for p in picks) > 25


class TestVariationOperators:
    def test_crossover_depth_cap(self, prims):
        rng = np.random.default_rng(3)
        pool = expr.ramped_half_and_half(50, 2, 5, prims, rng)
        for _ in range(2000):
            p1 = pool[rng.integers(len(pool))]
            p2 = pool[rng.integers(len(pool))]
            child = subtree_crossover(p1, p2, 0.1, rng)
            assert expr.depth(child) <= 17

    def test_mutation_depth_cap(self, prims):
        rng = np.random.default_rng(4)
        pool = expr.ramped_half_and_half(50, 2, 5, prims, rng)
        for _ in range(1000):
            child = subtree_mutation(pool[rng.integers(len(pool))], prims, rng)
            assert expr.depth(child) <= 17

    def test_mutation_of_terminal_parent(self, prims):
        rng = np.random.default_rng(5)
        for _ in range(50):
            child = subtree_mutation(expr.Node("v1"), prims, rng)
            assert expr.depth(child) <= 2


class TestConfig:
    def test_prob_sum_over_one(self):
        with pytest.raises(ValueError):
            GPConfig(crossover_prob=0.9, mutation_prob=0.2)

    def test_negative_prob(self):
        with pytest.raises(ValueError):
            GPConfig(crossover_prob=-0.1)


class _ToyDataset:
    def __init__(self, seed=0, m=60):
        rng = np.random.default_rng(seed)
        self.X_train = rng.standard_normal((m, 4))
        self.X_test = rng.standard_normal((m, 4))
        y = self.X_train[:, 0] + self.X_train[:, 1]
        self.y_train, params = semantics.standardize(y)
        self.y_test, _ = semantics.standardize(
            self.X_test[:, 0] + self.X_test[:, 1], params)
        self.seed = seed


class TestRunStdgp:
    def test_trace_and_population_invariants(self):
        sizes = []
        cfg = GPConfig(pop_size=20, generations=4)
        trace = run_stdgp(cfg, _ToyDataset(), np.random.default_rng(0),
                          on_generation=lambda g, pop: sizes.append(len(pop)))
        assert sizes == [20] * 5
        assert len(trace.generations) == 5
        best = [g.best_train_rmse for g in trace.generations]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        assert np.isfinite(trace.final_best_test_rmse)

    def test_deterministic(self):
        cfg = GPConfig(pop_size=15, generations=3)
        t1 = run_stdgp(cfg, _ToyDataset(), np.random.default_rng(7))
        t2 = run_stdgp(cfg, _ToyDataset(), np.random.default_rng(7))
        assert [g.best_train_rmse for g in t1.generations] == \
            [g.best_train_rmse for g in t2.generations]

    def test_double_tournament_mode(self):
        cfg = GPConfig(pop_size=10, generations=2, selection=DOUBLE_TOURNAMENT)
        trace = run_stdgp(cfg, _ToyDataset(), np.random.default_rng(1))
        assert len(trace.generations) == 3


class TestEvaluatedOnce:
    def test_reproduced_child_is_its_parent(self):
        pops = []
        cfg = GPConfig(pop_size=12, generations=3, crossover_prob=0.0,
                       mutation_prob=0.0)
        run_stdgp(cfg, _ToyDataset(), np.random.default_rng(2),
                  on_generation=lambda g, pop: pops.append(list(pop)))
        for before, after in zip(pops, pops[1:]):
            assert all(any(c is p for p in before) for c in after)

    def test_depth_rejected_child_shares_semantics_and_size(self):
        ds = _ToyDataset()
        pops = []
        cfg = GPConfig(pop_size=16, generations=2, crossover_prob=1.0,
                       mutation_prob=0.0, init_depth_min=3,
                       init_depth_max=3, max_depth=3)
        trace = run_stdgp(cfg, ds, np.random.default_rng(3),
                          on_generation=lambda g, pop: pops.append(list(pop)))
        rejected = [c for c in pops[1] if any(c is p for p in pops[0])]
        assert rejected
        for child in rejected:  # logged as a parent: semantics cached
            assert child.test_semantics is not None
            np.testing.assert_array_equal(child.test_semantics,
                                          expr.evaluate(child.tree, ds.X_test))
            assert child.__dict__["size"] == expr.size(child.tree)
        same = [v for v in trace.variations if not v.structurally_different]
        assert same and all(v.sd_test == 0.0 for v in same)

    def test_each_parent_evaluated_once_on_test(self, monkeypatch):
        ds = _ToyDataset()
        seen = []
        real = expr.evaluate
        monkeypatch.setattr(
            expr, "evaluate",
            lambda tree, X: (seen.append(tree) if X is ds.X_test
                             else None) or real(tree, X))
        cfg = GPConfig(pop_size=20, generations=3)
        trace = run_stdgp(cfg, ds, np.random.default_rng(4))
        assert len(trace.variations) == 60
        # one evaluation per individual, not two per logged variation
        assert len(seen) < 2 * len(trace.variations)
        assert len(seen) == len({id(t) for t in seen})
