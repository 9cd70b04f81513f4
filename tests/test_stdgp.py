from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsgp import expr, semantics, stdgp
from tsgp.expr import OPERATORS, Node, PrimitiveSet
from tsgp.stdgp import (DOUBLE_TOURNAMENT, GPConfig, Individual,
                        double_tournament_select, run_stdgp, subtree_crossover,
                        subtree_mutation, tournament_select)

from reference import from_string, reference_evaluate


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


    @pytest.mark.parametrize("n", [7, 100, 200, 1000])
    def test_draws_as_k_scalar_draws(self, n):
        def scalar_draws(pop, k, rng):  # the loop it replaced
            best = pop[rng.integers(len(pop))]
            for _ in range(k - 1):
                cand = pop[rng.integers(len(pop))]
                if cand.fitness < best.fitness:
                    best = cand
            return best

        # few distinct fitness values, so ties test the earliest-minimum rule
        pop = _pop(np.random.default_rng(n).integers(0, 5, n).astype(float))
        a, b = np.random.default_rng(n + 1), np.random.default_rng(n + 1)
        for k in (1, 2, 5, 7) * 100:
            assert tournament_select(pop, k, a) is scalar_draws(pop, k, b)
        assert a.bit_generator.state == b.bit_generator.state


class TestDoubleTournament:
    def test_parsimony_prefers_smaller(self):
        small = Individual(from_string("v1"), 1.0)
        big = Individual(from_string("ADD v1 v2"), 1.0)
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


class _ToyDataset:
    def __init__(self, seed=0, m=60):
        rng = np.random.default_rng(seed)
        self.X_train = rng.standard_normal((m, 4))
        self.X_test = rng.standard_normal((m, 4))
        y = self.X_train[:, 0] + self.X_train[:, 1]
        self.y_train = semantics.standardize(y)
        # the test target takes the train target's scaling
        self.y_test = ((self.X_test[:, 0] + self.X_test[:, 1] - y.mean())
                       / y.std())
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

    def test_unlogged_run_compares_no_trees(self, monkeypatch):
        """Only a logged run reads the structural-difference flag, so only
        a logged run compares a child's tree with its parent's."""
        calls = []
        node_eq = Node.__eq__

        def counted(self, other):
            calls.append(1)
            return node_eq(self, other)

        monkeypatch.setattr(Node, "__eq__", counted)
        cfg = GPConfig(pop_size=20, generations=3,
                       selection=DOUBLE_TOURNAMENT)
        run_stdgp(cfg, _ToyDataset(), np.random.default_rng(5),
                  log_variations=False)
        assert calls == []
        run_stdgp(cfg, _ToyDataset(), np.random.default_rng(5))
        assert calls

    def test_double_tournament_mode(self):
        cfg = GPConfig(pop_size=10, generations=2, selection=DOUBLE_TOURNAMENT)
        trace = run_stdgp(cfg, _ToyDataset(), np.random.default_rng(1))
        assert len(trace.generations) == 3


class TestEvaluatedOnce:
    def test_depth_rejected_child_shares_semantics_and_size(self,
                                                             monkeypatch):
        # depth-3 initial trees under a depth cap of 3, so every variation
        # that deepens a tree is rejected (the operators read the cap per
        # call, and evolve the init depths per run)
        monkeypatch.setattr(stdgp, "INIT_DEPTH_MIN", 3)
        monkeypatch.setattr(stdgp, "INIT_DEPTH_MAX", 3)
        monkeypatch.setattr(expr, "MAX_DEPTH", 3)
        ds = _ToyDataset()
        pops = []
        cfg = GPConfig(pop_size=16, generations=2)
        trace = run_stdgp(cfg, ds, np.random.default_rng(3),
                          on_generation=lambda g, pop: pops.append(list(pop)))
        rejected = [c for c in pops[1] if any(c is p for p in pops[0])]
        assert rejected
        for child in rejected:  # logged as a parent: semantics cached
            assert child.test_semantics is not None
            np.testing.assert_array_equal(
                child.test_semantics, reference_evaluate(child.tree, ds.X_test))
            assert child.size == child.tree.n_nodes
        same = [v for v in trace.variations if not v.structurally_different]
        assert same and all(v.sd_test == 0.0 for v in same)

    def test_each_parent_evaluated_once_on_test(self, evaluations):
        ds = _ToyDataset()
        cfg = GPConfig(pop_size=20, generations=3)
        trace = run_stdgp(cfg, ds, np.random.default_rng(4))
        assert len(trace.variations) == 60
        seen = [tree for tree, X in evaluations if X is ds.X_test]
        # one evaluation per individual, not two per logged variation
        assert len(seen) < 2 * len(trace.variations)
        assert len(seen) == len({id(t) for t in seen})

    def test_each_individual_evaluated_once_on_train(self, evaluations):
        ds = _ToyDataset()
        pops = []
        cfg = GPConfig(pop_size=20, generations=3)
        run_stdgp(cfg, ds, np.random.default_rng(4),
                  on_generation=lambda g, pop: pops.append(list(pop)))
        individuals = {id(ind): ind for pop in pops for ind in pop}
        seen = [tree for tree, X in evaluations if X is ds.X_train]
        # every individual ever built, and nothing else, exactly once
        assert sorted(map(id, seen)) == sorted(
            id(ind.tree) for ind in individuals.values())


# --- reference variation: the whole-tree versions the engine first used ------

def _ref_nodes_with_depth(tree: Node) -> list:
    """Preorder list of (index, node, depth)."""
    out = []
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        out.append((len(out), node, d))
        for child in reversed(node.children):
            stack.append((child, d + 1))
    return out


def _ref_replace_subtree(root: Node, target: int, new: Node) -> Node:
    """Copy of root with the subtree at preorder index ``target`` swapped."""
    i = -1

    def rec(node: Node) -> Node:
        nonlocal i
        i += 1
        if i == target:
            return new
        if not node.children:
            return node
        return Node(node.symbol, tuple(rec(c) for c in node.children))

    return rec(root)


def _ref_depth(tree: Node) -> int:
    return max(d for _, _, d in _ref_nodes_with_depth(tree))


def _ref_pick_node(tree: Node, terminal_bias: float, rng):
    nodes = _ref_nodes_with_depth(tree)
    terms = [i for i, n, _ in nodes if not n.children]
    internals = [i for i, n, _ in nodes if n.children]
    pool = terms if rng.random() < terminal_bias else internals
    if not pool:
        pool = terms or internals
    return pool[rng.integers(len(pool))], nodes


def ref_crossover(p1, p2, terminal_bias, rng, max_depth=17):
    slot, _ = _ref_pick_node(p1, terminal_bias, rng)
    donor_idx, donor_nodes = _ref_pick_node(p2, terminal_bias, rng)
    child = _ref_replace_subtree(p1, slot, donor_nodes[donor_idx][1])
    return p1 if _ref_depth(child) > max_depth else child


def ref_mutation(p, prims, rng, max_depth=17):
    slot = int(rng.integers(len(_ref_nodes_with_depth(p))))
    new = expr.random_tree(expr.FULL, 0, 2, prims, rng)
    child = _ref_replace_subtree(p, slot, new)
    return p if _ref_depth(child) > max_depth else child


_PRIMS = PrimitiveSet()
_TREES = st.recursive(
    st.sampled_from(_PRIMS.terminals).map(Node),
    lambda kids: st.builds(lambda op, a, b: Node(op, (a, b)),
                           st.sampled_from(OPERATORS), kids, kids),
    max_leaves=48)
_BIASES = st.sampled_from([0.0, 0.1, 0.9, 1.0]) | st.floats(0.0, 1.0)
_SEEDS = st.integers(0, 2 ** 32 - 1)


def _same_outcome(got, want, p1, p2, rng_got, rng_want):
    assert got == want
    assert (got is p1) == (want is p1)
    assert (got is p2) == (want is p2)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def _all_nodes(tree: Node) -> list:
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def _walked_size_height(tree: Node) -> tuple:
    n, height, stack = 0, 0, [(tree, 0)]
    while stack:
        node, d = stack.pop()
        n += 1
        height = max(height, d)
        stack.extend((c, d + 1) for c in node.children)
    return n, height


class TestVariationOracle:
    """Path-only variation against the whole-tree reference: the same child
    trees, the same identity cases and the same rng draws. The operators
    read their depth cap from ``expr.MAX_DEPTH``, patched per example (a
    function-scoped fixture would span every example of a test)."""

    @settings(max_examples=200, deadline=None)
    @given(p1=_TREES, p2=_TREES, same_parent=st.booleans(), bias=_BIASES,
           seed=_SEEDS, max_depth=st.integers(0, 12))
    def test_crossover_matches_reference(self, p1, p2, same_parent, bias,
                                         seed, max_depth):
        if same_parent:
            p2 = p1
        rng_got = np.random.default_rng(seed)
        rng_want = np.random.default_rng(seed)
        with mock.patch.object(expr, "MAX_DEPTH", max_depth):
            for _ in range(4):
                got = subtree_crossover(p1, p2, bias, rng_got)
                want = ref_crossover(p1, p2, bias, rng_want, max_depth)
                _same_outcome(got, want, p1, p2, rng_got, rng_want)

    @settings(max_examples=200, deadline=None)
    @given(p=_TREES, seed=_SEEDS, max_depth=st.integers(0, 12))
    def test_mutation_matches_reference(self, p, seed, max_depth):
        rng_got = np.random.default_rng(seed)
        rng_want = np.random.default_rng(seed)
        with mock.patch.object(expr, "MAX_DEPTH", max_depth):
            for _ in range(4):
                got = subtree_mutation(p, _PRIMS, rng_got)
                want = ref_mutation(p, _PRIMS, rng_want, max_depth)
                _same_outcome(got, want, p, p, rng_got, rng_want)

    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, bias=_BIASES, init_depth=st.integers(0, 9),
           max_depth=st.integers(1, 10))
    def test_evolved_parents_match_reference(self, seed, bias, init_depth,
                                             max_depth):
        """Children of children share subtrees with their parents; parents
        may start deeper than the cap."""
        rng = np.random.default_rng(seed)
        pool = expr.ramped_half_and_half(12, 0, init_depth, _PRIMS, rng)
        rng_got = np.random.default_rng(seed + 1)
        rng_want = np.random.default_rng(seed + 1)
        with mock.patch.object(expr, "MAX_DEPTH", max_depth):
            for _ in range(150):
                p1 = pool[rng.integers(len(pool))]
                p2 = pool[rng.integers(len(pool))]
                if rng.random() < 0.7:
                    got = subtree_crossover(p1, p2, bias, rng_got)
                    want = ref_crossover(p1, p2, bias, rng_want, max_depth)
                else:
                    p2 = p1
                    got = subtree_mutation(p1, _PRIMS, rng_got)
                    want = ref_mutation(p1, _PRIMS, rng_want, max_depth)
                _same_outcome(got, want, p1, p2, rng_got, rng_want)
                pool.append(got)
        for tree in pool:
            for node in _all_nodes(tree):
                assert (node.n_nodes, node.height) == _walked_size_height(node)

    @settings(max_examples=100, deadline=None)
    @given(tree=_TREES)
    def test_node_counts_match_walks(self, tree):
        for node in _all_nodes(tree):
            assert (node.n_nodes, node.height) == _walked_size_height(node)
        assert (tree.n_nodes, expr.depth(tree)) == _walked_size_height(tree)

    def test_deep_chain_size_and_depth(self):
        tree = Node("v1")
        for i in range(5000):
            tree = Node(OPERATORS[i % 4], (tree, Node("C+0.1")))
        assert tree.n_nodes == 10001
        assert expr.depth(tree) == 5000
