import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsgp import expr
from tsgp.errors import DataError
from tsgp.expr import (CONSTANT_VALUES, FULL, GROW, OPERATORS, Node,
                       ParseError, PrimitiveSet)

from reference import from_string, reference_evaluate


class TestPrimitiveSet:
    def test_constant_grid(self):
        assert len(CONSTANT_VALUES) == 11
        assert CONSTANT_VALUES[0] == -0.5
        assert CONSTANT_VALUES[-1] == 0.5
        # symmetric about zero
        assert sorted(-v for v in CONSTANT_VALUES) == sorted(CONSTANT_VALUES)

    def test_constant_tokens(self, prims):
        assert "C+0.3" in prims.constants
        assert "C-0.5" in prims.constants


class TestEvaluate:
    def test_protected_division_by_zero(self, prims):
        tree = from_string("PDIV v1 v2")
        out = expr.evaluate(tree, np.array([[3.0, 0.0, 0, 0]]))
        assert out[0] == 1.0

    def test_simple_arithmetic(self):
        tree = from_string("ADD v1 MUL v2 C+0.3")
        out = expr.evaluate(tree, np.array([[1.0, 2.0, 0, 0]]))
        assert out[0] == pytest.approx(1.6)

    def test_variable_identity(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        out = expr.evaluate(from_string("v3"), X)
        np.testing.assert_array_equal(out, X[:, 2])

    def test_variable_out_of_range(self):
        with pytest.raises(DataError, match="variable v4 out of range"):
            expr.evaluate(from_string("v4"), np.zeros((3, 2)))

    def test_protected_division_constant_zero(self):
        tree = from_string("PDIV v1 C+0.0")
        out = expr.evaluate(tree, np.array([[3.0, 0, 0, 0], [-1.0, 0, 0, 0]]))
        np.testing.assert_array_equal(out, [1.0, 1.0])


class TestSerializeParse:
    def test_prefix_order(self):
        tree = from_string("ADD v1 MUL v2 C+0.3")
        assert expr.serialize_prefix(tree) == ["ADD", "v1", "MUL", "v2", "C+0.3"]

    def test_single_node(self):
        assert expr.serialize_prefix(Node("v2")) == ["v2"]

    def test_node_arity(self):
        with pytest.raises(ValueError, match="ADD needs 2 children, got 1"):
            Node("ADD", (Node("v1"),))
        with pytest.raises(ValueError, match="terminal v1 cannot have"):
            Node("v1", (Node("v2"),))

    def test_parse_simple(self, prims):
        tree = expr.parse_prefix(["ADD", "v1", "v2"], prims)
        assert tree == Node("ADD", (Node("v1"), Node("v2")))

    def test_incomplete(self, prims):
        with pytest.raises(ParseError, match="tokens exhausted"):
            expr.parse_prefix(["ADD", "v1"], prims)

    def test_trailing(self, prims):
        with pytest.raises(ParseError, match="1 tokens left"):
            expr.parse_prefix(["v1", "v2"], prims)

    def test_unknown_token(self, prims):
        with pytest.raises(ParseError, match="unknown token 'SIN'"):
            expr.parse_prefix(["SIN", "v1"], prims)

    def test_round_trip_random_trees(self, prims):
        rng = np.random.default_rng(42)
        for _ in range(500):
            t = expr.random_tree(GROW if rng.random() < 0.5 else FULL,
                                 2, 5, prims, rng)
            tokens = expr.serialize_prefix(t)
            assert expr.parse_prefix(tokens, prims) == t
            assert len(tokens) == t.n_nodes


class TestNodeContract:
    """``Node`` is a slotted class with structural equality and hashing."""

    def test_structural_equality(self):
        a, b = from_string("ADD v1 MUL v2 C+0.3"), from_string(
            "ADD v1 MUL v2 C+0.3")
        assert a is not b and a == b and not a != b
        assert a != from_string("ADD v1 MUL v2 C+0.2")
        assert a != from_string("SUB v1 MUL v2 C+0.3")
        assert Node("v1") != Node("v2")

    def test_deep_tree_equals_itself(self):
        deep = Node("v1")
        for i in range(5000):
            deep = Node(OPERATORS[i % 4], (deep, Node("C+0.1")))
        assert deep == deep and not deep != deep

    def test_hash_is_structural(self):
        a, b = from_string("PDIV v3 C-0.5"), from_string("PDIV v3 C-0.5")
        assert hash(a) == hash(b) == hash((a.symbol, a.children))
        assert len({a, b, Node("v3")}) == 2

    def test_repr(self):
        tree = Node("ADD", (Node("v1"), Node("C+0.3")))
        assert repr(tree) == ("Node(symbol='ADD', children=("
                              "Node(symbol='v1', children=()), "
                              "Node(symbol='C+0.3', children=())))")

    @pytest.mark.parametrize("other", ["v1", ("v1", ()), None, 1])
    def test_not_equal_to_other_types(self, other):
        assert Node("v1") != other and not Node("v1") == other

    @pytest.mark.parametrize("symbol,children,match", [
        ("MUL", (), "MUL needs 2 children, got 0"),
        ("PDIV", (Node("v1"),) * 3, "PDIV needs 2 children, got 3"),
        ("C+0.1", (Node("v1"), Node("v2")), "terminal C\\+0.1 cannot have")])
    def test_arity_errors(self, symbol, children, match):
        with pytest.raises(ValueError, match=match):
            Node(symbol, children)

    def test_slotted(self):
        node = from_string("SUB v1 v2")
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.cache = 1
        assert (node.n_nodes, node.height) == (3, 1)


class TestRandomTree:
    def test_full_depth2_complete(self, prims):
        rng = np.random.default_rng(1)
        t = expr.random_tree(FULL, 2, 2, prims, rng)
        assert expr.depth(t) == 2
        assert t.n_nodes == 7

    def test_grow_depth0_single_terminal(self, prims):
        rng = np.random.default_rng(2)
        t = expr.random_tree(GROW, 0, 0, prims, rng)
        assert t.n_nodes == 1

    def test_rhh_depth_bounds(self, prims):
        rng = np.random.default_rng(3)
        pop = expr.ramped_half_and_half(100, 2, 5, prims, rng)
        assert all(2 <= expr.depth(t) <= 5 for t in pop)

    def test_full_leaves_at_exact_depth(self, prims):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = expr.random_tree(FULL, 3, 3, prims, rng)
            assert t.n_nodes == 15  # complete binary tree

    def test_bad_depth_range(self, prims):
        with pytest.raises(ValueError):
            expr.random_tree(FULL, 3, 2, prims, np.random.default_rng(0))


class TestSizeDepth:
    def test_single_terminal(self):
        assert Node("v1").n_nodes == 1
        assert expr.depth(Node("v1")) == 0

    def test_small_tree(self):
        t = from_string("ADD v1 v2")
        assert t.n_nodes == 3
        assert expr.depth(t) == 1


_TREES = st.recursive(
    st.sampled_from(PrimitiveSet().terminals).map(Node),
    lambda kids: st.builds(lambda op, a, b: Node(op, (a, b)),
                           st.sampled_from(OPERATORS), kids, kids),
    max_leaves=40)
# magnitudes whose products, sums and quotients overflow, underflow or
# produce inf - inf and 0 * inf
_INPUTS = hnp.arrays(np.float64, (6, 4), elements=st.sampled_from(
    [0.0, -0.0, 1.0, -2.5, 1e-300, 1e200, -1e300, 3.0]))


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(tree=_TREES)
    def test_parse_serialize_parse(self, prims, tree):
        tokens = expr.serialize_prefix(tree)
        parsed = expr.parse_prefix(tokens, prims)
        assert parsed == tree
        assert expr.serialize_prefix(parsed) == tokens
        assert expr.parse_prefix(expr.serialize_prefix(parsed),
                                 prims) == parsed
        assert (parsed.n_nodes, parsed.height) == (tree.n_nodes, tree.height)
        assert len(tokens) == tree.n_nodes


class TestEvaluateOracle:
    @settings(max_examples=300, deadline=None)
    @given(tree=_TREES, X=_INPUTS)
    def test_matches_per_node_errstate(self, tree, X):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expr.evaluate(tree, X)
            ref = reference_evaluate(tree, X)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("text", [
        "PDIV v1 C+0.0", "MUL v2 MUL v2 v2", "SUB MUL v2 v2 MUL v3 v3",
        "MUL PDIV v1 v4 v2", "PDIV v1 SUB v1 v1", "ADD MUL v1 v1 MUL v3 v3"])
    def test_edge_trees_silent_and_equal(self, text):
        X = np.array([[1e200, 1e200, -1e300, 1e-300],
                      [0.0, -1e300, 1e200, 0.0],
                      [-2.5, 3.0, 1.0, -0.0]])
        tree = from_string(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expr.evaluate(tree, X)
        assert out.tobytes() == reference_evaluate(tree, X).tobytes()

    def test_error_state_restored(self):
        before = np.geterr()
        expr.evaluate(from_string("PDIV MUL v1 v1 v2"),
                      np.array([[1e200, 0.0]]))
        assert np.geterr() == before


def _same_bytes(trees, X) -> bool:
    outs = expr.evaluate_many(trees, X)
    return len(outs) == len(trees) and all(
        out.tobytes() == reference_evaluate(tree, X).tobytes()
        for tree, out in zip(trees, outs))


def _subtrees(tree: Node) -> list:
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


class TestEvaluateMany:
    """``evaluate_many`` against ``reference_evaluate``, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(bases=st.lists(_TREES, min_size=1, max_size=6),
           picks=st.lists(st.tuples(st.sampled_from(OPERATORS),
                                    st.integers(0, 10 ** 6),
                                    st.integers(0, 10 ** 6)), max_size=12),
           X=_INPUTS)
    def test_shared_subtrees(self, bases, picks, X):
        # children join subtree objects of earlier trees, as crossover does
        trees = list(bases)
        for op, i, j in picks:
            pool = [s for t in trees for s in _subtrees(t)]
            trees.append(Node(op, (pool[i % len(pool)], pool[j % len(pool)])))
        trees += trees[::2]  # the same tree object twice in one batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _same_bytes(trees, X)

    @pytest.mark.parametrize(
        "source,seed",
        [("stdgp", 0), ("stdgp", 1), ("stdgp", 2), ("slim", 0), ("slim", 1),
         ("harvested", 0)],
        ids=["0", "1", "2", "slim blocks 0", "slim blocks 1", "harvested"])
    def test_seeded_stdgp_populations(self, request, monkeypatch, source,
                                      seed):
        """Each generation of a seeded stdgp run, each generation's new
        blocks in a seeded slim run, and the trees of a harvested corpus."""
        from tsgp import slim
        from tsgp.corpus import gen_synthetic_problem
        from tsgp.stdgp import GPConfig, run_stdgp
        problem = gen_synthetic_problem(4, 60, 0.1,
                                        np.random.default_rng(seed))
        pops = []
        if source == "stdgp":
            run_stdgp(GPConfig(pop_size=40, generations=6), problem,
                      np.random.default_rng(seed),
                      on_generation=lambda g, pop: pops.append(
                          [ind.tree for ind in pop]))
        elif source == "slim":
            add = slim.add_new_blocks
            monkeypatch.setattr(
                slim, "add_new_blocks",
                lambda inflated, X, y: pops.append(
                    [t for _, child in inflated
                     for t in (child.blocks[-1].r1, child.blocks[-1].r2)])
                or add(inflated, X, y))
            slim.run_slim(slim.SlimConfig(pop_size=40, generations=6),
                          problem, np.random.default_rng(seed))
        else:
            entries, _ = request.getfixturevalue("harvested")
            pops.append([expr.parse_prefix(e.tokens, PrimitiveSet())
                         for e in entries])
        X = problem.X.copy()
        X[::7] = 0.0  # exact-zero denominators for PDIV
        X[3] = 1e200  # products overflow to inf, then inf - inf to NaN
        assert pops and all(pops)
        for trees in pops:
            assert _same_bytes(trees, X)
        assert _same_bytes([t for trees in pops for t in trees], X)

    @pytest.mark.parametrize("text", [
        "C+0.3", "PDIV C+0.3 C+0.0", "MUL C+0.3 ADD C-0.2 C+0.1",
        "ADD v1 PDIV C+0.5 SUB C+0.1 C+0.1", "PDIV v2 C+0.0",
        "PDIV C+0.4 v1", "PDIV v1 SUB v1 v1", "v3",
        "MUL MUL v1 v1 MUL v1 v1", "SUB MUL v1 v1 MUL v1 v1"])
    def test_edge_trees(self, text):
        X = np.array([[1e200, 0.0, -0.0, 2.0], [0.0, 1e-300, 3.0, -1.0],
                      [-1e300, -2.5, 1.0, 0.0]])
        tree = from_string(text)
        shared = Node("ADD", (tree, tree))
        assert _same_bytes([tree, shared, tree], X)

    def test_all_constant_tree_broadcast(self):
        out, = expr.evaluate_many([from_string("PDIV C+0.3 C+0.0")],
                                  np.zeros((5, 2)))
        assert out.shape == (5,) and np.array_equal(out, np.ones(5))

    @pytest.mark.parametrize("bad", [
        Node("v5"), Node("v0"),
        Node("ADD", (Node("v1"), Node("MUL", (Node("v2"), Node("v5")))))],
        ids=["v5", "v0", "nested v5"])
    def test_variable_out_of_range(self, bad):
        good = from_string("ADD v1 v2")
        with pytest.raises(DataError, match="out of range for d=4"):
            expr.evaluate(bad, np.zeros((3, 4)))
        with pytest.raises(DataError, match="out of range for d=4"):
            expr.evaluate_many([good, bad], np.zeros((3, 4)))

    def test_outputs_own_their_memory(self):
        X = np.arange(12.0).reshape(4, 3)
        trees = [from_string(t) for t in ("v1", "ADD v1 v2", "v1")]
        outs = expr.evaluate_many(trees, X)
        assert outs[0] is not outs[2]
        for i, out in enumerate(outs):
            assert out.base is None and not np.shares_memory(out, X)
            assert not any(np.shares_memory(out, o) for o in outs[i + 1:])

    def test_empty_batch_and_error_state(self):
        before = np.geterr()
        assert expr.evaluate_many([], np.zeros((3, 2))) == []
        expr.evaluate_many([from_string("PDIV MUL v1 v1 v2")],
                           np.array([[1e200, 0.0]]))
        assert np.geterr() == before
        with pytest.raises(ValueError):
            expr.evaluate_many([Node("v1")], np.zeros(3))
