import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsgp import expr
from tsgp.expr import (FULL, GROW, OPERATORS, IncompleteSequenceError, Node,
                       PrimitiveSet, StructureError, TrailingTokensError,
                       UnknownTokenError)


class TestPrimitiveSet:
    def test_constant_grid(self, prims):
        assert len(prims.constant_values) == 11
        assert prims.constant_values[0] == -0.5
        assert prims.constant_values[-1] == 0.5
        # symmetric about zero
        assert sorted(-v for v in prims.constant_values) == \
            sorted(prims.constant_values)

    def test_constant_tokens(self, prims):
        assert "C+0.3" in prims.constants
        assert "C-0.5" in prims.constants
        assert prims.constant_value("C+0.3") == pytest.approx(0.3)


class TestEvaluate:
    def test_protected_division_by_zero(self, prims):
        tree = expr.from_string("PDIV v1 v2")
        out = expr.evaluate(tree, np.array([[3.0, 0.0, 0, 0]]))
        assert out[0] == 1.0

    def test_simple_arithmetic(self):
        tree = expr.from_string("ADD v1 MUL v2 C+0.3")
        out = expr.evaluate(tree, np.array([[1.0, 2.0, 0, 0]]))
        assert out[0] == pytest.approx(1.6)

    def test_variable_identity(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        out = expr.evaluate(expr.from_string("v3"), X)
        np.testing.assert_array_equal(out, X[:, 2])

    def test_variable_out_of_range(self):
        with pytest.raises(StructureError):
            expr.evaluate(expr.from_string("v4"), np.zeros((3, 2)))

    def test_protected_division_constant_zero(self):
        tree = expr.from_string("PDIV v1 C+0.0")
        out = expr.evaluate(tree, np.array([[3.0, 0, 0, 0], [-1.0, 0, 0, 0]]))
        np.testing.assert_array_equal(out, [1.0, 1.0])


class TestSerializeParse:
    def test_prefix_order(self):
        tree = expr.from_string("ADD v1 MUL v2 C+0.3")
        assert expr.serialize_prefix(tree) == ["ADD", "v1", "MUL", "v2", "C+0.3"]

    def test_single_node(self):
        assert expr.serialize_prefix(Node("v2")) == ["v2"]

    def test_parse_simple(self):
        tree = expr.parse_prefix(["ADD", "v1", "v2"])
        assert tree == Node("ADD", (Node("v1"), Node("v2")))

    def test_incomplete(self):
        with pytest.raises(IncompleteSequenceError):
            expr.parse_prefix(["ADD", "v1"])

    def test_trailing(self):
        with pytest.raises(TrailingTokensError):
            expr.parse_prefix(["v1", "v2"])

    def test_unknown_token(self):
        with pytest.raises(UnknownTokenError):
            expr.parse_prefix(["SIN", "v1"])

    def test_round_trip_random_trees(self, prims):
        rng = np.random.default_rng(42)
        for _ in range(500):
            t = expr.random_tree(GROW if rng.random() < 0.5 else FULL,
                                 2, 5, prims, rng)
            tokens = expr.serialize_prefix(t)
            assert expr.parse_prefix(tokens, prims) == t
            assert len(tokens) == expr.size(t)


class TestRandomTree:
    def test_full_depth2_complete(self, prims):
        rng = np.random.default_rng(1)
        t = expr.random_tree(FULL, 2, 2, prims, rng)
        assert expr.depth(t) == 2
        assert expr.size(t) == 7

    def test_grow_depth0_single_terminal(self, prims):
        rng = np.random.default_rng(2)
        t = expr.random_tree(GROW, 0, 0, prims, rng)
        assert expr.size(t) == 1

    def test_rhh_depth_bounds(self, prims):
        rng = np.random.default_rng(3)
        pop = expr.ramped_half_and_half(100, 2, 5, prims, rng)
        assert all(2 <= expr.depth(t) <= 5 for t in pop)

    def test_full_leaves_at_exact_depth(self, prims):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = expr.random_tree(FULL, 3, 3, prims, rng)
            assert expr.size(t) == 15  # complete binary tree

    def test_bad_depth_range(self, prims):
        with pytest.raises(ValueError):
            expr.random_tree(FULL, 3, 2, prims, np.random.default_rng(0))


class TestSizeDepth:
    def test_single_terminal(self):
        assert expr.size(Node("v1")) == 1
        assert expr.depth(Node("v1")) == 0

    def test_small_tree(self):
        t = expr.from_string("ADD v1 v2")
        assert expr.size(t) == 3
        assert expr.depth(t) == 1


def _reference_evaluate(tree: Node, inputs: np.ndarray) -> np.ndarray:
    """The evaluator as first written: one ``np.errstate`` per operator node."""
    m = inputs.shape[0]

    def rec(node: Node) -> np.ndarray:
        if not node.children:
            if node.symbol.startswith("v"):
                return inputs[:, int(node.symbol[1:]) - 1]
            return np.full(m, float(node.symbol[1:]))
        a, b = rec(node.children[0]), rec(node.children[1])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if node.symbol == "ADD":
                return a + b
            if node.symbol == "SUB":
                return a - b
            if node.symbol == "MUL":
                return a * b
            out = np.ones(m)
            np.divide(a, b, out=out, where=b != 0.0)
            return out

    return rec(tree)


_TREES = st.recursive(
    st.sampled_from(PrimitiveSet().terminals).map(Node),
    lambda kids: st.builds(lambda op, a, b: Node(op, (a, b)),
                           st.sampled_from(OPERATORS), kids, kids),
    max_leaves=40)
# magnitudes whose products, sums and quotients overflow, underflow or
# produce inf - inf and 0 * inf
_INPUTS = hnp.arrays(np.float64, (6, 4), elements=st.sampled_from(
    [0.0, -0.0, 1.0, -2.5, 1e-300, 1e200, -1e300, 3.0]))


class TestEvaluateOracle:
    @settings(max_examples=300, deadline=None)
    @given(tree=_TREES, X=_INPUTS)
    def test_matches_per_node_errstate(self, tree, X):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expr.evaluate(tree, X)
            ref = _reference_evaluate(tree, X)
        assert np.array_equal(out, ref, equal_nan=True)

    @pytest.mark.parametrize("text", [
        "PDIV v1 C+0.0", "MUL v2 MUL v2 v2", "SUB MUL v2 v2 MUL v3 v3",
        "MUL PDIV v1 v4 v2", "PDIV v1 SUB v1 v1", "ADD MUL v1 v1 MUL v3 v3"])
    def test_edge_trees_silent_and_equal(self, text):
        X = np.array([[1e200, 1e200, -1e300, 1e-300],
                      [0.0, -1e300, 1e200, 0.0],
                      [-2.5, 3.0, 1.0, -0.0]])
        tree = expr.from_string(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expr.evaluate(tree, X)
        assert np.array_equal(out, _reference_evaluate(tree, X),
                              equal_nan=True)

    def test_error_state_restored(self):
        before = np.geterr()
        expr.evaluate(expr.from_string("PDIV MUL v1 v1 v2"),
                      np.array([[1e200, 0.0]]))
        assert np.geterr() == before
