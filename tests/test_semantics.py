import struct
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsgp import expr, semantics
from tsgp.errors import DataError
from tsgp.expr import OPERATORS, Node, PrimitiveSet

from reference import from_string, rmse_norm, sd_norm


class TestSampleInputs:
    def test_shape(self):
        pts = semantics.sample_standard_inputs(100, 4, np.random.default_rng(0))
        assert pts.shape == (100, 4)

    def test_column_means_near_zero(self):
        # normal-tail bound: |mean| < 3.9/sqrt(100) at 99.99% confidence;
        # check the tighter 0.35 bound over a few seeds
        for seed in range(5):
            pts = semantics.sample_standard_inputs(
                100, 4, np.random.default_rng(seed))
            assert np.all(np.abs(pts.mean(axis=0)) < 0.35)

    def test_m_sem_one_rejected(self):
        with pytest.raises(ValueError):
            semantics.sample_standard_inputs(1, 4, np.random.default_rng(0))


class TestSemanticsOf:
    def test_identity_tree(self):
        pts = np.array([[1.0], [2.0], [3.0]])
        s = expr.evaluate(from_string("v1"), pts)
        np.testing.assert_array_equal(s, [1.0, 2.0, 3.0])
        assert np.isfinite(s).all()

    def test_constant_tree(self):
        pts = np.zeros((5, 4))
        s = expr.evaluate(from_string("C+0.5"), pts)
        np.testing.assert_array_equal(s, np.full(5, 0.5))

    def test_protected_division_all_ones(self):
        pts = np.random.default_rng(0).standard_normal((10, 4))
        s = expr.evaluate(from_string("PDIV v1 C+0.0"), pts)
        np.testing.assert_array_equal(s, np.ones(10))
        assert np.isfinite(s).all()


class TestSemanticDistance:
    """``sd_on_test``: the parent-offspring distance the engines log."""

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.standard_normal(20), rng.standard_normal(20)
            assert semantics.sd_on_test(a, b) == semantics.sd_on_test(b, a)

    def test_zero_for_identical(self):
        v = np.arange(5.0)
        assert semantics.sd_on_test(v, v) == 0.0

    def test_non_finite_is_nan(self):
        a, b = np.array([np.inf]), np.array([0.0])
        assert np.isnan(semantics.sd_on_test(a, b))
        assert np.isnan(semantics.sd_on_test(b, a))

    def test_accepts_semantic_vectors(self):
        # tree outputs on the test inputs
        pts = np.array([[3.0], [4.0]])
        a = expr.evaluate(from_string("C+0.0"), pts)
        b = expr.evaluate(from_string("v1"), pts)
        assert semantics.sd_on_test(a, b) == pytest.approx(5.0)


class TestRmse:
    def test_identical(self):
        assert semantics.rmse([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_norm_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            y = rng.standard_normal(30)
            yh = rng.standard_normal(30)
            lhs = semantics.rmse(y, yh) * np.sqrt(30)
            assert abs(lhs - np.linalg.norm(y - yh)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            semantics.rmse(np.zeros(3), np.zeros(4))

    def test_non_finite_prediction_is_inf(self):
        assert semantics.rmse([0.0, 0.0], [np.nan, 1.0]) == np.inf
        assert semantics.rmse([0.0, 0.0], [np.inf, 1.0]) == np.inf


class TestStandardize:
    def test_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3)) * 4 + 2
        out = semantics.standardize(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_already_standardized_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        z = semantics.standardize(x)
        z2 = semantics.standardize(z)
        np.testing.assert_allclose(z2, z, atol=1e-12)

    def test_constant_column(self):
        with pytest.raises(DataError, match="column 0 is constant"):
            semantics.standardize(np.array([5.0, 5.0, 5.0]))

    def test_repeated_inexact_value_is_constant(self):
        """0.1 repeated has a population std of about 3e-17, not 0."""
        assert np.full(30, 0.1).std() > 0.0
        with pytest.raises(DataError, match="column 0 is constant"):
            semantics.standardize(np.full(30, 0.1))
        x = np.random.default_rng(4).standard_normal((30, 3))
        x[:, 1] = 0.1
        with pytest.raises(DataError, match="column 1 is constant"):
            semantics.standardize(x)

    def test_column_that_differs_by_1e_12_standardizes(self):
        x = np.full(30, 0.1)
        x[:10] += 1e-12
        out = semantics.standardize(x)
        assert np.isfinite(out).all()
        assert out[0] > 0.0 > out[-1]
        np.testing.assert_allclose(out.std(), 1.0, rtol=1e-3)

    def test_population_convention(self):
        # std divides by n, not n-1
        x = np.array([0.0, 2.0])
        np.testing.assert_array_equal(semantics.standardize(x), [-1.0, 1.0])


_TREES = st.recursive(
    st.sampled_from(PrimitiveSet().terminals).map(Node),
    lambda kids: st.builds(lambda op, a, b: Node(op, (a, b)),
                           st.sampled_from(OPERATORS), kids, kids),
    max_leaves=30)
# values whose squares and sums of squares overflow, underflow or are not
# finite, as grown trees produce them
_EDGE = [0.0, -0.0, 2.5, 1e-160, 1e153, -1.3e154, 1e200, np.inf, -np.inf,
         np.nan]


def _same_as_reference(new, ref):
    """Both calls return the same float bits and raise the same warnings."""
    results = []
    for call in (new, ref):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = call()
        results.append((struct.pack("<d", value),
                        [str(w.message) for w in caught]))
    assert results[0] == results[1]


class TestNormFormsProperty:
    """``rmse`` and ``sd_on_test`` equal their ``np.linalg.norm`` forms bit
    for bit, with the same overflow warnings, on the outputs the engines
    compute."""

    @staticmethod
    def _check(y, outs):
        for out in outs:
            _same_as_reference(lambda: semantics.rmse(y, out),
                               lambda: rmse_norm(y, out))
        for sa in outs:
            for sb in outs:
                _same_as_reference(lambda: semantics.sd_on_test(sa, sb),
                                   lambda: sd_norm(sa, sb))

    @settings(max_examples=150, deadline=None)
    @given(trees=st.lists(_TREES, min_size=1, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 60),
           spikes=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                     st.sampled_from(_EDGE[:7])),
                           max_size=4))
    def test_tree_outputs_on_standardized_inputs(self, trees, seed, m,
                                                 spikes):
        rng = np.random.default_rng(seed)
        X = semantics.standardize(rng.standard_normal((m, 4)))
        y = semantics.standardize(rng.standard_normal(m))
        for flat, value in spikes:  # exact zeros and near-overflow inputs
            X.flat[flat % X.size] = value
        self._check(y, expr.evaluate_many(trees, X))

    @settings(max_examples=300, deadline=None)
    @given(outs=st.lists(hnp.arrays(np.float64, 7, elements=st.one_of(
        st.sampled_from(_EDGE), st.floats(-1e3, 1e3))), min_size=1,
        max_size=4))
    def test_non_finite_and_near_overflow(self, outs):
        y = semantics.standardize(np.arange(7.0) ** 2)
        self._check(y, outs)
