import numpy as np
import pytest

from tsgp import expr, semantics
from tsgp.semantics import ConstantColumnError, LengthMismatchError
from tsgp.stdgp import Individual


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
        s = semantics.semantics_of(expr.from_string("v1"), pts)
        np.testing.assert_array_equal(s, [1.0, 2.0, 3.0])
        assert np.isfinite(s).all()

    def test_constant_tree(self):
        pts = np.zeros((5, 4))
        s = semantics.semantics_of(expr.from_string("C+0.5"), pts)
        np.testing.assert_array_equal(s, np.full(5, 0.5))

    def test_protected_division_all_ones(self):
        pts = np.random.default_rng(0).standard_normal((10, 4))
        s = semantics.semantics_of(expr.from_string("PDIV v1 C+0.0"), pts)
        np.testing.assert_array_equal(s, np.ones(10))
        assert np.isfinite(s).all()


def _with_test_semantics(values) -> Individual:
    """An individual whose cached test semantics are ``values``."""
    return Individual(expr.from_string("v1"), test_semantics=values)


class TestSemanticDistance:
    """``sd_on_test``: the parent-offspring distance the engines log."""

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        x_test = np.zeros((20, 1))
        for _ in range(200):
            a = _with_test_semantics(rng.standard_normal(20))
            b = _with_test_semantics(rng.standard_normal(20))
            assert semantics.sd_on_test(a, b, x_test) == \
                semantics.sd_on_test(b, a, x_test)

    def test_zero_for_identical(self):
        v = _with_test_semantics(np.arange(5.0))
        assert semantics.sd_on_test(v, v, np.zeros((5, 1))) == 0.0

    def test_non_finite_is_nan(self):
        a = _with_test_semantics(np.array([np.inf]))
        b = _with_test_semantics(np.array([0.0]))
        assert np.isnan(semantics.sd_on_test(a, b, np.zeros((1, 1))))
        assert np.isnan(semantics.sd_on_test(b, a, np.zeros((1, 1))))

    def test_accepts_semantic_vectors(self):
        # individuals evaluated on the test inputs through semantics_of
        pts = np.array([[3.0], [4.0]])
        a = Individual(expr.from_string("C+0.0"))
        b = Individual(expr.from_string("v1"))
        assert semantics.sd_on_test(a, b, pts) == pytest.approx(5.0)
        np.testing.assert_array_equal(
            a.test_semantics, semantics.semantics_of(a.tree, pts))


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
        with pytest.raises(LengthMismatchError):
            semantics.rmse(np.zeros(3), np.zeros(4))

    def test_non_finite_prediction_is_inf(self):
        assert semantics.rmse([0.0, 0.0], [np.nan, 1.0]) == np.inf
        assert semantics.rmse([0.0, 0.0], [np.inf, 1.0]) == np.inf


class TestStandardize:
    def test_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3)) * 4 + 2
        out, params = semantics.standardize(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_already_standardized_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        z, _ = semantics.standardize(x)
        z2, _ = semantics.standardize(z)
        np.testing.assert_allclose(z2, z, atol=1e-12)

    def test_constant_column(self):
        with pytest.raises(ConstantColumnError):
            semantics.standardize(np.array([5.0, 5.0, 5.0]))

    def test_apply_params(self):
        x = np.array([1.0, 2.0, 3.0])
        z, params = semantics.standardize(x)
        z2, _ = semantics.standardize(x, params)
        np.testing.assert_array_equal(z, z2)

    def test_population_convention(self):
        # std divides by n, not n-1
        x = np.array([0.0, 2.0])
        _, params = semantics.standardize(x)
        assert params.std[0] == pytest.approx(1.0)
