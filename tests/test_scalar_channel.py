import numpy as np
import pytest

from mvamp import scalar_channel
from mvamp.exceptions import ConvergenceError
from mvamp.scalar_channel import (DEFAULT_ORDER, QuadratureRule, gauss_hermite_rule,
                                  log_cosh, scalar_mi, scalar_mmse)

from oracles import mmse_monte_carlo


class TestQuadratureRule:
    def test_one_point(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [1.0]

    def test_gaussian_moments(self):
        rule = gauss_hermite_rule(10)
        assert abs(rule.expect(lambda z: z ** 4) - 3.0) < 1e-10

    def test_normalization_and_low_moments(self):
        for k in (2, 10, 61, DEFAULT_ORDER):
            rule = gauss_hermite_rule(k)
            assert abs(rule.weights.sum() - 1.0) < 1e-12
            assert abs(rule.expect(lambda z: z)) < 1e-10
            assert abs(rule.expect(lambda z: z ** 2) - 1.0) < 1e-10

    def test_refinement_stability_at_default_order(self):
        # The tanh^2 integrand at snr 5 is the stress case; at the default
        # order another 10 nodes move the value by less than 1e-12.
        f = lambda z: np.tanh(5.0 + np.sqrt(5.0) * z) ** 2
        a = gauss_hermite_rule(DEFAULT_ORDER).expect(f)
        b = gauss_hermite_rule(DEFAULT_ORDER + 10).expect(f)
        assert abs(a - b) < 1e-12

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)


class TestQuadratureAgainstScipy:
    """The numpy rule against scipy.special.roots_hermitenorm."""

    ORDERS = list(range(1, 65)) + [200, 301, 500, 501, 502, 511, 600]

    @staticmethod
    def scipy_rule(k):
        from scipy.special import roots_hermitenorm
        nodes, weights = roots_hermitenorm(k)
        return QuadratureRule(nodes=nodes, weights=weights / np.sqrt(2.0 * np.pi))

    @pytest.mark.parametrize("k", ORDERS)
    def test_nodes_and_weights_agree(self, k):
        rule, ref = gauss_hermite_rule(k), self.scipy_rule(k)
        x, w = rule.nodes, rule.weights
        assert x.shape == w.shape == (k,)
        assert np.all(np.diff(x) > 0.0)
        np.testing.assert_array_equal(x, -x[::-1])
        assert np.all(np.abs(x - ref.nodes) <= 1e-13 * np.maximum(1.0, np.abs(ref.nodes)))
        assert np.max(np.abs(w - ref.weights)) <= 1e-14
        assert np.all(w >= 0.0)
        assert not np.any((w > 0.0) & (w < np.finfo(float).tiny))

    def test_order_past_the_starting_values_raises(self):
        # Tricomi's values for the largest nodes are too far off at this
        # order for Newton; a wrong rule must not come back silently.
        with pytest.raises(ConvergenceError):
            gauss_hermite_rule(1200)

    @pytest.mark.parametrize("fn", [scalar_mmse, scalar_mi])
    def test_channel_functions_agree(self, fn):
        # mi is eta minus an expectation of size about eta, so round-off in
        # either rule moves it by a few units in the last place of eta
        # (2 ulps, 1.4e-14, at eta = 49.2, where the numpy rule is the one
        # closer to a 40-digit value).
        ref = self.scipy_rule(DEFAULT_ORDER)
        for eta in np.linspace(0.01, 50.0, 200):
            assert abs(fn(eta) - fn(eta, rule=ref)) <= max(1e-14, 4 * np.spacing(eta))


class TestTrimmedDefaultRule:
    """The default rule is the order-501 rule without its nodes of weight
    below 1e-20."""

    def test_keeps_the_significant_nodes(self):
        full, rule = gauss_hermite_rule(DEFAULT_ORDER), scalar_channel._default_rule()
        keep = full.weights >= 1e-20
        assert keep.sum() == 131
        np.testing.assert_array_equal(rule.nodes, full.nodes[keep])
        np.testing.assert_array_equal(rule.weights, full.weights[keep])
        assert np.max(np.abs(rule.nodes)) < 9.19
        assert full.weights[~keep].sum() < 1e-19

    @pytest.mark.parametrize("fn", [scalar_mmse, scalar_mi])
    def test_channel_functions_match_the_full_rule(self, fn):
        # mmse moves by the dropped mass plus the round-off of the shorter
        # sum; mi gets the bound of test_channel_functions_agree.
        full = gauss_hermite_rule(DEFAULT_ORDER)
        for eta in np.linspace(0.01, 50.0, 200):
            tol = 1e-15 if fn is scalar_mmse else max(1e-14, 4 * np.spacing(eta))
            assert abs(fn(eta) - fn(eta, rule=full)) <= tol


@pytest.mark.parametrize("fn", [scalar_mmse, scalar_mi])
@pytest.mark.parametrize("eta", [-0.1, -1e-9, np.nan, np.inf, -np.inf])
def test_channel_functions_reject_snr_outside_domain(fn, eta):
    with pytest.raises(ValueError, match="finite nonnegative"):
        fn(eta)


class TestScalarMmse:
    def test_zero_snr_exact(self):
        assert scalar_mmse(0.0) == 1.0

    def test_high_snr_small(self):
        assert scalar_mmse(25.0) < 1e-4

    def test_monte_carlo_cross_check(self):
        # Second, independent oracle for the same expectation.
        assert abs(scalar_mmse(1.0) - mmse_monte_carlo(1.0)) < 1e-3

    def test_bounds_and_strict_decrease(self):
        grid = np.linspace(0.01, 10.0, 200)
        vals = np.array([scalar_mmse(e) for e in grid])
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) < 0.0)


class TestScalarMi:
    def test_zero_snr_exact(self):
        assert scalar_mi(0.0) == 0.0

    def test_saturation(self):
        assert abs(scalar_mi(25.0) - np.log(2.0)) < 1e-3

    def test_bounds_and_monotone(self):
        grid = np.linspace(0.0, 30.0, 120)
        vals = np.array([scalar_mi(e) for e in grid])
        assert np.all((vals >= 0.0) & (vals <= np.log(2.0)))
        assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_information_mmse_identity(self, eta):
        # Central finite differences of the information curve must match
        # half the mmse; this ties the two quadratures together and is the
        # strongest correctness check this module has.
        h = 1e-5
        fd = (scalar_mi(eta + h) - scalar_mi(eta - h)) / (2 * h)
        assert abs(fd - scalar_mmse(eta) / 2.0) < 1e-6


def test_log_cosh_overflow_safe():
    assert np.isfinite(log_cosh(800.0))
    assert abs(log_cosh(800.0) - (800.0 - np.log(2.0))) < 1e-12
    assert abs(log_cosh(0.0)) == 0.0
    x = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(log_cosh(x), np.log(np.cosh(x)), atol=1e-12)
