import numpy as np
import pytest

from mvamp.exceptions import ConvergenceError
from mvamp.scalar_channel import scalar_mmse
from mvamp.state_evolution import (SeConfig, detection_possible, fixed_point_z,
                                   gamma_star, limit_mmse, se_run, se_scalar_step,
                                   xi_limit)

from oracles import bisect_fixed_point, denoiser_ratios, scalar_map, trapezoid_adaptive


def cfg(lam, mu, c, eps=0.0, **kw):
    return SeConfig(lam=lam, mu=mu, c=c, eps=eps, **kw)


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["lam", "mu", "c", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        args = {"lam": 1.0, "mu": 1.0, "c": 1.0, "eps": 0.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            SeConfig(**args)

    def test_random_interval_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            cfg(2.0, 1.0, 1.0, init_mode="random-interval")


class TestScalarStep:
    def test_origin_without_revelation(self):
        assert se_scalar_step(0.0, cfg(1.0, 1.0, 1.0)) == 0.0

    def test_origin_with_revelation(self):
        # G_eps(0) = 1 - (1 - eps) mmse((mu / c) eps): with nothing else to go
        # on, the revealed labels and the revealed spike coordinates survive.
        eps, mu, c = 0.3, 1.0, 2.0
        expected = 1.0 - (1.0 - eps) * scalar_mmse((mu / c) * eps)
        assert abs(se_scalar_step(0.0, cfg(1.0, mu, c, eps=eps)) - expected) < 1e-15
        assert expected > eps

    def test_network_only_step(self):
        expected = 1.0 - scalar_mmse(4.0)
        assert abs(se_scalar_step(1.0, cfg(4.0, 0.0, 1.0)) - expected) < 1e-14

    def test_domain_check(self):
        with pytest.raises(ValueError):
            se_scalar_step(1.0001, cfg(1.0, 1.0, 1.0))

    def test_monotone_and_concave(self):
        c = cfg(2.0, 1.0, 1.5, eps=0.05)
        zs = np.linspace(0.0, 1.0, 1001)
        vals = np.array([se_scalar_step(z, c) for z in zs])
        slopes = np.diff(vals) / np.diff(zs)
        assert np.all(slopes >= -1e-12)
        assert np.all(np.diff(slopes) <= 1e-9)


class TestFixedPoint:
    def test_subcritical_random_points(self):
        rng = np.random.default_rng(1)
        found = 0
        while found < 20:
            lam = rng.uniform(0.0, 1.0)
            mu = rng.uniform(0.0, 1.0)
            c = rng.uniform(0.5, 3.0)
            if lam + mu ** 2 / c > 0.97:
                continue
            found += 1
            assert abs(fixed_point_z(cfg(lam, mu, c))) < 1e-10

    def test_supercritical_random_points_vs_bisection(self):
        rng = np.random.default_rng(2)
        found = 0
        while found < 20:
            lam = rng.uniform(0.0, 4.0)
            mu = rng.uniform(0.0, 2.0)
            c = rng.uniform(0.5, 3.0)
            if lam + mu ** 2 / c < 1.1:
                continue
            found += 1
            z = fixed_point_z(cfg(lam, mu, c))
            g = scalar_map(lam, mu, c)
            assert 0.0 < z < 1.0
            assert abs(z - g(z)) < 1e-10
            assert abs(z - bisect_fixed_point(g)) < 1e-9

    def test_boundary_examples(self):
        assert fixed_point_z(cfg(0.5, 0.5, 5.0 / 3.0)) == 0.0  # 0.5 + 0.15 = 0.65
        assert fixed_point_z(cfg(0.0, 0.0, 1.0)) == 0.0

    def test_network_only_vs_bisection(self):
        z = fixed_point_z(cfg(4.0, 0.0, 1.0))
        assert abs(z - bisect_fixed_point(scalar_map(4.0, 0.0, 1.0))) < 1e-10

    def test_residual_contract(self):
        c = cfg(2.5, 0.7, 1.2)
        z = fixed_point_z(c)
        assert abs(z - se_scalar_step(z, c)) < 1e-11

    def test_monotone_in_signal_strengths(self):
        zs = [fixed_point_z(cfg(lam, 0.5, 1.0)) for lam in (1.0, 2.0, 3.0, 4.0)]
        assert all(b >= a - 1e-12 for a, b in zip(zs, zs[1:]))
        zs = [fixed_point_z(cfg(1.5, mu, 1.0)) for mu in (0.0, 0.5, 1.0, 1.5)]
        assert all(b >= a - 1e-12 for a, b in zip(zs, zs[1:]))

    def test_revelation_limit_shrinks_to_plain_fixed_point(self):
        base = fixed_point_z(cfg(2.0, 1.0, 1.0))
        gaps = [abs(fixed_point_z(cfg(2.0, 1.0, 1.0, eps=e)) - base)
                for e in (1e-2, 1e-4, 1e-6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    def test_convergence_error_carries_residual(self):
        # 1e-4 above the threshold G'(z*) is so close to 1 that the
        # iteration cap is reached first.
        with pytest.raises(ConvergenceError) as err:
            fixed_point_z(cfg(1.0 - 0.81 / (5.0 / 3.0) + 1e-4, 0.9, 5.0 / 3.0))
        assert 1e-9 < err.value.residual < 1e-8
        assert err.value.iterations == 10_000


class TestLimits:
    def test_boundary_mmse_is_one(self):
        assert limit_mmse(1.0, 0.0, 1.0) == 1.0
        assert limit_mmse(0.0, 0.0, 1.0) == 1.0

    def test_supercritical_mmse_from_bisection(self):
        z = bisect_fixed_point(scalar_map(4.0, 0.0, 1.0))
        assert abs(limit_mmse(4.0, 0.0, 1.0) - (1.0 - z ** 2)) < 1e-9

    def test_monotone_on_grid(self):
        vals = [limit_mmse(lam, 0.7, 1.0) for lam in np.linspace(0.0, 5.0, 11)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        vals = [limit_mmse(1.2, mu, 1.0) for mu in np.linspace(0.0, 3.0, 11)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("lam,mu,c", [(0.5, 0.5, 5 / 3), (1.5, 0.9, 5 / 3),
                                          (4.0, 0.0, 1.0), (0.0, 2.0, 1.0)])
    def test_revelation_limit_falls_with_eps(self, lam, mu, c):
        # 1 - z*_eps^2 from the revealed recursion: below the eps = 0 limit
        # and falling as more of the truth is revealed
        vals = [limit_mmse(lam, mu, c, eps) for eps in (0.0, 0.1, 0.3, 0.6)]
        assert vals[0] == limit_mmse(lam, mu, c)
        assert vals[2] == 1.0 - fixed_point_z(cfg(lam, mu, c, eps=0.3)) ** 2
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_full_revelation_limit_is_zero(self):
        assert limit_mmse(0.5, 0.5, 5 / 3, 1.0) == 0.0

    @pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
    def test_revelation_limit_checks_eps(self, eps):
        with pytest.raises(ValueError, match="eps|revelation fraction"):
            limit_mmse(2.0, 0.9, 5 / 3, eps)

    def test_detection_threshold(self):
        assert not detection_possible(1.0, 0.0, 1.0)   # boundary is undetectable
        assert detection_possible(0.6, 0.9, 1.5)       # 0.6 + 0.54 = 1.14
        assert not detection_possible(0.0, 1.0, 1.001)
        assert detection_possible(0.0, 1.0, 0.999)


class TestXi:
    def test_no_signal_is_zero(self):
        assert abs(xi_limit(0.0, 0.0, 1.0)) < 1e-13

    def test_saturates_at_log_two(self):
        assert abs(xi_limit(50.0, 0.0, 1.0) - np.log(2.0)) < 1e-3

    @pytest.mark.parametrize("lam,mu,c", [(2.0, 1.0, 1.0), (4.0, 0.5, 2.0)])
    def test_integral_identity(self, lam, mu, c):
        # The closed form must match integrating the quarter-MMSE curve up
        # from the covariate-only value.
        def quarter_mmse(t):
            return limit_mmse(t, mu, c) / 4.0

        integral = trapezoid_adaptive(quarter_mmse, 0.0, lam, panels=200, tol=2e-5)
        assert abs(xi_limit(lam, mu, c) - (xi_limit(0.0, mu, c) + integral)) < 1e-4


class TestGammaStar:
    def test_no_spike(self):
        assert gamma_star(0.0, 1.0) == 0.0

    def test_subcritical_spike(self):
        assert gamma_star(0.9, 1.0) == 0.0   # mu^2 / c = 0.81 <= 1
        assert gamma_star(1.0, 1.0) == 0.0   # boundary

    def test_supercritical_vs_bisection(self):
        g = scalar_map(0.0, 2.0, 1.0)
        assert abs(gamma_star(2.0, 1.0) - bisect_fixed_point(g)) < 1e-10

    def test_equals_covariate_only_fixed_point(self):
        assert gamma_star(2.0, 1.0) == fixed_point_z(cfg(0.0, 2.0, 1.0))


class TestSeRun:
    def test_deterministic_seed_monotone_to_fixed_point(self):
        c = cfg(2.0, 1.0, 1.0, t_max=200)
        traj = se_run(c)
        assert np.all(np.diff(traj.z) <= 1e-12)
        assert abs(traj.z[-1] - fixed_point_z(c)) < 1e-8

    def test_full_revelation_locks_to_one(self):
        traj = se_run(cfg(1.0, 1.0, 1.0, eps=1.0, t_max=20))
        np.testing.assert_allclose(traj.z, 1.0, atol=1e-14)

    def test_zero_start_stays_zero_without_revelation(self):
        traj = se_run(cfg(2.0, 1.0, 1.0, init_mode="zero", t_max=50))
        assert np.all(traj.z == 0.0)
        assert np.all(traj.b == 0.0)

    def test_zero_start_with_revelation_leaves_origin(self):
        traj = se_run(cfg(2.0, 1.0, 1.0, eps=0.1, init_mode="zero", t_max=50))
        assert abs(traj.z[0] - 0.1) < 1e-14
        assert traj.z[5] > 0.5

    @pytest.mark.parametrize("lam,mu,c", [(2.0, 1.0, 1.0), (0.0, 1.5, 5 / 3),
                                          (3.0, 0.0, 0.6), (0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("init_mode", ["deterministic-z1", "zero", "random-interval"])
    def test_denoiser_schedule_matches_channel_parameters(self, lam, mu, c, eps, init_mode):
        traj = se_run(cfg(lam, mu, c, eps=eps, init_mode=init_mode, seed=7, t_max=30))
        for got, ref in zip((traj.a, traj.b, traj.g_slope), denoiser_ratios(traj.cfg, traj.z)):
            np.testing.assert_array_equal(got == 0.0, ref == 0.0)
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))

    def test_z_in_unit_interval(self):
        traj = se_run(cfg(3.0, 0.5, 2.0, eps=0.2, t_max=40,
                          init_mode="random-interval", seed=5))
        assert np.all((traj.z >= 0.0) & (traj.z <= 1.0))

    def test_random_interval_reproducible(self):
        c = cfg(2.0, 1.0, 1.0, init_mode="random-interval", seed=11, t_max=10)
        a, b = se_run(c), se_run(c)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.b, b.b)
