import numpy as np
import pytest
from scipy.linalg.blas import ssymv

from mvamp.amp import (DenoiserParams, amp_step, denoise_f, denoise_g, init_state,
                       onsager_coeffs, run_amp, solve_a0, spectral_initialize)
from mvamp.exceptions import DivergenceError
from mvamp.experiments import empirical_mse
from mvamp.linalg import DenseSymmetricOperator, RectOperator
from mvamp.model import (RevelationMasks, sample_covariates, sample_gaussian_surrogate,
                         sample_labels, sample_revelation, substream)
from mvamp.state_evolution import SeConfig, se_run

from oracles import gaussian_posterior_mean, trace_mean_fd, two_point_posterior


def make_masks(n, p, eps, seed=0):
    lab = sample_labels(n, substream(seed, 0))
    v = np.random.default_rng(seed + 1).standard_normal(p)
    return lab, sample_revelation(lab, v, eps, substream(seed, 1))


class TestDenoiseF:
    def test_revealed_coordinate(self):
        val, du, dx = denoise_f(np.array([3.0]), np.array([-2.0]), np.array([1.0]),
                                np.array([True]), DenoiserParams(1.0, 2.0, 0.0))
        assert (val[0], du[0], dx[0]) == (1.0, 0.0, 0.0)

    def test_origin_derivatives(self):
        params = DenoiserParams(a=0.7, b=1.3, g_slope=0.0)
        val, du, dx = denoise_f(np.zeros(3), np.zeros(3), np.zeros(3),
                                np.zeros(3, bool), params)
        np.testing.assert_array_equal(val, 0.0)
        np.testing.assert_array_equal(du, 0.7)
        np.testing.assert_array_equal(dx, 1.3)

    def test_cancelling_arguments(self):
        val, _, _ = denoise_f(np.array([0.5]), np.array([-0.25]), np.array([0.0]),
                              np.array([False]), DenoiserParams(1.0, 2.0, 0.0))
        assert val[0] == 0.0

    def test_two_point_posterior_oracle(self):
        # the tanh form must coincide with the literal two-point posterior
        # mean; this pins the sign convention of both coefficients
        rng = np.random.default_rng(42)
        n = 10_000
        u = rng.normal(0.0, 2.0, n)
        x = rng.normal(0.0, 2.0, n)
        alpha, tau = rng.uniform(0.1, 2.0, n), rng.uniform(0.5, 2.0, n)
        mu, sigma = rng.uniform(0.1, 2.0, n), rng.uniform(0.5, 2.0, n)
        oracle = two_point_posterior(u, x, alpha, tau, mu, sigma)
        for i in range(0, n, 250):
            params = DenoiserParams(a=alpha[i] / tau[i] ** 2,
                                    b=mu[i] / sigma[i] ** 2, g_slope=0.0)
            val, _, _ = denoise_f(u[i], x[i], 0.0, False, params)
            assert abs(float(val) - oracle[i]) < 1e-12
        # vectorized pass over everything at a fixed parameter set
        params = DenoiserParams(a=0.9 / 1.1 ** 2, b=1.4 / 0.8 ** 2, g_slope=0.0)
        val, _, _ = denoise_f(u, x, np.zeros(n), np.zeros(n, bool), params)
        oracle = two_point_posterior(u, x, 0.9, 1.1, 1.4, 0.8)
        np.testing.assert_allclose(val, oracle, atol=1e-12)

    def test_derivatives_match_finite_differences(self):
        params = DenoiserParams(a=0.8, b=1.7, g_slope=0.0)
        u, x = np.array([0.3]), np.array([-1.1])
        h = 1e-6
        val, du, dx = denoise_f(u, x, np.zeros(1), np.zeros(1, bool), params)
        fd_u = (denoise_f(u + h, x, 0.0, False, params)[0]
                - denoise_f(u - h, x, 0.0, False, params)[0]) / (2 * h)
        fd_x = (denoise_f(u, x + h, 0.0, False, params)[0]
                - denoise_f(u, x - h, 0.0, False, params)[0]) / (2 * h)
        assert abs(du[0] - fd_u[0]) < 1e-9
        assert abs(dx[0] - fd_x[0]) < 1e-9


class TestDenoiseG:
    def test_revealed(self):
        val, dv = denoise_g(np.array([5.0]), np.array([1.7]), np.array([True]),
                            DenoiserParams(0.0, 0.0, 0.4))
        assert (val[0], dv[0]) == (1.7, 0.0)

    def test_linear(self):
        val, dv = denoise_g(np.array([2.0]), np.array([0.0]), np.array([False]),
                            DenoiserParams(0.0, 0.0, 0.4))
        assert (val[0], dv[0]) == (0.8, 0.4)

    def test_gaussian_conjugacy_oracle(self):
        # slope beta / (beta^2 + vartheta^2) is the posterior mean of a
        # standard normal prior seen through beta V + vartheta Z
        rng = np.random.default_rng(7)
        for beta, vartheta in [(0.5, 1.0), (2.0, 0.7), (0.1, 3.0)]:
            v = rng.normal(0.0, 2.0, 40)
            slope = beta / (beta ** 2 + vartheta ** 2)
            val, _ = denoise_g(v, np.zeros(40), np.zeros(40, bool),
                               DenoiserParams(0.0, 0.0, slope))
            oracle = gaussian_posterior_mean(v, beta, vartheta)
            np.testing.assert_allclose(val, oracle, atol=1e-9)


class TestOnsagerCoeffs:
    def test_fully_revealed_vanishes(self):
        n, p = 30, 20
        _, masks = make_masks(n, p, eps=1.0, seed=3)
        params = DenoiserParams(a=0.5, b=0.8, g_slope=0.3)
        _, du, dx = denoise_f(np.ones(n), np.ones(n), masks.x0, masks.mask_x, params)
        _, dv = denoise_g(np.ones(p), masks.v0, masks.mask_v, params)
        assert onsager_coeffs(du, dx, dv, n, p) == (0.0, 0.0, 0.0)

    def test_zero_iterates_closed_form(self):
        n, p = 24, 16
        _, masks = make_masks(n, p, eps=0.0, seed=4)
        params = DenoiserParams(a=0.5, b=0.8, g_slope=0.3)
        _, du, dx = denoise_f(np.zeros(n), np.zeros(n), masks.x0, masks.mask_x, params)
        _, dv = denoise_g(np.zeros(p), masks.v0, masks.mask_v, params)
        c_t, p_t, d_t = onsager_coeffs(du, dx, dv, n, p)
        assert abs(p_t - (n / p) * params.a) < 1e-15
        assert abs(d_t - params.b) < 1e-15
        assert abs(c_t - params.g_slope) < 1e-15

    def test_matches_finite_differences(self):
        n, p = 18, 12
        _, masks = make_masks(n, p, eps=0.3, seed=5)
        rng = np.random.default_rng(6)
        u, x, v = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(p)
        params = DenoiserParams(a=0.9, b=1.2, g_slope=0.45)
        _, du, dx = denoise_f(u, x, masks.x0, masks.mask_x, params)
        _, dv = denoise_g(v, masks.v0, masks.mask_v, params)
        c_t, p_t, d_t = onsager_coeffs(du, dx, dv, n, p)

        f_of_u = lambda uu: denoise_f(uu, x, masks.x0, masks.mask_x, params)[0]
        f_of_x = lambda xx: denoise_f(u, xx, masks.x0, masks.mask_x, params)[0]
        g_of_v = lambda vv: denoise_g(vv, masks.v0, masks.mask_v, params)[0]
        assert abs(p_t - (n / p) * trace_mean_fd(f_of_u, u)) < 1e-6
        assert abs(d_t - trace_mean_fd(f_of_x, x)) < 1e-6
        assert abs(c_t - trace_mean_fd(g_of_v, v)) < 1e-6


def small_instance(n=8, p=5, lam=2.0, mu=1.0, eps=0.25, seed=11):
    lab = sample_labels(n, substream(seed, 0))
    cov = sample_covariates(lab, mu, p, substream(seed, 1))
    surr = sample_gaussian_surrogate(lab, lam, substream(seed, 2))
    masks = sample_revelation(lab, cov.v_star, eps, substream(seed, 3))
    sym_op = DenseSymmetricOperator(surr.T, denom=np.sqrt(n))
    b_op = RectOperator(cov.B)
    traj = se_run(SeConfig(lam=lam, mu=mu, c=n / p, eps=eps, t_max=12))
    return lab, surr, cov, masks, sym_op, b_op, traj


class TestAmpStep:
    def test_zero_fixed_point(self):
        # eps = 0 with zero iterates: the origin is a fixed point (this is
        # why the spectral start or revelation exists)
        n, p = 10, 6
        lab, _, cov, _, sym_op, b_op, _ = small_instance(n, p, eps=0.25)
        masks = sample_revelation(lab, cov.v_star, 0.0, substream(99, 0))
        traj = se_run(SeConfig(lam=2.0, mu=1.0, c=n / p, eps=0.0, t_max=6))
        state = init_state(np.zeros(n), masks, traj, p)
        for _ in range(3):
            state = amp_step(state, sym_op, b_op, masks, traj)
        np.testing.assert_array_equal(state.q, np.zeros(n))
        np.testing.assert_array_equal(state.u, np.zeros(n))

    def test_straight_line_transcription_oracle(self):
        """Two steps must agree bit for bit with a straight-line rewrite of
        the update equations on dense arrays, with no operator layer.  The
        stored matrices are float32: each product casts its vector to
        float32 and its result back to float64, and the symmetric product
        reads the upper triangle of T by BLAS ssymv."""
        n, p = 8, 5
        lab, surr, cov, masks, sym_op, b_op, traj = small_instance(n, p)
        state = init_state(np.zeros(n), masks, traj, p)
        s1 = amp_step(state, sym_op, b_op, masks, traj)
        s2 = amp_step(s1, sym_op, b_op, masks, traj)

        T, B = surr.T, cov.B
        f32, f64 = np.float32, np.float64
        x0, mask_x, v0, mask_v = masks.x0, masks.mask_x, masks.v0, masks.mask_v
        sqrt_n, sqrt_p = np.sqrt(n), np.sqrt(p)
        u, x = np.zeros(n), np.zeros(n)
        q_prev, m_prev = np.zeros(n), np.zeros(p)
        q = np.where(mask_x, x0, np.tanh(traj.a[0] * u + traj.b[0] * x))
        for t in range(2):
            a, b, g = traj.a[t], traj.b[t], traj.g_slope[t]
            sech2 = np.where(mask_x, 0.0, 1.0 - q * q)
            p_t = (n / p) * np.sum(a * sech2) / n
            d_t = np.sum(b * sech2) / n
            v = (B @ q.astype(f32)).astype(f64) / sqrt_p - p_t * m_prev
            m = np.where(mask_v, v0, g * v)
            c_t = np.sum(np.where(mask_v, 0.0, g)) / p
            u_next = (B.T @ m.astype(f32)).astype(f64) / sqrt_p - c_t * q
            x_next = (ssymv(1.0, T.T, q.astype(f32), lower=1).astype(f64) / sqrt_n
                      - d_t * q_prev)
            q_next = np.where(mask_x, x0,
                              np.tanh(traj.a[t + 1] * u_next + traj.b[t + 1] * x_next))
            q_prev, m_prev, u, x, q = q, m, u_next, x_next, q_next

        np.testing.assert_array_equal(s2.q, q)
        np.testing.assert_array_equal(s2.u, u)
        np.testing.assert_array_equal(s2.x, x)
        np.testing.assert_array_equal(s2.v, v)
        np.testing.assert_array_equal(s2.m_prev, m)

    def test_one_step_progress_from_spectral_init(self):
        lam, mu, n, p = 4.0, 0.9, 500, 300
        gains = []
        for rep in range(20):
            lab = sample_labels(n, substream(200 + rep, 0))
            cov = sample_covariates(lab, mu, p, substream(200 + rep, 1))
            surr = sample_gaussian_surrogate(lab, lam, substream(200 + rep, 2))
            masks = sample_revelation(lab, cov.v_star, 0.0, substream(200 + rep, 3))
            sym_op = DenseSymmetricOperator(surr.T, denom=np.sqrt(n))
            b_op = RectOperator(cov.B)
            traj = se_run(SeConfig(lam=lam, mu=mu, c=n / p, eps=0.0, t_max=4))
            a0 = solve_a0(lam, mu, n / p)
            vec = spectral_initialize(sym_op, b_op, a0, substream(200 + rep, 4), tol=1e-5)
            state = init_state(vec, masks, traj, p)
            ov0 = abs(np.dot(state.q, lab.x_star)) / n
            state = amp_step(state, sym_op, b_op, masks, traj)
            ov1 = abs(np.dot(state.q, lab.x_star)) / n
            gains.append(ov1 - ov0)
        assert np.mean(gains) > 0.0

    def test_divergence_detection(self):
        # a corrupted (non-finite) data entry must abort with the step index
        # instead of silently propagating; numpy warns about the invalid
        # value in the product over the infinite entry on the way
        n, p = 8, 5
        lab, surr, cov, masks, sym_op, b_op, traj = small_instance(n, p)
        bad = cov.B.copy()
        bad[2, 3] = np.inf
        state = init_state(np.zeros(n), masks, traj, p)
        with pytest.warns(RuntimeWarning, match="invalid value"), \
                pytest.raises(DivergenceError) as err:
            s = state
            for _ in range(3):
                s = amp_step(s, sym_op, RectOperator(bad), masks, traj)
        assert err.value.step == 1


class TestRunAmp:
    def test_full_revelation_recovers_exactly(self):
        n, p = 40, 25
        lab, _, cov, _, sym_op, b_op, _ = small_instance(n, p, seed=21)
        masks = sample_revelation(lab, cov.v_star, 1.0, substream(21, 5))
        traj = se_run(SeConfig(lam=2.0, mu=1.0, c=n / p, eps=1.0, t_max=3))
        out = run_amp(sym_op, b_op, masks, traj, n_iter=1,
                      init=init_state(np.zeros(n), masks, traj, p), x_star=lab.x_star)
        np.testing.assert_array_equal(out.x_hat, lab.x_star)
        assert empirical_mse(out.x_hat, lab.x_star) == 0.0

    def test_early_stop(self):
        # float64 copies of the stored float32 matrices: with float32 products
        # the step change of s^2 = (<q, q> / n)^2 settles near 1e-8 and may
        # never fall below 1e-8
        n, p = 60, 40
        lab, surr, cov, masks, _, _, traj = small_instance(n, p, lam=3.0, seed=22)
        sym_op = DenseSymmetricOperator(surr.T.astype(np.float64), denom=np.sqrt(n))
        b_op = RectOperator(cov.B.astype(np.float64))
        traj = se_run(SeConfig(lam=3.0, mu=1.0, c=n / p, eps=0.25, t_max=101))
        out = run_amp(sym_op, b_op, masks, traj, n_iter=100,
                      init=init_state(np.zeros(n), masks, traj, p), x_star=lab.x_star,
                      stop_tol=1e-8)
        assert out.n_steps < 100
        assert len(out.overlap) == out.n_steps + 1

    def test_stop_uses_no_labels(self):
        # the stop watches <q, q> / n only, so the labels, which run_amp
        # takes for its overlap diagnostic alone, change neither where it
        # stops nor what it returns
        n, p = 300, 180
        lab, _, _, masks, sym_op, b_op, _ = small_instance(n, p, lam=3.0, seed=23)
        traj = se_run(SeConfig(lam=3.0, mu=1.0, c=n / p, eps=0.25, t_max=101))
        init = init_state(np.zeros(n), masks, traj, p)
        with_labels = run_amp(sym_op, b_op, masks, traj, init, n_iter=100,
                              x_star=lab.x_star, stop_tol=1e-4)
        without = run_amp(sym_op, b_op, masks, traj, init, n_iter=100, stop_tol=1e-4)
        assert 2 <= with_labels.n_steps < 100
        assert without.n_steps == with_labels.n_steps
        np.testing.assert_array_equal(without.x_hat, with_labels.x_hat)
        np.testing.assert_array_equal(without.self_overlap, with_labels.self_overlap)
        assert without.overlap.size == 0

    @pytest.mark.parametrize("tol", [-1e-6, float("nan"), float("inf")])
    def test_early_stop_tol_must_be_nonnegative(self, tol):
        # a NaN tolerance would never stop (a change < nan is always
        # False), and an infinite one would stop every run at step 2
        n, p = 8, 5
        _, _, _, masks, sym_op, b_op, traj = small_instance(n, p)
        with pytest.raises(ValueError, match="stop_tol"):
            run_amp(sym_op, b_op, masks, traj, n_iter=3,
                    init=init_state(np.zeros(n), masks, traj, p), stop_tol=tol)

    def test_trajectory_length_guard(self):
        n, p = 8, 5
        _, _, _, masks, sym_op, b_op, traj = small_instance(n, p)
        with pytest.raises(ValueError):
            run_amp(sym_op, b_op, masks, traj, n_iter=len(traj),
                    init=init_state(np.zeros(n), masks, traj, p))

    def test_init_is_required(self):
        # the zero start is a fixed point at eps = 0 (test_zero_fixed_point),
        # so a missing start must fail rather than return x_hat = 0
        n, p = 8, 5
        _, _, _, masks, sym_op, b_op, traj = small_instance(n, p)
        with pytest.raises(TypeError, match="init"):
            run_amp(sym_op, b_op, masks, traj, n_iter=3)

    def test_sign_flip_invariance(self):
        # flipping the initializer flips every unrevealed iterate exactly
        # and leaves the mse bit-identical (no revelation => all flipped)
        n, p, lam, mu = 200, 120, 3.0, 0.8
        lab = sample_labels(n, substream(23, 0))
        cov = sample_covariates(lab, mu, p, substream(23, 1))
        surr = sample_gaussian_surrogate(lab, lam, substream(23, 2))
        masks = sample_revelation(lab, cov.v_star, 0.0, substream(23, 3))
        sym_op = DenseSymmetricOperator(surr.T, denom=np.sqrt(n))
        b_op = RectOperator(cov.B)
        traj = se_run(SeConfig(lam=lam, mu=mu, c=n / p, eps=0.0, t_max=7))
        vec = spectral_initialize(sym_op, b_op, solve_a0(lam, mu, n / p),
                                  substream(23, 4), tol=1e-6)
        out_plus = run_amp(sym_op, b_op, masks, traj, n_iter=5,
                           init=init_state(vec, masks, traj, p),
                           x_star=lab.x_star)
        out_minus = run_amp(sym_op, b_op, masks, traj, n_iter=5,
                            init=init_state(-vec, masks, traj, p),
                            x_star=lab.x_star)
        np.testing.assert_array_equal(out_minus.x_hat, -out_plus.x_hat)
        assert (empirical_mse(out_minus.x_hat, lab.x_star)
                == empirical_mse(out_plus.x_hat, lab.x_star))

    def test_permutation_equivariance(self):
        n, p, lam, mu, eps = 60, 40, 2.5, 1.0, 0.2
        lab = sample_labels(n, substream(24, 0))
        cov = sample_covariates(lab, mu, p, substream(24, 1))
        surr = sample_gaussian_surrogate(lab, lam, substream(24, 2))
        masks = sample_revelation(lab, cov.v_star, eps, substream(24, 3))
        traj = se_run(SeConfig(lam=lam, mu=mu, c=n / p, eps=eps, t_max=4))

        def final_q(T, B, x0, mask_x):
            mm = RevelationMasks(eps=eps, x0=x0, mask_x=mask_x,
                                 v0=masks.v0, mask_v=masks.mask_v)
            sym = DenseSymmetricOperator(T, denom=np.sqrt(n))
            return run_amp(sym, RectOperator(B), mm, traj, n_iter=3,
                           init=init_state(np.zeros(n), mm, traj, p)).x_hat

        # float64 copies: a float32 product summed in another order differs
        # by float32 round-off, far above the 1e-10 this test resolves
        T, B = surr.T.astype(np.float64), cov.B.astype(np.float64)
        base = final_q(T, B, masks.x0, masks.mask_x)
        perm = np.random.default_rng(25).permutation(n)
        permuted = final_q(T[np.ix_(perm, perm)], B[:, perm],
                           masks.x0[perm], masks.mask_x[perm])
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


class TestSolveA0:
    def test_rhs_vanishes_at_origin(self):
        from mvamp.amp import _a0_rhs
        for lam, mu, c in [(1.0, 1.0, 1.0), (3.0, 0.5, 2.0)]:
            assert _a0_rhs(0.0, lam, mu, c) == 0.0

    def test_residual(self):
        from mvamp.amp import _a0_rhs
        a0 = solve_a0(1.0, 1.0, 1.0)
        assert abs(_a0_rhs(a0, 1.0, 1.0, 1.0) - 1.0) < 1e-10

    def test_monotone_rhs_on_bracket(self):
        from mvamp.amp import _a0_rhs
        for lam, mu, c in [(0.5, 0.5, 0.5), (2.0, 1.5, 1.0), (4.0, 0.3, 3.0)]:
            a_star = solve_a0(lam, mu, c)
            grid = np.linspace(0.0, 2 * a_star, 50)
            vals = [_a0_rhs(a, lam, mu, c) for a in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_residual_grid(self):
        from mvamp.amp import _a0_rhs
        for lam in np.linspace(0.5, 4.5, 5):
            for mu in np.linspace(0.3, 2.0, 5):
                for c in (0.5, 1.0, 2.5):
                    a0 = solve_a0(lam, mu, c)
                    assert abs(_a0_rhs(a0, lam, mu, c) - mu / (c * lam)) < 1e-10

    def test_matches_high_precision_root(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50

        def mp_root(lam, mu, c):
            lam, mu, c = mp.mpf(lam), mp.mpf(mu), mp.mpf(c)
            target = mu / (c * lam)

            def f(a):  # _a0_rhs(a) - target at 50 digits
                s = lam + (c + mu) * a * a
                return (-lam + (c + mu) * a * a
                        + mp.sqrt(s * s - 4 * lam * c * a * a)) / (2 * mu) - target

            hi = mp.mpf(1)  # the root lies in [hi / 2, hi]: rhs is increasing
            while f(hi) < 0:
                hi *= 2
            while f(hi / 2) > 0:
                hi /= 2
            return mp.findroot(f, (hi / 2, hi), solver="illinois")

        for lam in np.logspace(-3, 1, 9):
            for mu in np.logspace(-3, 1, 9):
                for c in (0.1, 1.0, 10.0):
                    exact = mp_root(lam, mu, c)
                    assert abs(solve_a0(lam, mu, c) - exact) <= 1e-14 * exact

    def test_degenerate_signals_rejected(self):
        with pytest.raises(ValueError):
            solve_a0(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_a0(1.0, 0.0, 1.0)


class TestSpectralInitialize:
    def test_norm_contract(self):
        n, p = 300, 200
        lab = sample_labels(n, substream(26, 0))
        cov = sample_covariates(lab, 1.0, p, substream(26, 1))
        surr = sample_gaussian_surrogate(lab, 3.0, substream(26, 2))
        vec = spectral_initialize(
            DenseSymmetricOperator(surr.T, denom=np.sqrt(n)), RectOperator(cov.B),
            solve_a0(3.0, 1.0, n / p), substream(26, 3), tol=1e-6)
        assert abs(np.linalg.norm(vec) - np.sqrt(n)) < 1e-8

    def test_informative_above_threshold(self):
        lam, mu, n, p = 4.0, 0.9, 1500, 900
        overlaps = []
        for rep in range(20):
            lab = sample_labels(n, substream(400 + rep, 0))
            cov = sample_covariates(lab, mu, p, substream(400 + rep, 1))
            surr = sample_gaussian_surrogate(lab, lam, substream(400 + rep, 2))
            vec = spectral_initialize(
                DenseSymmetricOperator(surr.T, denom=np.sqrt(n)),
                RectOperator(cov.B), solve_a0(lam, mu, n / p),
                substream(400 + rep, 3), tol=1e-4)
            overlaps.append(abs(np.dot(vec, lab.x_star)) / n)
        assert np.mean(overlaps) > 0.2

    def test_uninformative_below_threshold(self):
        lam, mu, n, p = 0.5, 0.5, 1500, 900
        overlaps = []
        for rep in range(20):
            lab = sample_labels(n, substream(500 + rep, 0))
            cov = sample_covariates(lab, mu, p, substream(500 + rep, 1))
            surr = sample_gaussian_surrogate(lab, lam, substream(500 + rep, 2))
            vec = spectral_initialize(
                DenseSymmetricOperator(surr.T, denom=np.sqrt(n)),
                RectOperator(cov.B), solve_a0(lam, mu, n / p),
                substream(500 + rep, 3), tol=1e-4)
            overlaps.append(abs(np.dot(vec, lab.x_star)) / n)
        assert np.mean(overlaps) < 0.1
