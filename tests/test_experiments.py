from dataclasses import replace

import numpy as np
import pytest

from mvamp import amp, experiments
from mvamp.experiments import (ExperimentConfig, empirical_mse, empirical_overlap,
                               run_replicate, run_sweep, se_consistency_check)
from mvamp.state_evolution import limit_mmse

from oracles import dense_matrix_mse


class TestEmpiricalMse:
    def test_perfect_and_flipped(self):
        x = np.array([1.0, -1.0, 1.0, 1.0])
        assert empirical_mse(x, x) == 0.0
        assert empirical_mse(-x, x) == 0.0

    def test_zero_estimate(self):
        x = np.array([1.0, -1.0, 1.0])
        assert empirical_mse(np.zeros(3), x) == 1.0

    def test_matches_dense_frobenius(self):
        rng = np.random.default_rng(0)
        for n in (3, 11, 26, 40):
            x_star = rng.choice([-1.0, 1.0], n)
            x_hat = rng.normal(0.0, 0.8, n)
            assert abs(empirical_mse(x_hat, x_star)
                       - dense_matrix_mse(x_hat, x_star)) < 1e-10

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            empirical_mse(np.zeros(3), np.ones(4))


class TestEmpiricalOverlap:
    def test_perfect_and_flipped(self):
        x = np.array([1.0, -1.0, -1.0, 1.0])
        assert empirical_overlap(x, x) == 1.0
        assert empirical_overlap(-x, x) == 1.0

    def test_random_signs_small(self):
        rng = np.random.default_rng(1)
        n = 10_000
        x_star = rng.choice([-1.0, 1.0], n)
        x_hat = rng.choice([-1.0, 1.0], n)
        assert empirical_overlap(x_hat, x_star) < 0.05

    def test_zero_ties_break_positive(self):
        x_star = np.array([1.0, 1.0, -1.0])
        assert empirical_overlap(np.zeros(3), x_star) == pytest.approx(1.0 / 3.0)


def small_cfg(**kw):
    base = dict(family="gaussian", n=250, p=150, sweep_param="lambda",
                grid=(3.0,), fixed_value=0.9, replicates=2, n_iter=25, seed=13)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunReplicate:
    def test_deterministic(self):
        cfg = small_cfg()
        a = run_replicate(cfg, 0, 0)
        b = run_replicate(cfg, 0, 0)
        assert a.empirical_mse == b.empirical_mse
        np.testing.assert_array_equal(a.overlap_trajectory, b.overlap_trajectory)

    def test_distinct_replicates_differ(self):
        cfg = small_cfg()
        assert run_replicate(cfg, 0, 0).empirical_mse != run_replicate(cfg, 0, 1).empirical_mse

    def test_subthreshold_gaussian_mse_near_one(self):
        cfg = small_cfg(grid=(0.5,), fixed_value=0.5, n=600, p=360, replicates=1,
                        n_iter=50)
        r = run_replicate(cfg, 0, 0)
        assert r.empirical_mse > 0.9

    def test_stop_tol_zero_is_the_fixed_length_run(self, monkeypatch):
        cfg = small_cfg(n_iter=60)
        fixed = run_replicate(replace(cfg, stop_tol=0.0), 0, 0)
        assert fixed.n_steps == 60 and len(fixed.overlap_trajectory) == 61

        run_amp = experiments.run_amp

        def without_stop(*args, stop_tol=0.0, **kwargs):
            return run_amp(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_amp", without_stop)
        reference = run_replicate(cfg, 0, 0)
        assert fixed.empirical_mse == reference.empirical_mse
        assert fixed.empirical_overlap == reference.empirical_overlap
        np.testing.assert_array_equal(fixed.overlap_trajectory,
                                      reference.overlap_trajectory)

    def test_stops_above_threshold_and_runs_to_cap_below(self):
        # lambda + mu^2 / c is 2.99 and 0.99: the first settles within 1e-6,
        # the second keeps wandering near zero overlap
        above = run_replicate(small_cfg(n=600, p=360, grid=(2.5,), n_iter=100), 0, 0)
        assert above.n_steps < 100
        assert len(above.overlap_trajectory) == above.n_steps + 1
        below = run_replicate(small_cfg(n=600, p=360, grid=(0.5,), n_iter=100), 0, 0)
        assert below.n_steps == 100

    @pytest.mark.parametrize("sizes", [
        dict(family="gaussian", n=1500, p=900, grid=(2.5,)),
        dict(family="multilayer", n=2000, p=3000, grid=(2.0,), m=3,
             r_fractions=(0.6, 0.2, 0.2), p_bar_coeffs=(0.7, 0.4, 0.3)),
    ], ids=["gaussian", "multilayer"])
    def test_step_change_settles_at_the_float32_floor(self, monkeypatch, sizes):
        # With float32 products the RMS change of q between steps settles
        # near 1e-7 (below 1e-11 with float64 products): the default
        # stop_tol of 1e-6 lies above that floor.
        deltas = []
        step = amp.amp_step

        def recorded(state, *args):
            new = step(state, *args)
            deltas.append(np.linalg.norm(new.q - state.q) / np.sqrt(new.q.size))
            return new

        monkeypatch.setattr(amp, "amp_step", recorded)
        cfg = small_cfg(replicates=1, n_iter=100, stop_tol=0.0, **sizes)
        assert run_replicate(cfg, 0, 0).n_steps == 100
        assert max(deltas[-10:]) < 3e-7
        assert run_replicate(replace(cfg, stop_tol=1e-6), 0, 0).n_steps < 100

    def test_revelation_mode(self):
        cfg = small_cfg(init="revelation", eps=0.3, n_iter=15)
        r = run_replicate(cfg, 0, 0)
        assert 0.0 <= r.empirical_overlap <= 1.0
        assert len(r.overlap_trajectory) == 16


class TestRunSweep:
    def test_single_point_matches_replicate(self):
        cfg = small_cfg(replicates=1)
        agg = run_sweep(cfg)[0]
        rep = run_replicate(cfg, 0, 0)
        assert agg.mean_mse == rep.empirical_mse
        assert agg.sd_mse == 0.0
        assert agg.min_mse == agg.max_mse == rep.empirical_mse

    def test_theory_column_is_pure(self):
        cfg = small_cfg(grid=(1.5, 2.5, 3.5), replicates=1, n=120, p=72, n_iter=10)
        aggs = run_sweep(cfg)
        for a in aggs:
            assert a.theory_mmse == limit_mmse(a.lam, a.mu, cfg.c)
        assert [a.lam for a in aggs] == [1.5, 2.5, 3.5]

    def test_thread_count_does_not_change_results(self):
        cfg1 = small_cfg(grid=(2.0, 3.0), replicates=2, n=150, p=90, n_iter=10)
        cfg2 = small_cfg(grid=(2.0, 3.0), replicates=2, n=150, p=90, n_iter=10,
                         threads=2)
        a1, a2 = run_sweep(cfg1), run_sweep(cfg2)
        for x, y in zip(a1, a2):
            assert x.mean_mse == y.mean_mse
            assert x.sd_mse == y.sd_mse

    def test_steps_are_summarized_per_point(self):
        cfg = small_cfg(n=600, p=360, grid=(0.5, 2.5), replicates=2, n_iter=100)
        below, above = run_sweep(cfg)
        assert below.mean_steps == 100.0 and below.capped == 2
        assert above.mean_steps == np.mean([run_replicate(cfg, 1, r).n_steps
                                            for r in range(2)])
        assert above.mean_steps < 100.0 and above.capped == 0

    def test_mu_sweep(self):
        cfg = small_cfg(sweep_param="mu", grid=(0.5, 1.5), fixed_value=2.0,
                        replicates=1, n=150, p=90, n_iter=10)
        aggs = run_sweep(cfg)
        assert aggs[0].lam == 2.0 and aggs[0].mu == 0.5
        assert aggs[1].lam == 2.0 and aggs[1].mu == 1.5


    def test_failed_theory_point_is_recorded(self):
        # just above the threshold the fixed-point iteration hits its cap;
        # that row records the failure and the other rows are kept
        lam_edge = 1.0 - 0.81 / (5.0 / 3.0) + 1e-4
        cfg = ExperimentConfig(family="gaussian", n=200, p=120, sweep_param="lambda",
                               grid=(lam_edge, 3.0), fixed_value=0.9, replicates=1,
                               n_iter=5)
        edge, strong = run_sweep(cfg)
        assert np.isnan(edge.theory_mmse)
        assert len(edge.errors) == 1 and "ConvergenceError" in edge.errors[0]
        assert np.isfinite(edge.mean_mse)
        assert strong.errors == []
        assert strong.theory_mmse == limit_mmse(3.0, 0.9, cfg.c)


class TestConfigValidation:
    def test_family_and_sweep_checks(self):
        with pytest.raises(ValueError):
            small_cfg(family="nope")
        with pytest.raises(ValueError):
            small_cfg(sweep_param="gamma")
        with pytest.raises(ValueError):
            small_cfg(grid=())
        with pytest.raises(ValueError):
            small_cfg(grid=(-1.0,))

    def test_multilayer_fraction_checks(self):
        with pytest.raises(ValueError):
            small_cfg(family="multilayer", m=2, r_fractions=(0.6, 0.3),
                      p_bar_coeffs=(0.7, 0.4))
        with pytest.raises(ValueError):
            small_cfg(family="multilayer", m=2, r_fractions=(0.6, 0.4),
                      p_bar_coeffs=(0.7,))
        cfg = small_cfg(family="multilayer", m=2, r_fractions=(0.6, 0.4),
                        p_bar_coeffs=(0.9, 0.8), n=400, p=240)
        assert cfg.m == 2

    @pytest.mark.parametrize("tol", [-1e-6, float("nan"), float("inf")])
    def test_stop_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="stop_tol"):
            small_cfg(stop_tol=tol)

    @pytest.mark.parametrize("kw", [{"m": 3}, {"r_fractions": (0.5,)},
                                    {"p_bar_coeffs": (9.0,)}])
    def test_gaussian_rejects_layer_settings(self, kw):
        with pytest.raises(ValueError, match="gaussian"):
            small_cfg(**kw)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5, float("nan")])
    def test_revelation_needs_eps(self, eps):
        with pytest.raises(ValueError, match="revelation init requires eps"):
            small_cfg(init="revelation", eps=eps)

    @pytest.mark.parametrize("eps", [0.3, float("nan"), 7.0, -2.0])
    def test_spectral_start_rejects_eps(self, eps):
        # no spectral run reveals anything
        with pytest.raises(ValueError, match="leave it at 0"):
            small_cfg(eps=eps)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="threads"):
            small_cfg(threads=threads)

    @pytest.mark.parametrize("kw", [{"grid": (float("nan"),)}, {"grid": (1.0, float("inf"))},
                                    {"fixed_value": float("nan")}])
    def test_grid_and_fixed_value_must_be_finite(self, kw):
        with pytest.raises(ValueError, match="finite"):
            small_cfg(**kw)

    def test_se_init_mode_checked(self):
        with pytest.raises(ValueError, match="se_init_mode"):
            small_cfg(se_init_mode="bogus")

    @pytest.mark.parametrize("kw", [
        {"m": 2, "r_fractions": (0.5, 0.5), "p_bar_coeffs": (0.7, 0.7)},
        {"p_bar_coeffs": (0.7, 0.3)},
        {"r_fractions": (0.5,)}])
    def test_contextual_sbm_has_one_layer(self, kw):
        with pytest.raises(ValueError):
            small_cfg(family="contextual-sbm", **kw)

    @pytest.mark.parametrize("kw", [{"r_fractions": (float("nan"), float("nan"))},
                                    {"p_bar_coeffs": (0.7, -0.1)},
                                    {"p_bar_coeffs": (0.7, float("nan"))},
                                    {"p_bar_coeffs": (0.7, 20.0)}])
    def test_layer_values_checked_before_sampling(self, kw):
        args = {"family": "multilayer", "m": 2, "r_fractions": (0.6, 0.4),
                "p_bar_coeffs": (0.7, 0.4), "n": 400, "p": 240, **kw}
        with pytest.raises(ValueError):
            small_cfg(**args)


class TestSeConsistency:
    def test_full_revelation_is_exact(self):
        rep = se_consistency_check(lam=1.0, mu=1.0, c=1.0, eps=1.0, n=150,
                                   t_max=4, replicates=2, seed=5)
        assert np.all(rep.abs_gap < 1e-12)
        # the labels never change, yet every step is tracked
        assert len(rep.mean_overlap) == len(rep.z_theory) == 4

    def test_no_signal_stays_at_revelation_level(self):
        rep = se_consistency_check(lam=0.0, mu=0.0, c=1.0, eps=0.1, n=2000,
                                   t_max=6, replicates=4, seed=6)
        np.testing.assert_allclose(rep.z_theory, 0.1, atol=1e-12)
        assert np.max(rep.abs_gap) < 0.05

    def test_requires_revelation(self):
        with pytest.raises(ValueError):
            se_consistency_check(lam=1.0, mu=1.0, c=1.0, eps=0.0, n=100,
                                 t_max=3, replicates=1)


def test_thin_layer_warns_about_average_degree():
    cfg = small_cfg(family="multilayer", m=2, r_fractions=(0.5, 0.5),
                    p_bar_coeffs=(0.7, 0.1), n=400, p=240, grid=(1.0,), n_iter=5,
                    replicates=1)
    with pytest.warns(UserWarning, match="average degree"):
        run_replicate(cfg, 0, 0)


def test_dense_model_tracks_limit_at_moderate_strength():
    cfg = small_cfg(n=1500, p=900, grid=(3.0,), fixed_value=0.9, replicates=5,
                    n_iter=100)
    agg = run_sweep(cfg)[0]
    assert abs(agg.mean_mse - agg.theory_mmse) < 0.05


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_revelation_sweep_tracks_its_theory_column(eps):
    # The column is the limit of the revealed run, 1 - z*_eps^2, and is held
    # to criterion 04's dense tolerance; at lam = 0.5, below the threshold,
    # the eps = 0 limit would read 1.
    cfg = small_cfg(n=1500, p=900, grid=(0.5, 1.5, 3.0), fixed_value=0.5, replicates=10,
                    n_iter=100, init="revelation", eps=eps)
    for agg in run_sweep(cfg):
        assert agg.errors == []
        assert abs(agg.mean_mse - agg.theory_mmse) <= 0.05, (agg.lam, agg.mean_mse)
        assert agg.theory_mmse == limit_mmse(agg.lam, agg.mu, cfg.c, eps)


def test_mse_overlap_relation_at_scale():
    # 1 - mse stays below the squared signed overlap up to finite-size slack
    cfg = small_cfg(n=1500, p=900, grid=(2.5,), replicates=2, n_iter=60)
    for rep in range(2):
        r = run_replicate(cfg, 0, rep)
        ov2 = r.overlap_trajectory[-1] ** 2
        assert 1.0 - r.empirical_mse <= ov2 + 0.02
