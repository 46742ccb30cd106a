import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mvamp
from mvamp import experiments
from mvamp.exceptions import ConvergenceError, InfeasibleSnrError
from mvamp.experiments import (ExperimentConfig, empirical_mse, empirical_overlap,
                               run_replicate, run_se_check, run_sweep, se_check_config)
from mvamp.state_evolution import SeConfig, limit_mmse, se_run

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


# (sizes, steps, the bound on |s_t^2 - s_{t-1}^2| over the last 10 steps,
# where s_t = <q^t, q^t> / n)
FLOOR_CASES = [
    (dict(family="gaussian", n=1500, p=900, grid=(2.5,)), 100, 2e-8),
    (dict(family="multilayer", n=2000, p=3000, grid=(2.0,), m=3,
          r_fractions=(0.6, 0.2, 0.2), p_bar_coeffs=(0.7, 0.4, 0.3)), 100, 2e-8),
    # Near the threshold the floor is highest, under the 3e-8 that
    # run_amp states.
    (dict(family="gaussian", n=1500, p=900, grid=(1.5,)), 200, 3e-8),
]


def recorded_runs(monkeypatch) -> list:
    """Patch run_replicate's run_amp to keep every AmpRun it returns."""
    runs = []
    run_amp = experiments.run_amp

    def recorded(*args, **kwargs):
        runs.append(run_amp(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(experiments, "run_amp", recorded)
    return runs


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

    def test_stop_fires_where_the_fixed_length_run_settles(self, monkeypatch):
        # Oracle: a stop_tol=0 run's self-overlap s_t = <q^t, q^t> / n.  The
        # stopped run must end at the first step t >= 2 at which s^2 moved by
        # less than stop_tol over each of the last two steps, having taken
        # the same steps until then.  lambda + mu^2 / c is 0.99 and 2.99:
        # below the threshold s is small and s^2 settles as well, so no
        # replicate runs to the cap.
        runs = recorded_runs(monkeypatch)
        tol = ExperimentConfig.stop_tol
        for lam in (0.5, 2.5):
            cfg = small_cfg(n=600, p=360, grid=(lam,), n_iter=100)
            for r in range(10):
                stopped = run_replicate(cfg, 0, r)
                full = run_replicate(replace(cfg, stop_tol=0.0), 0, r)
                settled = np.abs(np.diff(runs[-1].self_overlap ** 2)) < tol
                first = next(t for t in range(2, 101) if settled[t - 2] and settled[t - 1])
                assert stopped.n_steps == first < 100, (lam, r)
                np.testing.assert_array_equal(stopped.overlap_trajectory,
                                              full.overlap_trajectory[:first + 1])
                np.testing.assert_array_equal(runs[-2].self_overlap,
                                              runs[-1].self_overlap[:first + 1])

    def test_stop_waits_past_the_turning_point(self):
        # From the coarse spectral start s first dips, then rises: a stop on
        # one settled step of s^2 fires at the turn (step 6 here, MSE 1.09);
        # two settled steps carry this replicate to its fixed point.
        cfg = ExperimentConfig(family="gaussian", n=1500, p=900, sweep_param="lambda",
                               grid=(1.5,), fixed_value=0.9, replicates=1, seed=1302)
        stopped = run_replicate(cfg, 0, 0)
        full = run_replicate(replace(cfg, stop_tol=0.0), 0, 0)
        assert 6 < stopped.n_steps < full.n_steps
        assert abs(full.empirical_mse - 0.7114) < 1e-3
        assert abs(stopped.empirical_mse - full.empirical_mse) < 0.01

    @pytest.mark.parametrize("sizes,n_iter,floor", FLOOR_CASES,
                             ids=["gaussian", "multilayer", "gaussian-near-threshold"])
    def test_step_change_settles_at_the_float32_floor(self, monkeypatch, sizes, n_iter, floor):
        # With float32 products the step change of s^2 settles near 1e-8:
        # the default stop_tol lies above that floor.
        runs = recorded_runs(monkeypatch)
        cfg = small_cfg(replicates=1, n_iter=n_iter, stop_tol=0.0, **sizes)
        assert run_replicate(cfg, 0, 0).n_steps == n_iter
        assert np.abs(np.diff(runs[-1].self_overlap[-11:] ** 2)).max() < floor
        assert run_replicate(replace(cfg, stop_tol=ExperimentConfig.stop_tol),
                             0, 0).n_steps < n_iter

    def test_default_stop_tol_sits_far_above_the_float32_floor(self):
        # A stop within a few times the floor may never fire near the
        # threshold; 100x keeps it clear of round-off on every case above.
        assert ExperimentConfig.stop_tol >= 100 * max(floor for _, _, floor in FLOOR_CASES)

    def test_revelation_mode(self):
        cfg = small_cfg(eps=0.3, n_iter=15, stop_tol=0.0)
        r = run_replicate(cfg, 0, 0)
        assert 0.0 <= r.empirical_overlap <= 1.0
        assert len(r.overlap_trajectory) == 16

    def test_positive_eps_starts_from_the_revealed_truth(self):
        # the zero start's step-0 labels are the revealed truth alone
        cfg = small_cfg(eps=0.3, n_iter=5)
        masks = experiments.draw_instance(cfg, 0, 1).masks
        r = run_replicate(cfg, 0, 1)
        assert r.overlap_trajectory[0] == masks.mask_x.sum() / cfg.n


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

    def test_openblas_thread_count_does_not_change_results(self):
        # products of this size are split between OpenBLAS threads when it
        # has two, which moves the mean MSE in its last bits unless the
        # sweep holds OpenBLAS at one thread
        src = str(Path(mvamp.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from mvamp import "
                "ExperimentConfig, run_sweep; print([(a.mean_mse.hex(), a.mean_overlap.hex()) "
                "for a in run_sweep(ExperimentConfig(family='gaussian', n=1000, p=600, "
                "sweep_param='lambda', grid=(1.5, 3.0), fixed_value=0.9, replicates=1, "
                "n_iter=25, seed=13))])")
        outs = [subprocess.run([sys.executable, "-c", code, src], check=True,
                               capture_output=True, text=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert outs[0] and outs[0] == outs[1]

    def test_steps_are_summarized_per_point(self):
        cfg = small_cfg(n=600, p=360, grid=(0.5, 2.5), replicates=2, n_iter=100)
        for k, agg in enumerate(run_sweep(cfg)):
            steps = [run_replicate(cfg, k, r).n_steps for r in range(2)]
            assert agg.mean_steps == np.mean(steps) < 100.0 and agg.capped == 0
        # these replicates stop at steps 9 to 39, so a cap of 5 binds on all
        for agg in run_sweep(replace(cfg, n_iter=5)):
            assert agg.mean_steps == 5.0 and agg.capped == 2

    def test_mu_sweep(self):
        cfg = small_cfg(sweep_param="mu", grid=(0.5, 1.5), fixed_value=2.0,
                        replicates=1, n=150, p=90, n_iter=10)
        aggs = run_sweep(cfg)
        assert aggs[0].lam == 2.0 and aggs[0].mu == 0.5
        assert aggs[1].lam == 2.0 and aggs[1].mu == 1.5


    def test_failed_theory_point_is_recorded(self, monkeypatch):
        # the theory column fails at one grid value; that row records the
        # failure and keeps its replicates, and the other rows are kept
        lam_edge = 1.0 - 0.81 / (5.0 / 3.0) + 1e-4
        real_limit = experiments.limit_mmse

        def limit_mmse_failing_at_edge(lam, mu, c, eps=0.0):
            if lam == lam_edge:
                raise ConvergenceError("fixed point not reached", residual=1e-9)
            return real_limit(lam, mu, c, eps)

        monkeypatch.setattr(experiments, "limit_mmse", limit_mmse_failing_at_edge)
        cfg = ExperimentConfig(family="gaussian", n=200, p=120, sweep_param="lambda",
                               grid=(lam_edge, 3.0), fixed_value=0.9, replicates=1,
                               n_iter=5)
        edge, strong = run_sweep(cfg)
        assert np.isnan(edge.theory_mmse)
        assert len(edge.errors) == 1 and "ConvergenceError" in edge.errors[0]
        assert np.isfinite(edge.mean_mse)
        assert strong.errors == []
        assert strong.theory_mmse == real_limit(3.0, 0.9, cfg.c)

    def test_infeasible_layer_strength_is_recorded(self):
        # at lambda = 2000 the first layer's strength 0.6 * 2000 exceeds the
        # largest its density 0.7 / sqrt(800) carries; that row records the
        # failure and the lambda = 3 row still runs
        cfg = ExperimentConfig(family="multilayer", n=800, p=1200, sweep_param="lambda",
                               grid=(3.0, 2000.0), fixed_value=0.9, replicates=1, n_iter=5,
                               m=3, r_fractions=(0.6, 0.2, 0.2), p_bar_coeffs=(0.7, 0.4, 0.3))
        with pytest.warns(UserWarning, match="average degree"):
            feasible, infeasible = run_sweep(cfg)
        assert feasible.errors == [] and np.isfinite(feasible.mean_mse)
        assert len(infeasible.errors) == 1
        assert "InfeasibleSnrError" in infeasible.errors[0]
        assert "20.3014" in infeasible.errors[0]
        assert np.isnan(infeasible.mean_mse)
        with pytest.raises(InfeasibleSnrError) as err:
            experiments.draw_instance(cfg, 1, 0)
        p_bar = 0.7 / np.sqrt(800)
        assert err.value.lambda_max == pytest.approx(800 * p_bar / (1 - p_bar))
        assert err.value.lambda_max == pytest.approx(20.3014, abs=1e-4)


class TestGridPoint:
    @pytest.mark.parametrize("sweep, lam, mu", [("lambda", 2.5, 0.9), ("mu", 0.9, 2.5)])
    def test_point_is_the_se_config_of_its_grid_value(self, sweep, lam, mu):
        cfg = small_cfg(sweep_param=sweep, grid=(1.0, 2.5), fixed_value=0.9, eps=0.2,
                        n_iter=7)
        assert cfg.point(1) == SeConfig(lam=lam, mu=mu, c=250 / 150, eps=0.2, t_max=7)

    @pytest.mark.parametrize("family, layers", [
        ("gaussian", {}),
        ("multilayer", dict(m=2, r_fractions=(0.6, 0.4), p_bar_coeffs=(0.7, 0.6))),
    ])
    def test_every_random_stream_of_a_sweep_is_distinct(self, monkeypatch, family, layers):
        # Each substream, and each block child that the covariate and
        # surrogate samplers spawn from one, must be a stream of its own.
        made = []
        real = experiments.substream
        monkeypatch.setattr(experiments, "substream",
                            lambda *path: made.append(real(*path)) or made[-1])
        run_sweep(small_cfg(family=family, n=400, p=240, grid=(2.0, 3.0), replicates=2,
                            n_iter=5, **layers))
        keys = []
        for g in made:
            seq = g.bit_generator.seed_seq
            keys.append(seq.spawn_key)
            keys += [seq.spawn_key + (k,) for k in range(seq.n_children_spawned)]
        assert len(keys) > len(made)
        assert len(set(keys)) == len(keys)


class TestBlasPin:
    """run_sweep holds numpy's OpenBLAS at one thread while its replicates run
    and puts the previous counts back however it ends; run_replicate holds
    it when called alone."""

    @pytest.fixture
    def seen(self, monkeypatch, blas_threads):
        """The thread counts each replicate ran with."""
        counts = []
        real = experiments.run_replicate

        def spy(cfg, i, r):
            counts.append(blas_threads())
            return real(cfg, i, r)

        monkeypatch.setattr(experiments, "run_replicate", spy)
        return counts

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_thread_while_replicates_run(self, seen, blas_threads, threads):
        before = blas_threads()
        run_sweep(small_cfg(n=150, p=90, n_iter=10, threads=threads))
        assert set(before) == {2}
        assert len(seen) == 2 and all(set(counts) == {1} for counts in seen)
        assert blas_threads() == before

    def test_replicate_called_alone_equals_the_sweep_value(self, blas_threads):
        # the surrogate's ssymv splits its sums between OpenBLAS threads, so
        # a replicate run outside the sweep's pin would round differently
        cfg = small_cfg(replicates=1)
        rep = run_replicate(cfg, 0, 0)
        assert set(blas_threads()) == {2}
        assert run_sweep(cfg)[0].mean_mse == rep.empirical_mse

    def test_counts_restored_after_a_recorded_error(self, monkeypatch, blas_threads):
        before = blas_threads()
        assert set(before) == {2}

        def fail(cfg, i, r):
            raise ConvergenceError("no convergence", iterations=1)

        monkeypatch.setattr(experiments, "run_replicate", fail)
        agg = run_sweep(small_cfg())[0]
        assert len(agg.errors) == 2
        assert blas_threads() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_counts_restored_when_an_error_escapes(self, monkeypatch, blas_threads, threads):
        before = blas_threads()
        assert set(before) == {2}

        def fail(cfg, i, r):
            raise RuntimeError("not an mvamp error")

        monkeypatch.setattr(experiments, "run_replicate", fail)
        with pytest.raises(RuntimeError):
            run_sweep(small_cfg(threads=threads))
        assert blas_threads() == before


@pytest.mark.parametrize("threads", [1, 2])
def test_heap_trimmed_after_every_replicate(monkeypatch, threads):
    # each trim follows the return of a replicate, whose instance is then
    # freed; trims that never ran would leave freed matrices resident
    events = []
    real = experiments.run_replicate

    def spy(cfg, i, r):
        out = real(cfg, i, r)
        events.append("replicate")
        return out

    monkeypatch.setattr(experiments, "run_replicate", spy)
    monkeypatch.setattr(experiments, "_trim_heap", lambda: events.append("trim"))
    run_sweep(small_cfg(n=150, p=90, n_iter=10, replicates=3, threads=threads))
    assert events.count("replicate") == events.count("trim") == 3
    if threads == 1:
        assert events == ["replicate", "trim"] * 3


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

    @pytest.mark.parametrize("eps", [float("nan"), -0.1, 1.5])
    def test_eps_must_lie_in_unit_interval(self, eps):
        with pytest.raises(ValueError, match="eps"):
            small_cfg(eps=eps)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_eps_in_unit_interval_accepted(self, eps):
        assert small_cfg(eps=eps).eps == eps

    def test_no_init_field(self):
        # eps alone picks the start: 0 the spectral one, > 0 the zero one.
        with pytest.raises(TypeError, match="init"):
            small_cfg(init="revelation", eps=0.3)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="threads"):
            small_cfg(threads=threads)

    @pytest.mark.parametrize("kw", [{"grid": (float("nan"),)}, {"grid": (1.0, float("inf"))},
                                    {"fixed_value": float("nan")}])
    def test_grid_and_fixed_value_must_be_finite(self, kw):
        with pytest.raises(ValueError, match="finite"):
            small_cfg(**kw)

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
        rep = run_se_check(se_check_config(lam=1.0, mu=1.0, c=1.0, eps=1.0, n=150,
                                           t_max=4, replicates=2, seed=5))
        assert np.all(rep.abs_gap < 1e-12)
        # the labels never change, yet every step is tracked
        assert len(rep.mean_overlap) == len(rep.z_theory) == 4

    def test_no_signal_stays_at_revelation_level(self):
        rep = run_se_check(se_check_config(lam=0.0, mu=0.0, c=1.0, eps=0.1, n=2000,
                                           t_max=6, replicates=4, seed=6))
        np.testing.assert_allclose(rep.z_theory, 0.1, atol=1e-12)
        assert np.max(rep.abs_gap) < 0.05

    def test_theory_is_the_zero_start_schedule(self):
        cfg = se_check_config(lam=2.0, mu=1.0, c=1.0, eps=0.2, n=100, t_max=3,
                              replicates=1)
        rep = run_se_check(cfg)
        traj = se_run(SeConfig(lam=2.0, mu=1.0, c=1.0, eps=0.2, t_max=4))
        np.testing.assert_array_equal(rep.z_theory, traj.z[1:4])

    def test_requires_revelation(self):
        with pytest.raises(ValueError):
            run_se_check(se_check_config(lam=1.0, mu=1.0, c=1.0, eps=0.0, n=100,
                                         t_max=3, replicates=1))


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
                    n_iter=100, eps=eps)
    for agg in run_sweep(cfg):
        assert agg.errors == []
        assert abs(agg.mean_mse - agg.theory_mmse) <= 0.05, (agg.lam, agg.mean_mse)
        assert agg.theory_mmse == limit_mmse(agg.lam, agg.mu, cfg.c, eps)


def test_mse_overlap_relation_at_scale():
    # Nishimori: at the fixed point |<q, x*>| ~ <q, q>, so 1 - mse ~ ov^2.
    # One replicate's gap (1 - mse) - ov^2 has sd about 0.015 here, so the
    # relation is held on the mean of 16 (standard error about 0.004)
    cfg = small_cfg(n=1500, p=900, grid=(2.5,), replicates=16, n_iter=60)
    gaps = []
    for rep in range(16):
        r = run_replicate(cfg, 0, rep)
        gaps.append(1.0 - r.empirical_mse - r.overlap_trajectory[-1] ** 2)
    assert abs(np.mean(gaps)) <= 0.015
