"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The asymptotic theory is checked at desk scale through the reduced
simulation protocols; tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from mvamp.amp import denoise_f, DenoiserParams, onsager_coeffs, solve_a0, _a0_rhs
from mvamp.amp import denoise_g
from mvamp.cli import main as cli_main
from mvamp.experiments import (ExperimentConfig, empirical_mse, run_se_check, run_sweep,
                               se_check_config)
from mvamp.model import (center_scale_layer, rates_from_lambda, sample_labels,
                         sample_revelation, sample_sbm_layer, substream)
from mvamp.scalar_channel import scalar_mi, scalar_mmse
from mvamp.state_evolution import SeConfig, fixed_point_z, limit_mmse, xi_limit

from oracles import (bisect_fixed_point, dense_matrix_mse, scalar_map,
                     trace_mean_fd, trapezoid_adaptive, two_point_posterior)


def report(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_scalar_channel_identities():
    t0 = time.perf_counter()
    exact = scalar_mmse(0.0) == 1.0 and scalar_mi(0.0) == 0.0
    h = 1e-5
    worst = max(abs((scalar_mi(e + h) - scalar_mi(e - h)) / (2 * h)
                    - scalar_mmse(e) / 2.0) for e in (0.1, 0.5, 1.0, 2.0, 5.0))
    ok = exact and worst < 1e-6
    report(1, ok, f"mmse(0)=1, mi(0)=0 exact; worst |dI/deta - mmse/2| = "
                  f"{worst:.2e} (tol 1e-6); {time.perf_counter()-t0:.2f}s")


def test_criterion_02_fixed_point_dichotomy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    sub_ok = True
    found = 0
    while found < 20:
        lam, mu, c = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.5, 3)
        if lam + mu ** 2 / c > 0.97:
            continue
        found += 1
        sub_ok &= abs(fixed_point_z(SeConfig(lam=lam, mu=mu, c=c))) < 1e-10
    sup_ok = True
    worst_resid, worst_gap = 0.0, 0.0
    found = 0
    while found < 20:
        lam, mu, c = rng.uniform(0, 4), rng.uniform(0, 2), rng.uniform(0.5, 3)
        if lam + mu ** 2 / c < 1.1:
            continue
        found += 1
        z = fixed_point_z(SeConfig(lam=lam, mu=mu, c=c))
        g = scalar_map(lam, mu, c)
        worst_resid = max(worst_resid, abs(z - g(z)))
        worst_gap = max(worst_gap, abs(z - bisect_fixed_point(g)))
        sup_ok &= 0.0 < z < 1.0
    ok = sub_ok and sup_ok and worst_resid < 1e-10 and worst_gap < 1e-9
    report(2, ok, f"20 subcritical -> 0; 20 supercritical in (0,1), worst "
                  f"residual {worst_resid:.1e} (tol 1e-10), worst bisection gap "
                  f"{worst_gap:.1e} (tol 1e-9); {time.perf_counter()-t0:.2f}s")


def test_criterion_03_xi_integral_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for lam, mu, c in [(2.0, 1.0, 1.0), (4.0, 0.5, 2.0)]:
        integral = trapezoid_adaptive(lambda t: limit_mmse(t, mu, c) / 4.0,
                                      0.0, lam, panels=200, tol=2e-5)
        worst = max(worst, abs(xi_limit(lam, mu, c)
                               - (xi_limit(0.0, mu, c) + integral)))
    ok = worst < 1e-4
    report(3, ok, f"closed form vs integral route, worst gap {worst:.2e} "
                  f"(tol 1e-4); {time.perf_counter()-t0:.2f}s")


def test_criterion_04_gaussian_model_reproduction():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(family="gaussian", n=1500, p=900, sweep_param="lambda",
                           grid=(1.5, 2.5, 3.5, 4.5), fixed_value=0.9,
                           replicates=10, n_iter=100, seed=42)
    aggs = run_sweep(cfg)
    gaps = [abs(a.mean_mse - a.theory_mmse) for a in aggs]
    ok = max(gaps) <= 0.05 and not any(a.errors for a in aggs)
    detail = ", ".join(f"lam={a.lam}: {g:.3f}" for a, g in zip(aggs, gaps))
    report(4, ok, f"dense model n=1500, |mean mse - theory| per point: {detail} "
                  f"(tol 0.05); {time.perf_counter()-t0:.0f}s")


def test_criterion_05_contextual_sbm_reproduction():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(family="contextual-sbm", n=2000, p=3000,
                           sweep_param="lambda", grid=(2.0, 3.0, 4.0),
                           fixed_value=0.7, replicates=10, n_iter=100, seed=42,
                           p_bar_coeffs=(0.7,))
    aggs = run_sweep(cfg)
    gaps = [abs(a.mean_mse - a.theory_mmse) for a in aggs]
    ok = max(gaps) <= 0.07 and not any(a.errors for a in aggs)
    detail = ", ".join(f"lam={a.lam}: {g:.3f}" for a, g in zip(aggs, gaps))
    report(5, ok, f"one sparse network + covariates n=2000, gaps: {detail} "
                  f"(tol 0.07); {time.perf_counter()-t0:.0f}s")


def test_criterion_06_multilayer_reproduction():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(family="multilayer", n=2000, p=3000,
                           sweep_param="lambda", grid=(2.0, 4.0), fixed_value=0.9,
                           replicates=10, n_iter=100, seed=42, m=3,
                           r_fractions=(0.6, 0.2, 0.2), p_bar_coeffs=(0.7, 0.4, 0.3))
    aggs = run_sweep(cfg)
    gaps = [abs(a.mean_mse - a.theory_mmse) for a in aggs]
    ok = max(gaps) <= 0.07 and not any(a.errors for a in aggs)
    detail = ", ".join(f"lam={a.lam}: {g:.3f}" for a, g in zip(aggs, gaps))
    report(6, ok, f"three sparse layers n=2000, gaps: {detail} (tol 0.07); "
                  f"{time.perf_counter()-t0:.0f}s")


def test_criterion_07_subthreshold_null():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(family="gaussian", n=1500, p=900, sweep_param="lambda",
                           grid=(0.5,), fixed_value=0.5, replicates=20,
                           n_iter=100, seed=42)
    a = run_sweep(cfg)[0]
    ok = a.mean_overlap < 0.1 and a.mean_mse > 0.9 and not a.errors
    report(7, ok, f"lam+mu^2/c=0.65: mean overlap {a.mean_overlap:.3f} (< 0.1), "
                  f"mean mse {a.mean_mse:.3f} (> 0.9); {time.perf_counter()-t0:.0f}s")


def test_criterion_08_state_evolution_tracking():
    t0 = time.perf_counter()
    rep = run_se_check(se_check_config(lam=2.0, mu=1.0, c=1.0, eps=0.1, n=4000,
                                       t_max=10, replicates=10, seed=42))
    worst = float(rep.abs_gap.max())
    ok = worst < 0.05
    report(8, ok, f"zero-init revelation run vs predicted z_t, max gap over "
                  f"t<=10: {worst:.4f} (tol 0.05); {time.perf_counter()-t0:.0f}s")


def test_criterion_09_oracle_equivalence_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)

    # label denoiser vs literal two-point posterior, 1e4 points
    u = rng.normal(0, 2, 10_000)
    x = rng.normal(0, 2, 10_000)
    alpha, tau, mu_, sigma = 0.9, 1.2, 1.4, 0.8
    val, _, _ = denoise_f(u, x, np.zeros(u.size), np.zeros(u.size, bool),
                          DenoiserParams(a=alpha / tau ** 2, b=mu_ / sigma ** 2,
                                         g_slope=0.0))
    gap_f = float(np.max(np.abs(val - two_point_posterior(u, x, alpha, tau, mu_, sigma))))

    # memory coefficients vs finite differences
    n, p = 20, 14
    lab = sample_labels(n, substream(910, 0))
    masks = sample_revelation(lab, rng.standard_normal(p), 0.3, substream(910, 1))
    uu, xx, vv = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(p)
    params = DenoiserParams(a=0.9, b=1.2, g_slope=0.45)
    _, du, dx = denoise_f(uu, xx, masks.x0, masks.mask_x, params)
    _, dv = denoise_g(vv, masks.v0, masks.mask_v, params)
    c_t, p_t, d_t = onsager_coeffs(du, dx, dv, n, p)
    gap_o = max(
        abs(p_t - (n / p) * trace_mean_fd(
            lambda w: denoise_f(w, xx, masks.x0, masks.mask_x, params)[0], uu)),
        abs(d_t - trace_mean_fd(
            lambda w: denoise_f(uu, w, masks.x0, masks.mask_x, params)[0], xx)),
        abs(c_t - trace_mean_fd(
            lambda w: denoise_g(w, masks.v0, masks.mask_v, params)[0], vv)))

    # O(n) mse identity vs dense Frobenius norm
    gap_m = 0.0
    for n_ in (5, 17, 40):
        xs = rng.choice([-1.0, 1.0], n_)
        xh = rng.normal(0, 0.7, n_)
        gap_m = max(gap_m, abs(empirical_mse(xh, xs) - dense_matrix_mse(xh, xs)))

    # centered sparse operator vs dense construction
    gap_c = 0.0
    for n_ in (12, 30, 50):
        lab_ = sample_labels(n_, substream(911, n_, 0))
        pr = rates_from_lambda(0.8, 0.3, n_)
        layer = sample_sbm_layer(lab_, pr, substream(911, n_, 1))
        op = center_scale_layer(layer)
        dense = (layer.adjacency.toarray() - pr.p_bar) / np.sqrt(
            n_ * pr.p_bar * (1 - pr.p_bar))
        for _ in range(3):
            v = rng.standard_normal(n_)
            gap_c = max(gap_c, float(np.max(np.abs(op.matvec(v) - dense @ v))))

    # spectral-weight equation residual on a 5 x 5 x 3 grid
    gap_a = 0.0
    for lam in np.linspace(0.5, 4.5, 5):
        for mu in np.linspace(0.3, 2.0, 5):
            for c in (0.5, 1.0, 2.5):
                a0 = solve_a0(lam, mu, c)
                gap_a = max(gap_a, abs(_a0_rhs(a0, lam, mu, c) - mu / (c * lam)))

    ok = gap_f < 1e-12 and gap_o < 1e-6 and gap_m < 1e-10 and gap_c < 1e-12 \
        and gap_a < 1e-10
    report(9, ok, f"denoiser vs posterior {gap_f:.1e} (1e-12); memory coeffs vs "
                  f"FD {gap_o:.1e} (1e-6); mse identity {gap_m:.1e} (1e-10); "
                  f"centered op {gap_c:.1e} (1e-12); weight residual {gap_a:.1e} "
                  f"(1e-10); {time.perf_counter()-t0:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    runs = {
        "theory": ["theory", "--lambda-grid", "0.5:3:4", "--mu-grid", "0,1",
                   "--c", "1.5"],
        "simulate": ["simulate", "--family", "gaussian", "--n", "200", "--p", "120",
                     "--sweep", "lambda", "--grid", "2.5,3.5", "--fixed", "0.9",
                     "--replicates", "2", "--n-iter", "15", "--seed", "3"],
        "se-check": ["se-check", "--lambda", "2", "--mu", "1", "--c", "1",
                     "--eps", "0.2", "--n", "150", "--t-max", "4",
                     "--replicates", "2", "--seed", "3"],
    }
    files = {"theory": "theory.csv", "simulate": "results.csv",
             "se-check": "se_check.csv"}
    ok = True
    details = []
    for name, args in runs.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        code_a = cli_main(args + ["--out-dir", str(a)])
        code_b = cli_main(args + ["--out-dir", str(b)])
        same = (a / files[name]).read_bytes() == (b / files[name]).read_bytes()
        ok &= same and code_a == 0 and code_b == 0
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    report(10, ok, "; ".join(details) + f"; {time.perf_counter()-t0:.1f}s")
