"""Golden values: what whole sweeps and the theory return, as literals.

The sampler tests pin the draws, and tests/test_amp.py pins one step, but
nothing else pins what a replicate returns, and the acceptance tolerances
(0.05) would pass a new random stream.  This table pins the mean MSE, mean
overlap and mean steps of small sweeps of each family and of both
single-source spectral starts (two replicates per point, seed 0), and
``theory_limits`` at a few points.

A value change must update the table and be logged in CHANGES.md.

Tolerances.  MSE and overlap are held to 1e-6.  A rounding-only change
(``linalg._GRAM_ROWS`` 128 -> 64) moved them by at most 8.7e-8, on the
gaussian lambda = 1.5 row, the one with the longest runs.  A
new covariate stream (substream tag 1 -> 7) moved every row's mean MSE by
0.018 or more, and dropping the network memory term d_t q^{t-1} by 7.7e-4
or more.  Mean steps are held exactly: the rounding-only change left every
step count equal.  The
theory values are deterministic quadrature and are held to 1e-10.
"""

import functools

import pytest

from mvamp import ExperimentConfig, run_sweep, theory_limits

TOL = 1e-6
THEORY_TOL = 1e-10

SWEEPS = {
    "gaussian": dict(family="gaussian", n=600, p=360, sweep_param="lambda",
                     grid=(1.5, 3.0), fixed_value=0.9),
    "multilayer": dict(family="multilayer", n=800, p=1200, sweep_param="lambda",
                       grid=(3.0,), fixed_value=0.9, m=2, r_fractions=(0.6, 0.4),
                       p_bar_coeffs=(0.7, 0.7)),
    # single-source spectral starts: the network alone (mu = 0) and the
    # covariates alone (lambda = 0)
    "gaussian-network-only": dict(family="gaussian", n=600, p=360, sweep_param="lambda",
                                  grid=(2.0,), fixed_value=0.0),
    "gaussian-covariates-only": dict(family="gaussian", n=600, p=360, sweep_param="mu",
                                     grid=(2.0,), fixed_value=0.0),
    # the revelation start, swept over mu
    "contextual-sbm": dict(family="contextual-sbm", n=800, p=480, sweep_param="mu",
                           grid=(0.5, 1.5), fixed_value=1.2, eps=0.1),
}

# (sweep, swept value, mean MSE, mean overlap, mean steps)
ROWS = [
    ("gaussian", 1.5, 0.8397391058602575, 0.5216666666666667, 53.0),
    ("gaussian", 3.0, 0.3126509172174746, 0.8916666666666666, 14.0),
    ("gaussian-network-only", 2.0, 0.6819344098719488, 0.7050000000000001, 25.0),
    ("gaussian-covariates-only", 2.0, 0.9254520775019851, 0.445, 18.5),
    ("multilayer", 3.0, 0.166675304902683, 0.9450000000000001, 9.5),
    ("contextual-sbm", 0.5, 0.7953772307117775, 0.59625, 11.5),
    ("contextual-sbm", 1.5, 0.626996109436479, 0.71625, 14.5),
]

# (lambda, mu, c) -> (z*, limit MMSE, xi limit)
THEORY = [
    ((1.5, 0.9, 1.0), (0.624606899770062, 0.6098662207596317, 0.453529384445978)),
    ((0.5, 1.2, 2.0), (0.12171893680354473, 0.9851845004234147, 0.22761707906104034)),
    ((2.0, 1.0, 0.5), (0.840845610101996, 0.2929786599722022, 0.5736099776759707)),
    ((0.5, 0.5, 1.0), (0.0, 1.0, 0.1722674459459178)),  # below the threshold
]

UPDATE = "a value change must update this table and be logged in CHANGES.md"


@functools.cache
def _sweep(name):
    cfg = ExperimentConfig(replicates=2, **SWEEPS[name])
    return {(a.lam if cfg.sweep_param == "lambda" else a.mu): a for a in run_sweep(cfg)}


@pytest.mark.parametrize("name, value, mse, overlap, steps", ROWS,
                         ids=[f"{r[0]}-{SWEEPS[r[0]]['sweep_param']}={r[1]}" for r in ROWS])
def test_sweep_row(name, value, mse, overlap, steps):
    agg = _sweep(name)[value]
    row = f"{name} {SWEEPS[name]['sweep_param']}={value}"
    assert agg.errors == [], row
    assert abs(agg.mean_mse - mse) <= TOL, (
        f"{row}: mean MSE {agg.mean_mse!r}, table {mse!r}; {UPDATE}")
    assert abs(agg.mean_overlap - overlap) <= TOL, (
        f"{row}: mean overlap {agg.mean_overlap!r}, table {overlap!r}; {UPDATE}")
    assert agg.mean_steps == steps, (
        f"{row}: mean steps {agg.mean_steps!r}, table {steps!r}; {UPDATE}")


@pytest.mark.parametrize("point, limits", THEORY, ids=[str(p) for p, _ in THEORY])
def test_theory_limits(point, limits):
    got = theory_limits(*point)
    for label, g, want in zip(("z*", "limit MMSE", "xi"), got, limits):
        assert abs(g - want) <= THEORY_TOL, (
            f"theory_limits{point}: {label} {g!r}, table {want!r}; {UPDATE}")
