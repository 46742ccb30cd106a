"""Monte-Carlo harness: replicate pipelines, sweeps, and tracking checks.

A replicate samples one instance of a model family (:func:`draw_instance`,
also behind ``mvamp simulate --export-instance``), builds the operators,
initializes (spectral or revelation), runs the iteration, and reports the
matrix mean square error, the sign overlap and the steps taken.  The
iteration runs at most ``n_iter`` steps: it ends once the root-mean-square
change of the labels between two steps falls below ``stop_tol`` (0 runs all
``n_iter``).  Sweeps repeat that over a parameter grid with i.i.d.
replicates per point and attach the theoretical limit for comparison.
Everything is deterministic in (config, seed), the stop included:
replicate sub-seeds are derived with :func:`mvamp.model.substream` and
results are merged by index, so the thread count never changes a number.
The state-evolution tracking check always runs the full ``t_max`` steps,
because it compares every step with the prediction.

Model families:

* ``gaussian`` - dense symmetric observation plus covariates.
* ``contextual-sbm`` - one sparse network plus covariates; the network
  enters through its centered, rescaled adjacency operator.
* ``multilayer`` - m sparse networks with strength fractions r_i and
  per-layer densities, combined as sum_i sqrt(lambda_i / lambda) A_i,
  plus covariates.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .amp import init_spectral, init_zero, run_amp, solve_a0, spectral_initialize
from .exceptions import MvampError
from .linalg import DenseSymmetricOperator, RectOperator
from .model import (CommunityLabels, CovariateModel, GaussianSurrogate, RevelationMasks,
                    SbmLayer, center_scale_layer, combine_layers, rates_from_lambda,
                    sample_covariates, sample_gaussian_surrogate, sample_labels,
                    sample_revelation, sample_sbm_layer, substream)
from .state_evolution import SeConfig, detection_possible, limit_mmse, se_run

__all__ = [
    "ExperimentConfig",
    "ReplicateInstance",
    "ReplicateResult",
    "AggregateResult",
    "SeCheckReport",
    "empirical_mse",
    "empirical_overlap",
    "draw_instance",
    "run_replicate",
    "run_sweep",
    "se_check_config",
    "run_se_check",
    "se_consistency_check",
]

FAMILIES = ("gaussian", "contextual-sbm", "multilayer")
SWEEP_PARAMS = ("lambda", "mu")
INITS = ("spectral", "revelation")
SE_INIT_MODES = ("deterministic-z1", "random-interval")

# Sub-seed stream tags within one replicate.
_STREAM_LABELS = 0
_STREAM_COVARIATES = 1
_STREAM_SURROGATE = 2
_STREAM_MASKS = 3
_STREAM_INIT = 4
_STREAM_SE = 5
_STREAM_LAYER_BASE = 10


def empirical_mse(x_hat: np.ndarray, x_star: np.ndarray) -> float:
    """Matrix mean square error of the rank-one estimate, computed in O(n).

    (1/n^2) ||x* x*^T - x_hat x_hat^T||_F^2 equals
    1 - 2 <x_hat, x*>_n^2 + <x_hat, x_hat>_n^2 because ||x*||^2 = n; the
    n x n outer products are never formed.
    """
    if x_hat.shape != x_star.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_star.shape}")
    n = x_star.size
    ov = float(np.dot(x_hat, x_star) / n)
    s = float(np.dot(x_hat, x_hat) / n)
    return 1.0 - 2.0 * ov * ov + s * s


def empirical_overlap(x_hat: np.ndarray, x_star: np.ndarray) -> float:
    """Sign overlap |<x*, sign(x_hat)>| / n, zero entries broken to +1."""
    if x_hat.shape != x_star.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_star.shape}")
    signs = np.where(x_hat >= 0.0, 1.0, -1.0)
    return float(abs(np.dot(signs, x_star)) / x_star.size)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep definition.

    The swept parameter (``sweep_param``) runs over ``grid`` while the
    other of (lambda, mu) is held at ``fixed_value``.  ``init`` selects the
    spectral start or zero iterates with eps-revelation; ``eps`` lies in
    (0, 1] for revelation and is 0 for the spectral start.  ``n_iter`` caps
    the iteration, which ends earlier once the root-mean-square change of
    the labels between two steps falls below ``stop_tol``; ``stop_tol = 0``
    runs all ``n_iter`` steps.  ``r_fractions`` must be positive and sum to
    one; layer i gets strength r_i * lambda and density
    p_bar_coeffs[i] / sqrt(n) in (0, 1).  ``contextual-sbm`` has one layer
    (m = 1); ``gaussian`` has no network layers and rejects m,
    r_fractions and p_bar_coeffs other than their defaults.
    """

    family: str
    n: int
    p: int
    sweep_param: str
    grid: tuple[float, ...]
    fixed_value: float
    replicates: int = 10
    n_iter: int = 100
    stop_tol: float = 1e-6
    seed: int = 0
    init: str = "spectral"
    eps: float = 0.0
    m: int = 1
    r_fractions: tuple[float, ...] = (1.0,)
    p_bar_coeffs: tuple[float, ...] = (0.7,)
    se_init_mode: str = "deterministic-z1"
    threads: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.sweep_param not in SWEEP_PARAMS:
            raise ValueError(f"sweep_param must be 'lambda' or 'mu', got {self.sweep_param!r}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid is empty")
        if not all(math.isfinite(g) for g in (*self.grid, self.fixed_value)):
            raise ValueError("grid values and fixed_value must be finite")
        if any(g < 0 for g in self.grid) or self.fixed_value < 0:
            raise ValueError("grid values and fixed_value must be nonnegative")
        if self.n < 2 or self.p < 1 or self.replicates < 1 or self.n_iter < 1:
            raise ValueError("n >= 2, p >= 1, replicates >= 1, n_iter >= 1 required")
        if not (math.isfinite(self.stop_tol) and self.stop_tol >= 0.0):
            raise ValueError(f"stop_tol must be finite and nonnegative, got {self.stop_tol}")
        if self.threads < 1:
            raise ValueError(f"threads must be a positive integer, got {self.threads}")
        if self.init not in INITS:
            raise ValueError(f"init must be 'spectral' or 'revelation', got {self.init!r}")
        if self.init == "revelation" and not 0.0 < self.eps <= 1.0:
            raise ValueError(f"revelation init requires eps in (0, 1], got {self.eps}")
        if self.init != "revelation" and self.eps != 0.0:
            raise ValueError(f"eps is the revelation fraction of revelation init; "
                             f"leave it at 0 for {self.init} init, got {self.eps}")
        if self.se_init_mode not in SE_INIT_MODES:
            raise ValueError(f"se_init_mode must be one of {SE_INIT_MODES}, "
                             f"got {self.se_init_mode!r}")
        if self.family == "contextual-sbm" and self.m != 1:
            raise ValueError(f"contextual-sbm has one network layer, got m={self.m}")
        if self.family == "gaussian":
            if (self.m, tuple(self.r_fractions), tuple(self.p_bar_coeffs)) != (1, (1.0,), (0.7,)):
                raise ValueError("gaussian has no network layers; leave m, r_fractions "
                                 "and p_bar_coeffs at their defaults")
        else:
            if self.m < 1 or len(self.r_fractions) != self.m or len(self.p_bar_coeffs) != self.m:
                raise ValueError(f"{self.family} needs m matching r_fractions and p_bar_coeffs")
            if not all(r > 0 for r in self.r_fractions):
                raise ValueError("strength fractions must be positive")
            if not abs(sum(self.r_fractions) - 1.0) <= 1e-12:
                raise ValueError(f"strength fractions must sum to 1, got {sum(self.r_fractions)}")
            if not all(0.0 < k < math.sqrt(self.n) for k in self.p_bar_coeffs):
                raise ValueError("density coefficients k must give p_bar = k / sqrt(n) "
                                 f"in (0, 1), got {self.p_bar_coeffs}")

    @property
    def c(self) -> float:
        return self.n / self.p

    def point(self, value: float) -> tuple[float, float]:
        """(lambda, mu) at one grid value."""
        if self.sweep_param == "lambda":
            return float(value), float(self.fixed_value)
        return float(self.fixed_value), float(value)


@dataclass(frozen=True)
class ReplicateResult:
    """Metrics of one replicate; deterministic in (config, point, index),
    except ``wall_time``.  ``n_steps`` is the number of iteration steps
    taken, at most ``n_iter``."""

    point_index: int
    replicate_index: int
    empirical_mse: float
    empirical_overlap: float
    overlap_trajectory: np.ndarray
    n_steps: int
    wall_time: float


@dataclass
class AggregateResult:
    """Per-grid-point summary over replicates.  ``mean_steps`` is the mean
    number of iteration steps of the replicates that ran, and ``capped`` how
    many of them reached ``n_iter``."""

    family: str
    n: int
    p: int
    lam: float
    mu: float
    c: float
    replicates: int
    theory_mmse: float
    detectable: bool
    mean_mse: float = np.nan
    sd_mse: float = np.nan
    min_mse: float = np.nan
    max_mse: float = np.nan
    mean_overlap: float = np.nan
    mean_steps: float = np.nan
    capped: int = 0
    wall_time_s: float = 0.0
    errors: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class ReplicateInstance:
    """The sampled data of one replicate; ``network`` is the dense surrogate
    (``gaussian`` family) or the list of sampled layers."""

    labels: CommunityLabels
    covariates: CovariateModel
    network: GaussianSurrogate | list[SbmLayer]
    masks: RevelationMasks


def _layer_specs(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """(strength fraction r_i, density coefficient) of each network layer."""
    return list(zip(cfg.r_fractions, cfg.p_bar_coeffs))


def draw_instance(cfg: ExperimentConfig, point_index: int,
                  rep_index: int) -> ReplicateInstance:
    """Sample the instance of one replicate, each object from its own substream."""
    n = cfg.n
    lam, mu = cfg.point(cfg.grid[point_index])

    def rng(tag):
        return substream(cfg.seed, point_index, rep_index, tag)

    labels = sample_labels(n, rng(_STREAM_LABELS))
    cov = sample_covariates(labels, mu, cfg.p, rng(_STREAM_COVARIATES))
    if cfg.family == "gaussian":
        network = sample_gaussian_surrogate(labels, lam, rng(_STREAM_SURROGATE))
    else:
        network = []
        for i, (r_i, coeff) in enumerate(_layer_specs(cfg)):
            p_bar = coeff / np.sqrt(n)
            if n * p_bar < 10.0:
                warnings.warn(
                    f"layer {i}: average degree {n * p_bar:.2f} < 10; the "
                    "dense-limit theory may be inaccurate at this scale",
                    stacklevel=2)
            params = rates_from_lambda(r_i * lam, p_bar, n)
            network.append(sample_sbm_layer(labels, params, rng(_STREAM_LAYER_BASE + i)))
    masks = sample_revelation(labels, cov.v_star, cfg.eps, rng(_STREAM_MASKS))
    return ReplicateInstance(labels=labels, covariates=cov, network=network, masks=masks)


def run_replicate(cfg: ExperimentConfig, point_index: int, rep_index: int) -> ReplicateResult:
    """Sample one instance, run the estimator, and score it."""
    t_start = time.perf_counter()
    lam, mu = cfg.point(cfg.grid[point_index])
    inst = draw_instance(cfg, point_index, rep_index)
    b_op = RectOperator(inst.covariates.B)
    if cfg.family == "gaussian":
        sym_op = DenseSymmetricOperator(inst.network.T, denom=float(np.sqrt(cfg.n)))
    else:
        # sqrt(lambda_i / lambda) = sqrt(r_i): the fractions alone fix the
        # weights, which keeps the combination well defined at lam = 0 as well.
        sym_op = combine_layers([center_scale_layer(layer) for layer in inst.network],
                                [r_i for r_i, _ in _layer_specs(cfg)])

    revelation = cfg.init == "revelation"
    se_seed = substream(cfg.seed, point_index, rep_index, _STREAM_SE).integers(2 ** 63)
    traj = se_run(SeConfig(
        lam=lam, mu=mu, c=cfg.c, eps=inst.masks.eps,
        init_mode="zero" if revelation else cfg.se_init_mode, seed=int(se_seed),
        t_max=cfg.n_iter + 1))

    if revelation:
        state = init_zero(inst.masks, traj, cfg.p)
    else:
        rng = substream(cfg.seed, point_index, rep_index, _STREAM_INIT)
        if mu == 0:
            vec = spectral_initialize(sym_op, None, 0.0, rng)
        elif lam == 0:
            vec = spectral_initialize(None, b_op, 1.0, rng)
        else:
            vec = spectral_initialize(sym_op, b_op, solve_a0(lam, mu, cfg.c), rng)
        state = init_spectral(vec, inst.masks, traj, cfg.p)

    x_star = inst.labels.x_star
    result = run_amp(sym_op, b_op, inst.masks, traj, n_iter=cfg.n_iter, init=state,
                     x_star=x_star, stop_tol=cfg.stop_tol)
    return ReplicateResult(
        point_index=point_index,
        replicate_index=rep_index,
        empirical_mse=empirical_mse(result.x_hat, x_star),
        empirical_overlap=empirical_overlap(result.x_hat, x_star),
        overlap_trajectory=result.overlap,
        n_steps=result.n_steps,
        wall_time=time.perf_counter() - t_start)


def _map_replicates(fn, items, threads: int) -> list:
    """fn over items in input order, on ``threads`` worker threads if threads > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_sweep(cfg: ExperimentConfig) -> list[AggregateResult]:
    """All grid points with replication; per-point errors, a failed theory
    column included (its theory_mmse is then NaN), are recorded and the
    sweep continues.  Output order follows the grid, independent of the
    execution schedule.

    The theory column is the limit the sweep's runs approach,
    ``limit_mmse`` at the sweep's eps (0 for the spectral start);
    ``detectable`` is the eps = 0 threshold."""
    tasks = [(i, r) for i in range(len(cfg.grid)) for r in range(cfg.replicates)]

    def run_one(task):
        try:
            return run_replicate(cfg, *task)
        except MvampError as exc:
            return f"replicate {task[1]}: {type(exc).__name__}: {exc}"

    outcomes = dict(zip(tasks, _map_replicates(run_one, tasks, cfg.threads)))

    aggregates = []
    for i, value in enumerate(cfg.grid):
        lam, mu = cfg.point(value)
        errors = []
        try:
            theory_mmse = limit_mmse(lam, mu, cfg.c, cfg.eps)
        except MvampError as exc:
            theory_mmse = np.nan
            errors.append(f"theory: {type(exc).__name__}: {exc}")
        agg = AggregateResult(
            family=cfg.family, n=cfg.n, p=cfg.p, lam=lam, mu=mu, c=cfg.c,
            replicates=cfg.replicates, theory_mmse=theory_mmse,
            detectable=detection_possible(lam, mu, cfg.c))
        point = [outcomes[(i, r)] for r in range(cfg.replicates)]
        point_results = [o for o in point if isinstance(o, ReplicateResult)]
        agg.errors = errors + [o for o in point if isinstance(o, str)]
        if point_results:
            mses = np.array([r.empirical_mse for r in point_results])
            agg.mean_mse = float(mses.mean())
            agg.sd_mse = float(mses.std(ddof=1)) if len(mses) > 1 else 0.0
            agg.min_mse = float(mses.min())
            agg.max_mse = float(mses.max())
            agg.mean_overlap = float(np.mean([r.empirical_overlap for r in point_results]))
            agg.mean_steps = float(np.mean([r.n_steps for r in point_results]))
            agg.capped = sum(r.n_steps == cfg.n_iter for r in point_results)
            agg.wall_time_s = float(sum(r.wall_time for r in point_results))
        aggregates.append(agg)
    return aggregates


@dataclass
class SeCheckReport:
    """Comparison of empirical overlap against the predicted z_t for the
    post-step iterations t = 1..t_max."""

    t: np.ndarray
    z_theory: np.ndarray
    mean_overlap: np.ndarray

    @property
    def abs_gap(self) -> np.ndarray:
        return np.abs(self.mean_overlap - self.z_theory)


def se_check_config(lam: float, mu: float, c: float, eps: float, n: int,
                    t_max: int, replicates: int, seed: int = 0,
                    threads: int = 1) -> ExperimentConfig:
    """Check the tracking check's arguments and return the configuration its
    replicates run under: the dense symmetric family, zero iterates with
    eps-revelation, ``p = round(n / c)`` and all ``t_max`` steps
    (``stop_tol=0``).  Raises ValueError, naming these arguments, before any
    replicate runs."""
    if n < 2 or t_max < 1 or replicates < 1:
        raise ValueError(f"n >= 2, t_max >= 1 and replicates >= 1 required, "
                         f"got {n}, {t_max} and {replicates}")
    # Built for its checks, which name lam, mu, c and eps.
    SeConfig(lam=lam, mu=mu, c=c, eps=eps, init_mode="zero", t_max=t_max + 1)
    if eps == 0.0:
        raise ValueError("tracking check requires eps in (0, 1]")
    p = round(n / c)
    if p < 1:
        raise ValueError(f"n / c = {n / c} must round to at least one feature")
    return ExperimentConfig(
        family="gaussian", n=n, p=p, sweep_param="lambda", grid=(lam,),
        fixed_value=mu, replicates=replicates, n_iter=t_max, stop_tol=0.0, seed=seed,
        init="revelation", eps=eps, threads=threads)


def run_se_check(cfg: ExperimentConfig) -> SeCheckReport:
    """Run the replicates of a :func:`se_check_config` configuration and
    average their overlap trajectories step by step."""
    lam, mu = cfg.point(cfg.grid[0])
    # The theory runs at the realized ratio n / p.
    traj = se_run(SeConfig(lam=lam, mu=mu, c=cfg.c, eps=cfg.eps, init_mode="zero",
                           t_max=cfg.n_iter + 1))
    trajs = _map_replicates(lambda rep: run_replicate(cfg, 0, rep).overlap_trajectory,
                            range(cfg.replicates), cfg.threads)
    t_max = cfg.n_iter
    mean_overlap = np.mean(np.stack(trajs), axis=0)[1: t_max + 1]
    return SeCheckReport(t=np.arange(1, t_max + 1), z_theory=traj.z[1: t_max + 1],
                         mean_overlap=mean_overlap)


def se_consistency_check(lam: float, mu: float, c: float, eps: float, n: int,
                         t_max: int, replicates: int, seed: int = 0,
                         threads: int = 1) -> SeCheckReport:
    """Track the zero-initialized, eps-revealed run against state evolution.

    Uses the dense symmetric family; the recursion counts the revealed
    spike coordinates as the algorithm does (see the state evolution module
    docstring).  Every replicate runs all t_max steps
    (``stop_tol=0``): state evolution predicts each step, and the
    trajectories are averaged step by step.  The same as
    ``run_se_check(se_check_config(...))``.
    """
    return run_se_check(se_check_config(lam=lam, mu=mu, c=c, eps=eps, n=n, t_max=t_max,
                                        replicates=replicates, seed=seed, threads=threads))
