"""The two-orbit iterative estimator.

One orbit runs through the rectangular covariate map (v / u vectors), the
other through the symmetric network observation (x vectors); the label
denoiser fuses both orbits every step:

    q^t     = f_t(u^t, x^t)            componentwise, tanh(a u + b x) on
                                       unrevealed coordinates, the revealed
                                       truth elsewhere
    v^t     = B q^t / sqrt(p) - p_t m^{t-1}
    m^t     = g_t(v^t)                 linear shrinkage, revealed truth
    u^{t+1} = B^T m^t / sqrt(p) - c_t q^t
    x^{t+1} = S q^t - d_t q^{t-1}      S = T / sqrt(n) or the centered
                                       adjacency combination

The memory coefficients (c_t, p_t, d_t) are empirical means of the
denoisers' analytic derivatives; subtracting those terms keeps successive
iterates decorrelated so that each looks like signal plus Gaussian noise
at the level predicted by state evolution.

:func:`run_amp` runs at most ``n_iter`` steps and, given a tolerance, ends
once the self-overlap s_t = <q^t, q^t> / n has settled: after the first
step t >= 2 at which both |s_t^2 - s_{t-1}^2| and |s_{t-1}^2 - s_{t-2}^2|
lie below it.  The MSE of q is 1 - 2 ov^2 + s^2, with ov = <q, x*> / n,
and at the Bayes-optimal fixed point ov and s agree (the Nishimori
identity), so 1 - s^2 is the run's own label-free estimate of its MSE,
and the tolerance bounds its change per step.  The test spans two steps
because from a coarse spectral start s first dips and then rises, and a
one-step test fires at that turn.

The denoiser coefficients come from a precomputed SeTrajectory: after
step 0 the label denoiser is tanh(sqrt(mu / c) u + sqrt(lam) x), and only
the spike shrinkage follows the predicted overlap z_t.  Both label-orbit
iterates start from one vector (:func:`init_state`): zeros with
eps-revelation side information, or the practical spectral start: sqrt(n)
times the leading eigenvector of S + a0 B^T B / p, found by a Lanczos loop
that stops as soon as its coarse tolerance is met
(:func:`mvamp.linalg.leading_eigenpair`), with the weight a0 from the
weight equation solved in closed form by :func:`solve_a0`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError
from .linalg import (ComposedSpectralOperator, RectOperator, SymmetricOperator,
                     leading_eigenpair)
from .model import RevelationMasks
from .state_evolution import DenoiserParams, SeTrajectory

__all__ = [
    "DenoiserParams",
    "AmpState",
    "AmpRun",
    "denoise_f",
    "denoise_g",
    "onsager_coeffs",
    "amp_step",
    "init_state",
    "run_amp",
    "solve_a0",
    "spectral_initialize",
]


def denoise_f(u, x, x0, revealed, params: DenoiserParams):
    """Posterior mean of a +-1 label from both orbits plus side information.

    Returns (value, d/du, d/dx).  Revealed coordinates return the known
    label with zero derivatives; the rest return tanh(a u + b x), whose
    derivatives reuse 1 - value^2.
    """
    t = np.tanh(params.a * np.asarray(u) + params.b * np.asarray(x))
    value = np.where(revealed, x0, t)
    sech2 = np.where(revealed, 0.0, 1.0 - t * t)
    return value, params.a * sech2, params.b * sech2


def denoise_g(v, v0, revealed, params: DenoiserParams):
    """Posterior mean of a Gaussian spike coordinate: linear shrinkage.

    Returns (value, d/dv); revealed coordinates return the known value
    with zero derivative.
    """
    value = np.where(revealed, v0, params.g_slope * np.asarray(v))
    dv = np.where(revealed, 0.0, params.g_slope)
    return value, dv


def onsager_coeffs(df_du: np.ndarray, df_dx: np.ndarray, dg_dv: np.ndarray,
                   n: int, p: int) -> tuple[float, float, float]:
    """Memory-correction coefficients from the last denoiser pass.

    c_t averages the spike-denoiser derivative over features, p_t averages
    the label-denoiser u-derivative scaled by the finite-sample ratio
    c = n / p, d_t averages the label-denoiser x-derivative.
    """
    c_t = float(np.sum(dg_dv) / p)
    p_t = float((n / p) * np.sum(df_du) / n)
    d_t = float(np.sum(df_dx) / n)
    return c_t, p_t, d_t


@dataclass(frozen=True)
class AmpState:
    """Iterates after step t.

    q is the current denoised label vector f_t(u, x), and df_du and df_dx
    are the derivatives that same :func:`denoise_f` call returned, from
    which the next step takes its memory coefficients; q_prev and m_prev
    are the lagged denoised vectors entering the memory terms; v is the
    covariate-orbit iterate from which m_prev was computed.
    """

    t: int
    u: np.ndarray
    x: np.ndarray
    v: np.ndarray
    q: np.ndarray
    df_du: np.ndarray
    df_dx: np.ndarray
    q_prev: np.ndarray
    m_prev: np.ndarray


def init_state(vec: np.ndarray, masks: RevelationMasks, traj: SeTrajectory,
               p: int) -> AmpState:
    """Step-0 state with both label-orbit iterates at ``vec``: the spectral
    vector, or zeros for the revelation start, whose step-0 denoiser output
    is then the revealed truth.  The state holds ``vec`` itself; no step
    writes into an iterate."""
    q, df_du, df_dx = denoise_f(vec, vec, masks.x0, masks.mask_x, traj.denoiser_coeffs(0))
    return AmpState(t=0, u=vec, x=vec, v=np.zeros(p), q=q, df_du=df_du, df_dx=df_dx,
                    q_prev=np.zeros(vec.size), m_prev=np.zeros(p))


def amp_step(state: AmpState, sym_op: SymmetricOperator, b_op: RectOperator,
             masks: RevelationMasks, traj: SeTrajectory) -> AmpState:
    """Advance one step: t -> t + 1 (see the module docstring for the order)."""
    t = state.t
    n, p = state.q.size, b_op.p
    params_t = traj.denoiser_coeffs(t)
    q = state.q
    # g_t's derivative does not depend on its argument, so all three memory
    # coefficients are known before v is formed.
    _, dg_dv = denoise_g(state.v, masks.v0, masks.mask_v, params_t)
    c_t, p_t, d_t = onsager_coeffs(state.df_du, state.df_dx, dg_dv, n, p)

    v = b_op.apply(q) - p_t * state.m_prev
    m, _ = denoise_g(v, masks.v0, masks.mask_v, params_t)

    u_next = b_op.apply_t(m) - c_t * q
    x_next = sym_op.matvec(q) - d_t * state.q_prev
    q_next, df_du, df_dx = denoise_f(u_next, x_next, masks.x0, masks.mask_x,
                                     traj.denoiser_coeffs(t + 1))
    if not (np.isfinite(q_next).all() and np.isfinite(u_next).all()
            and np.isfinite(x_next).all() and np.isfinite(v).all()):
        raise DivergenceError(
            f"non-finite iterate produced at step {t + 1}", step=t + 1)
    return AmpState(t=t + 1, u=u_next, x=x_next, v=v, q=q_next, df_du=df_du, df_dx=df_dx,
                    q_prev=q, m_prev=m)


@dataclass
class AmpRun:
    """Output of a full run: the final estimate plus per-step diagnostics.

    overlap[t] is the signed alignment <q^t, x*> / n (empty when no ground
    truth was supplied), and self_overlap[t] is <q^t, q^t> / n.
    """

    x_hat: np.ndarray
    n_steps: int
    overlap: np.ndarray
    self_overlap: np.ndarray


def run_amp(sym_op: SymmetricOperator, b_op: RectOperator, masks: RevelationMasks,
            traj: SeTrajectory, init: AmpState, n_iter: int = 100,
            x_star: np.ndarray | None = None, stop_tol: float = 0.0) -> AmpRun:
    """Run at most n_iter steps from ``init`` and return the last denoised
    labels plus diagnostics.

    ``init`` is the start, from :func:`init_state`, and has no default:
    without revealed labels (eps = 0) the zero start is a fixed point, so a
    run from it would return x_hat = 0.

    The trajectory must provide coefficients for n_iter + 1 steps.  With
    s_t = self_overlap[t], the loop ends after the first step t >= 2 at
    which s^2 moved by less than ``stop_tol`` (finite, nonnegative) over
    each of the last two steps, so n_iter is a cap; ``stop_tol = 0`` runs
    all n_iter steps.  ``n_steps`` of the result is the number of steps
    taken.  The stop reads no labels: ``x_star`` feeds only ``overlap``.

    The module docstring says why the stop watches s^2 and why over two
    steps.  Below the detection threshold s is small and s^2 settles as
    well, so such runs stop long before the cap.  At the turn of s, gaussian
    n = 1500, p = 900, mu = 0.9, lambda = 1.5, seed 1302: a one-step test
    stops at step 6 with MSE 1.093, the two-step test at step 29 with
    0.7116, against 0.7114 after 100 steps.

    Products with the float32 matrices that :mod:`mvamp.model` samples
    carry float32 round-off, so above the detection threshold the change
    of s^2 settles at a floor of about 0.5e-8 to 1.3e-8: a ``stop_tol``
    below about 3e-8 may never fire.  The sweeps' default
    (``ExperimentConfig.stop_tol``, 1e-4) sits more than 3000 times above
    that floor.
    """
    if n_iter < 1:
        raise ValueError(f"need at least one step, got n_iter={n_iter}")
    if not (np.isfinite(stop_tol) and stop_tol >= 0.0):
        raise ValueError(f"stop_tol must be finite and nonnegative, got {stop_tol}")
    if len(traj) < n_iter + 1:
        raise ValueError(
            f"trajectory provides {len(traj)} steps, need {n_iter + 1}")
    state = init
    n = state.q.size

    overlaps, selfs = [], []

    def record(q):
        selfs.append(float(np.dot(q, q) / n))
        if x_star is not None:
            overlaps.append(float(np.dot(q, x_star) / n))

    record(state.q)
    settled = 0  # consecutive steps that moved s^2 by less than stop_tol
    for _ in range(n_iter):
        state = amp_step(state, sym_op, b_op, masks, traj)
        record(state.q)
        settled = settled + 1 if abs(selfs[-1] ** 2 - selfs[-2] ** 2) < stop_tol else 0
        if settled == 2:
            break
    return AmpRun(x_hat=state.q, n_steps=state.t,
                  overlap=np.array(overlaps), self_overlap=np.array(selfs))


def _a0_rhs(a: float, lam: float, mu: float, c: float) -> float:
    s = lam + (c + mu) * a * a
    disc = s * s - 4.0 * lam * c * a * a
    # disc = lam^2 + 2 lam (mu - c) a^2 + (c + mu)^2 a^4 has no real roots
    # in a^2, so it stays positive for all a.
    return (-lam + (c + mu) * a * a + np.sqrt(disc)) / (2.0 * mu)


def solve_a0(lam: float, mu: float, c: float) -> float:
    """Spectral combination weight: the positive root a0 of
    rhs(a) = t with t = mu / (c lam).

    Write A = a^2 and s = lam + (c + mu) A.  The equation reads
    sqrt(s^2 - 4 lam c A) = 2 mu t + lam - (c + mu) A; squaring it cancels
    the (c + mu)^2 A^2 terms on both sides and leaves an equation linear in
    A, 4 mu (lam + (c + mu) t) A = 4 mu t (lam + mu t), so

        a0^2 = t (lam + mu t) / (lam + (c + mu) t).

    Squaring adds no root: (c + mu) a0^2 < lam + mu t, so the right-hand
    side of the unsquared equation stays positive.

    Undefined when either signal is absent (the initializer then
    degenerates to a single-source eigenvector problem: pass None for the
    absent operator to :func:`spectral_initialize`).
    """
    if lam <= 0.0 or mu <= 0.0:
        raise ValueError(
            "combination weight is undefined when a signal is absent: "
            f"lam={lam}, mu={mu}; call spectral_initialize with None for the "
            "absent operator instead")
    if c <= 0.0:
        raise ValueError(f"aspect ratio c must be positive, got {c}")
    t = mu / (c * lam)
    return float(np.sqrt(t * (lam + mu * t) / (lam + (c + mu) * t)))


def spectral_initialize(sym_op: SymmetricOperator | None, b_op: RectOperator | None,
                        a0: float, rng,
                        tol: float = 1e-1) -> np.ndarray:
    """Leading eigenvector of the composed initializer matrix, scaled to
    norm sqrt(n): the starting vector of both label orbits.

    Pass a0 = 0 (or no rectangular operator) when the covariates carry no
    signal, and no symmetric operator when the networks carry none.

    ``tol`` is the Lanczos tolerance.  AMP forgets its start once it
    converges, so the start needs only coarse accuracy, and the Lanczos
    loop stops as soon as it is met: over the 110 replicates of acceptance
    criteria 04-07, tol 1e-1 against 1e-2 cut the matvecs of a start from
    11-40 to 7-12, its residual check included.  With the sweeps' default
    stop it moved no grid point's mean MSE above the detection threshold by
    more than 5e-6, and AMP took a few more steps (criterion 04 at
    lambda = 1.5: 39 instead of 30 on average), which the saved matvecs
    outweigh.
    """
    op = ComposedSpectralOperator(sym_op, b_op, a0)
    _, vec = leading_eigenpair(op, tol=tol, rng=rng)
    return np.sqrt(op.n) * vec
