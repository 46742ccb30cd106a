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

The denoiser coefficients come from a precomputed SeTrajectory.  Two
initializations are supported: zero iterates with eps-revelation side
information, and the practical spectral start: sqrt(n) times the leading
eigenvector of S + a0 B^T B / p, found by Lanczos
(:func:`mvamp.linalg.leading_eigenpair`), with the weight a0 from the
weight equation solved in closed form by :func:`solve_a0`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError
from .linalg import RectOperator, SymmetricOperator, compose_spectral_operator, leading_eigenpair
from .model import RevelationMasks
from .state_evolution import SeTrajectory

__all__ = [
    "DenoiserParams",
    "AmpState",
    "AmpRun",
    "denoise_f",
    "denoise_g",
    "onsager_coeffs",
    "amp_step",
    "init_zero",
    "init_spectral",
    "run_amp",
    "solve_a0",
    "spectral_initialize",
]


@dataclass(frozen=True)
class DenoiserParams:
    """Scalar coefficients of the step-t denoisers.

    a and b multiply the covariate-orbit and network-orbit iterates inside
    the label tanh; g_slope is the posterior-mean shrinkage factor of the
    spike estimate.  All default to the 0/0 -> 0 convention upstream.
    """

    a: float
    b: float
    g_slope: float


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

    q is the current denoised label vector f_t(u, x); q_prev and m_prev
    are the lagged denoised vectors entering the memory terms; v is the
    covariate-orbit iterate from which m_prev was computed.
    """

    t: int
    u: np.ndarray
    x: np.ndarray
    v: np.ndarray
    q: np.ndarray
    q_prev: np.ndarray
    m_prev: np.ndarray


def _coeffs(traj: SeTrajectory, t: int) -> DenoiserParams:
    a, b, g_slope = traj.denoiser_coeffs(t)
    return DenoiserParams(a=a, b=b, g_slope=g_slope)


def init_zero(masks: RevelationMasks, traj: SeTrajectory, p: int) -> AmpState:
    """All-zero iterates; the step-0 denoiser output is the revealed truth."""
    n = masks.x0.size
    u = np.zeros(n)
    x = np.zeros(n)
    q, _, _ = denoise_f(u, x, masks.x0, masks.mask_x, _coeffs(traj, 0))
    return AmpState(t=0, u=u, x=x, v=np.zeros(p), q=q,
                    q_prev=np.zeros(n), m_prev=np.zeros(p))


def init_spectral(x0_vec: np.ndarray, u0_vec: np.ndarray, masks: RevelationMasks,
                  traj: SeTrajectory, p: int) -> AmpState:
    """Start both label-orbit iterates from the spectral vector."""
    q, _, _ = denoise_f(u0_vec, x0_vec, masks.x0, masks.mask_x, _coeffs(traj, 0))
    return AmpState(t=0, u=u0_vec.copy(), x=x0_vec.copy(), v=np.zeros(p), q=q,
                    q_prev=np.zeros(x0_vec.size), m_prev=np.zeros(p))


def amp_step(state: AmpState, sym_op: SymmetricOperator, b_op: RectOperator,
             masks: RevelationMasks, traj: SeTrajectory) -> AmpState:
    """Advance one step: t -> t + 1 (see the module docstring for the order)."""
    t = state.t
    n, p = state.q.size, b_op.p
    params_t = _coeffs(traj, t)
    q = state.q
    sech2 = np.where(masks.mask_x, 0.0, 1.0 - q * q)
    # g_t's derivative does not depend on its argument, so all three memory
    # coefficients are known before v is formed.
    _, dg_dv = denoise_g(state.v, masks.v0, masks.mask_v, params_t)
    c_t, p_t, d_t = onsager_coeffs(params_t.a * sech2, params_t.b * sech2, dg_dv, n, p)

    v = b_op.apply(q) - p_t * state.m_prev
    m, _ = denoise_g(v, masks.v0, masks.mask_v, params_t)

    u_next = b_op.apply_t(m) - c_t * q
    x_next = sym_op.matvec(q) - d_t * state.q_prev
    q_next, _, _ = denoise_f(u_next, x_next, masks.x0, masks.mask_x,
                             _coeffs(traj, t + 1))
    if not (np.isfinite(q_next).all() and np.isfinite(u_next).all()
            and np.isfinite(x_next).all() and np.isfinite(v).all()):
        raise DivergenceError(
            f"non-finite iterate produced at step {t + 1}", step=t + 1)
    return AmpState(t=t + 1, u=u_next, x=x_next, v=v, q=q_next,
                    q_prev=q, m_prev=m)


@dataclass
class AmpRun:
    """Output of a full run: the final estimate plus per-step diagnostics.

    overlap[t] is the signed alignment <q^t, x*> / n (empty arrays when no
    ground truth was supplied), self_overlap[t] is <q^t, q^t> / n, and
    mse[t] the matrix mean square error via the O(n) identity.
    """

    x_hat: np.ndarray
    n_steps: int
    overlap: np.ndarray
    self_overlap: np.ndarray
    mse: np.ndarray


def run_amp(sym_op: SymmetricOperator, b_op: RectOperator, masks: RevelationMasks,
            traj: SeTrajectory, n_iter: int = 100,
            init: AmpState | None = None, x_star: np.ndarray | None = None,
            early_stop_tol: float | None = None) -> AmpRun:
    """Run n_iter steps and return the last denoised labels plus diagnostics.

    The trajectory must provide coefficients for n_iter + 1 steps.  With
    ``early_stop_tol`` set, the loop ends once successive denoised vectors
    differ by less than that tolerance in root-mean-square.
    """
    if n_iter < 1:
        raise ValueError(f"need at least one step, got n_iter={n_iter}")
    if len(traj) < n_iter + 1:
        raise ValueError(
            f"trajectory provides {len(traj)} steps, need {n_iter + 1}")
    state = init if init is not None else init_zero(masks, traj, b_op.p)
    n = state.q.size

    overlaps, selfs, mses = [], [], []

    def record(q):
        s = float(np.dot(q, q) / n)
        selfs.append(s)
        if x_star is not None:
            ov = float(np.dot(q, x_star) / n)
            overlaps.append(ov)
            mses.append(1.0 - 2.0 * ov * ov + s * s)

    record(state.q)
    for _ in range(n_iter):
        new_state = amp_step(state, sym_op, b_op, masks, traj)
        record(new_state.q)
        delta = float(np.linalg.norm(new_state.q - state.q) / np.sqrt(n))
        state = new_state
        if early_stop_tol is not None and delta < early_stop_tol:
            break
    return AmpRun(x_hat=state.q, n_steps=state.t,
                  overlap=np.array(overlaps), self_overlap=np.array(selfs),
                  mse=np.array(mses))


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
    degenerates to a single-source eigenvector problem).
    """
    if lam <= 0.0 or mu <= 0.0:
        raise ValueError(
            "combination weight is undefined when a signal is absent: "
            f"lam={lam}, mu={mu}; use the single-source initializer instead")
    if c <= 0.0:
        raise ValueError(f"aspect ratio c must be positive, got {c}")
    t = mu / (c * lam)
    return float(np.sqrt(t * (lam + mu * t) / (lam + (c + mu) * t)))


def spectral_initialize(sym_op: SymmetricOperator | None, b_op: RectOperator | None,
                        a0: float, rng,
                        tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenvector of the composed initializer matrix, scaled to
    norm sqrt(n), duplicated into the two label-orbit starting vectors.

    Pass a0 = 0 (or no rectangular operator) when the covariates carry no
    signal, and no symmetric operator when the networks carry none.
    """
    op = compose_spectral_operator(sym_op, b_op, a0)
    _, vec = leading_eigenpair(op, tol=tol, rng=rng)
    scaled = np.sqrt(op.n) * vec
    return scaled.copy(), scaled.copy()
