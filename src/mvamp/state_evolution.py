"""State evolution: the deterministic theory behind the two-orbit iteration.

Everything here is scalar.  The central object is the one-dimensional map

    G_eps(z) = 1 - (1 - eps) * mmse(lambda * z + (mu / c) * w(z)),

whose iterates predict the per-step overlap between the denoised label
iterate and the truth, and whose largest fixed point z* gives the
asymptotic limits: the matrix MMSE is 1 - z*^2, detection is possible
exactly when lambda + mu^2 / c > 1, and the per-vertex mutual information
limit is the closed form ``xi_limit``.  The paper states these limits at
eps = 0.

A fraction eps > 0 of the truth is revealed only by the zero start of the
iteration (the orchestrated analysis and the tracking check), so eps alone
picks the start: eps = 0 is the spectral start.  The covariate-channel
term is

    w(z) = eps + (1 - eps) * mu z / (1 + mu z),

which counts the revealed spike coordinates as noiseless observations: the
iteration copies them from the truth, and they feed the label orbit
through the covariate matrix.  At eps = 0 it is mu z / (1 + mu z).
Verified empirically: at (lambda, mu, c, eps) = (2, 1, 1, 0.1), n = 3000,
the mean overlap trajectory matches this recursion to ~5e-3, while
dropping the eps term is off by up to ~0.07 at early iterations.

:func:`se_run` turns the recursion into the iteration's denoiser schedule.
The channel parameters of each step reduce to closed forms: after step 0
the label denoiser is tanh(sqrt(mu / c) u + sqrt(lam) x), and only the
spike shrinkage sqrt(mu / c) / (1 + mu z_t) follows the state z_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError
from .scalar_channel import scalar_mi, scalar_mmse

__all__ = [
    "SeConfig",
    "SeTrajectory",
    "DenoiserParams",
    "se_scalar_step",
    "fixed_point_z",
    "limit_mmse",
    "detection_possible",
    "xi_limit",
    "theory_limits",
    "se_run",
]

# fixed_point_z stops once |dz| < _FP_TOL and gives up after _FP_MAX_STEPS.
_FP_TOL = 1e-12
_FP_MAX_STEPS = 10_000


@dataclass(frozen=True)
class SeConfig:
    """Parameters of a state-evolution run.

    lam, mu are the network and covariate signal strengths, c > 0 the
    subjects-per-feature ratio, eps in [0, 1] the revelation fraction, which
    also picks the start of :func:`se_run`: 0 runs the spectral start; > 0
    starts from zero iterates with that fraction revealed.  ``t_max`` is the
    number of steps :func:`se_run` records.
    """

    lam: float
    mu: float
    c: float
    eps: float = 0.0
    t_max: int = 10_000

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lam, self.mu, self.c, self.eps)):
            raise ValueError(f"lam, mu, c and eps must be finite, got "
                             f"{self.lam}, {self.mu}, {self.c}, {self.eps}")
        if self.lam < 0 or self.mu < 0:
            raise ValueError("signal strengths must be nonnegative")
        if self.c <= 0:
            raise ValueError(f"aspect ratio c must be positive, got {self.c}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"revelation fraction must lie in [0, 1], got {self.eps}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be at least 1, got {self.t_max}")


def _covariate_weight(z, mu: float, eps: float):
    """The w(z) term: covariate-orbit overlap fraction feeding the label
    channel, the revealed fraction eps included (elementwise on an array of
    states)."""
    theta = mu * z
    return (1.0 - eps) * (theta / (1.0 + theta)) + eps


def _label_snr(z: float, cfg: SeConfig) -> float:
    """eta(z) = lam z + (mu / c) w(z): the snr of the channel that G_eps
    and the mutual-information functional evaluate."""
    w = _covariate_weight(z, cfg.mu, cfg.eps)
    return cfg.lam * z + (cfg.mu / cfg.c) * w


def _step(z: float, cfg: SeConfig) -> float:
    """G_eps(z) for a z already known to lie in [0, 1]."""
    return 1.0 - (1.0 - cfg.eps) * scalar_mmse(_label_snr(z, cfg))


def se_scalar_step(z: float, cfg: SeConfig) -> float:
    """One application of the scalar map G_eps.

    Increasing and concave on [0, 1], with G_eps(0) = 1 - (1 - eps) *
    mmse((mu / c) eps): with nothing else to go on, the revealed labels and
    the revealed spike coordinates still carry signal.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"scalar state must lie in [0, 1], got {z}")
    return _step(z, cfg)


def fixed_point_z(cfg: SeConfig) -> float:
    """Largest nonnegative fixed point of G_eps, by iteration from z = 1.

    G_eps is increasing and concave with G_eps(1) <= 1, so the iterates
    decrease monotonically to the largest fixed point.  Raises
    ConvergenceError when 10 000 steps do not reach |dz| < 1e-12.

    Without revelation the map has slope lam + mu^2/c at the origin, so at
    or below the detection threshold the only nonnegative fixed point is 0
    and it is returned exactly; iterating would converge only polynomially
    at the critical point itself.  With eps > 0, G_eps(0) > 0, the fixed
    point z*_eps is unique and the iteration contracts geometrically.
    """
    if cfg.eps == 0.0 and not detection_possible(cfg.lam, cfg.mu, cfg.c):
        return 0.0
    # G_eps maps [0, 1] into itself, so the iterates need no range check.
    z = 1.0
    for _ in range(_FP_MAX_STEPS):
        z_next = _step(z, cfg)
        if abs(z_next - z) < _FP_TOL:
            return z_next
        z = z_next
    residual = abs(_step(z, cfg) - z)
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={_FP_TOL} within "
        f"{_FP_MAX_STEPS} steps (last residual {residual:.3e})",
        residual=residual, iterations=_FP_MAX_STEPS)


def limit_mmse(lam: float, mu: float, c: float, eps: float = 0.0) -> float:
    """Asymptotic matrix MMSE, 1 - z*_eps(lam, mu)^2.

    At eps = 0 this is the paper's limit: 1 exactly when lam + mu^2 / c <= 1
    and < 1 otherwise.  With eps > 0 it is the limit of the iteration
    started from zero iterates with an eps fraction of the truth revealed,
    the value a revelation sweep is compared with.
    """
    return _matrix_mmse(fixed_point_z(SeConfig(lam=lam, mu=mu, c=c, eps=eps)))


def _matrix_mmse(z_star: float) -> float:
    """The matrix MMSE 1 - z*^2 of a fixed point z*."""
    return 1.0 - z_star ** 2


def detection_possible(lam: float, mu: float, c: float) -> bool:
    """Whether estimation beats random guessing: lam + mu^2 / c > 1 (strict)."""
    if lam < 0 or mu < 0 or c <= 0:
        raise ValueError("need lam >= 0, mu >= 0, c > 0")
    return lam + mu ** 2 / c > 1.0


def _xi(z: float, cfg: SeConfig) -> float:
    """The mutual-information functional evaluated at an arbitrary state z
    (cfg has eps = 0)."""
    lam, mu, c = cfg.lam, cfg.mu, cfg.c
    return (lam * z ** 2 / 4.0
            - lam * z / 2.0
            + lam / 4.0
            + np.log1p(mu * z) / (2.0 * c)
            + (1.0 + mu) / ((1.0 + mu * z) * 2.0 * c)
            + scalar_mi(_label_snr(z, cfg))
            - np.log1p(mu) / (2.0 * c)
            - 1.0 / (2.0 * c))


def xi_limit(lam: float, mu: float, c: float) -> float:
    """Limit of the per-vertex mutual information, evaluated at z*(lam, mu).

    Zero when both signals vanish; saturates at log 2 for strong network
    signal.
    """
    return theory_limits(lam, mu, c)[2]


def theory_limits(lam: float, mu: float, c: float) -> tuple[float, float, float]:
    """(z*, limit_mmse, xi_limit) at eps = 0 from a single fixed-point solve,
    the values the three separate functions return."""
    cfg = SeConfig(lam=lam, mu=mu, c=c)
    z_star = fixed_point_z(cfg)
    return z_star, _matrix_mmse(z_star), float(_xi(z_star, cfg))


@dataclass(frozen=True)
class DenoiserParams:
    """Scalar coefficients of the step-t denoisers.

    a and b multiply the covariate-orbit and network-orbit iterates inside
    the label tanh; g_slope is the posterior-mean shrinkage factor of the
    spike estimate.
    """

    a: float
    b: float
    g_slope: float


@dataclass
class SeTrajectory:
    """Per-step state-evolution schedule.

    ``z[k]`` is the predicted overlap of the step-k denoised labels, and
    ``a[k]``, ``b[k]``, ``g_slope[k]`` are the coefficients of the denoisers
    applied at step k.  From step 1 on, the label coefficients are the
    constants sqrt(mu / c) and sqrt(lam) (0 while the previous state gives
    that orbit no signal), and only the spike shrinkage
    sqrt(mu / c) / (1 + mu z[k]) follows the state.
    """

    cfg: SeConfig
    z: np.ndarray
    a: np.ndarray
    b: np.ndarray
    g_slope: np.ndarray

    def denoiser_coeffs(self, k: int) -> DenoiserParams:
        """The denoiser coefficients of step k."""
        return DenoiserParams(a=float(self.a[k]), b=float(self.b[k]),
                              g_slope=float(self.g_slope[k]))

    def __len__(self) -> int:
        return len(self.z)


def se_run(cfg: SeConfig) -> SeTrajectory:
    """Run the recursion for cfg.t_max steps after step 0 and return the
    schedule; z stays in [0, 1] throughout.

    Step 0 follows eps.  At eps = 0, the spectral start, it is one step of
    the recursion from z = 1.  At eps > 0 the iteration starts from zero
    iterates with that fraction revealed: step 0 has no label signal
    (a = b = 0), and z_0 = 1 - (1 - eps) mmse(0) = eps.
    """
    T = cfg.t_max
    z = np.empty(T + 1)
    zero_start = cfg.eps > 0.0
    if zero_start:
        z[0] = 1.0 - (1.0 - cfg.eps) * scalar_mmse(0.0)
    else:
        z[0] = se_scalar_step(1.0, cfg)
    # Every step-0 state lies in [0, 1], and G_eps keeps it there.
    for k in range(1, T + 1):
        z[k] = _step(z[k - 1], cfg)

    # The label denoiser of step k follows z[k - 1]; step 0 of the spectral
    # start follows z = 1.
    z_prev = np.concatenate(([1.0], z[:-1]))
    w_prev = _covariate_weight(z_prev, cfg.mu, cfg.eps)
    a = np.where(w_prev != 0.0, math.sqrt(cfg.mu / cfg.c), 0.0)
    b = np.where(z_prev != 0.0, math.sqrt(cfg.lam), 0.0)
    if zero_start:
        a[0] = b[0] = 0.0
    g_slope = np.where(z != 0.0, math.sqrt(cfg.mu / cfg.c) / (1.0 + cfg.mu * z), 0.0)
    return SeTrajectory(cfg=cfg, z=z, a=a, b=b, g_slope=g_slope)
