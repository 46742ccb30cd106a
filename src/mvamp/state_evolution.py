"""State evolution: the deterministic theory behind the two-orbit iteration.

Everything here is scalar.  The central object is the one-dimensional map

    G_eps(z) = 1 - (1 - eps) * mmse(lambda * z + (mu / c) * w(z)),

whose iterates predict the per-step overlap between the denoised label
iterate and the truth, and whose largest fixed point z* gives the
asymptotic limits: the matrix MMSE is 1 - z*^2, detection is possible
exactly when lambda + mu^2 / c > 1, and the per-vertex mutual information
limit is the closed form ``xi_limit``.

The covariate-channel term w(z) comes in two conventions that agree at
eps = 0 (all the z* / MMSE / xi theory is evaluated there):

* default: w(z) = (1 - eps) * mu z / (1 + mu z).  This is the plain
  closed-form recursion; it satisfies G_eps(0) = eps.
* ``revealed_spike_snr=True``: w(z) = eps + (1 - eps) * mu z / (1 + mu z).
  The revealed spike coordinates are counted as noiseless observations.
  The iterative algorithm really does realize this extra signal (the
  revealed coordinates of the spike estimate are copied from the truth and
  feed the label orbit through the covariate matrix), so the Monte-Carlo
  tracking harness must be compared against this variant.  Verified
  empirically: at (lambda, mu, c, eps) = (2, 1, 1, 0.1), n = 3000, the
  mean overlap trajectory matches this variant to ~5e-3 while the default
  variant is off by up to ~0.07 at early iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import ConvergenceError
from .scalar_channel import scalar_mi, scalar_mmse

__all__ = [
    "SeConfig",
    "SeTrajectory",
    "SeParams",
    "se_scalar_step",
    "fixed_point_z",
    "limit_mmse",
    "detection_possible",
    "xi_limit",
    "gamma_star",
    "se_run",
    "params_from_z",
]

# fixed_point_z stops once |dz| < _FP_TOL and gives up after _FP_MAX_STEPS.
_FP_TOL = 1e-12
_FP_MAX_STEPS = 10_000

# Range of the uniform step-0 channel parameters of the "random-interval" start.
_INIT_INTERVAL = (4.0, 10.0)


def _ratio0(num: float, den: float) -> float:
    """num / den with the 0/0 -> 0 convention used throughout."""
    if den == 0.0:
        return 0.0
    return num / den


@dataclass(frozen=True)
class SeConfig:
    """Parameters of a state-evolution run.

    lam, mu are the network and covariate signal strengths, c > 0 the
    subjects-per-feature ratio, eps in [0, 1] the revelation fraction.
    ``init_mode`` is one of:

    * ``"deterministic-z1"`` - seed the scalar recursion at overlap 1 and
      reconstruct all channel parameters from it (library default;
      reproducible without a seed).
    * ``"random-interval"`` - draw the four step-0 channel parameters
      uniformly from [4, 10] (the simulation-protocol variant); requires
      ``seed``.
    * ``"zero"`` - the degenerate all-zero start; with eps > 0 the
      revelation pulls the recursion off the origin, with eps = 0 the
      trajectory stays identically zero.

    ``t_max`` is the number of steps :func:`se_run` records.
    """

    lam: float
    mu: float
    c: float
    eps: float = 0.0
    init_mode: str = "deterministic-z1"
    seed: int | None = None
    t_max: int = 10_000
    revealed_spike_snr: bool = False

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
        if self.init_mode not in ("deterministic-z1", "random-interval", "zero"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.init_mode == "random-interval" and self.seed is None:
            raise ValueError("init_mode 'random-interval' requires a seed")


class SeParams(NamedTuple):
    """Channel parameters consistent with a single scalar state z."""

    alpha: float
    tau2: float
    mu_t: float
    sigma2: float
    beta: float
    vartheta2: float


def _covariate_weight(z: float, mu: float, eps: float, revealed_spike_snr: bool) -> float:
    """The w(z) term: covariate-orbit overlap fraction feeding the label channel."""
    theta = mu * z
    w = (1.0 - eps) * _ratio0(theta, 1.0 + theta)
    if revealed_spike_snr:
        w += eps
    return w


def _label_snr(z: float, cfg: SeConfig) -> float:
    """eta(z) = lam z + (mu / c) w(z): the snr of the channel that G_eps
    and the mutual-information functional evaluate."""
    w = _covariate_weight(z, cfg.mu, cfg.eps, cfg.revealed_spike_snr)
    return cfg.lam * z + (cfg.mu / cfg.c) * w


def se_scalar_step(z: float, cfg: SeConfig) -> float:
    """One application of the scalar map G_eps.

    Maps [0, 1] into [eps, 1] (default convention); increasing and concave.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"scalar state must lie in [0, 1], got {z}")
    return 1.0 - (1.0 - cfg.eps) * scalar_mmse(_label_snr(z, cfg))


def fixed_point_z(cfg: SeConfig) -> float:
    """Largest nonnegative fixed point of G_eps, by iteration from z = 1.

    G_eps is increasing and concave with G_eps(1) <= 1, so the iterates
    decrease monotonically to the largest fixed point.  Raises
    ConvergenceError when 10 000 steps do not reach |dz| < 1e-12.

    Without revelation the map has slope lam + mu^2/c at the origin, so at
    or below the detection threshold the only nonnegative fixed point is 0
    and it is returned exactly; iterating would converge only polynomially
    at the critical point itself.  With eps > 0 the fixed point is unique
    and the iteration contracts geometrically.
    """
    if cfg.eps == 0.0 and not detection_possible(cfg.lam, cfg.mu, cfg.c):
        return 0.0
    z = 1.0
    for _ in range(_FP_MAX_STEPS):
        z_next = se_scalar_step(z, cfg)
        if abs(z_next - z) < _FP_TOL:
            return z_next
        z = z_next
    residual = abs(se_scalar_step(z, cfg) - z)
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={_FP_TOL} within "
        f"{_FP_MAX_STEPS} steps (last residual {residual:.3e})",
        residual=residual, iterations=_FP_MAX_STEPS)


def limit_mmse(lam: float, mu: float, c: float) -> float:
    """Asymptotic matrix MMSE, 1 - z*(lam, mu)^2.

    Equals 1 exactly when lam + mu^2 / c <= 1 and is < 1 otherwise.
    """
    z_star = fixed_point_z(SeConfig(lam=lam, mu=mu, c=c))
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
    cfg = SeConfig(lam=lam, mu=mu, c=c)
    return float(_xi(fixed_point_z(cfg), cfg))


def gamma_star(mu: float, c: float) -> float:
    """Covariate-only fixed point: largest root of
    z = 1 - mmse((mu^2 / c) z / (1 + mu z)).

    Zero whenever mu^2 / c <= 1.  This is z*(0, mu), so the same monotone
    iteration applies.
    """
    return fixed_point_z(SeConfig(lam=0.0, mu=mu, c=c))


def params_from_z(z: float, lam: float, mu: float, c: float, eps: float,
                  revealed_spike_snr: bool = False) -> SeParams:
    """Channel parameters consistent with scalar state z.

    The label orbit sees signal sqrt(lam) z against variance z, the
    covariate orbit sees sqrt(mu c) z against variance c z, and the
    returned (alpha, tau2) describe the covariate-driven label channel
    with overlap fraction w(z).  Identities: alpha / tau2 = sqrt(mu / c),
    mu_t^2 / sigma2 = lam z, beta^2 / vartheta2 = mu z.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"scalar state must lie in [0, 1], got {z}")
    w = _covariate_weight(z, mu, eps, revealed_spike_snr)
    tau2 = w
    alpha = np.sqrt(mu / c) * w
    mu_t = np.sqrt(lam) * z
    sigma2 = z
    beta = np.sqrt(mu * c) * z
    vartheta2 = c * z
    return SeParams(alpha=float(alpha), tau2=float(tau2), mu_t=float(mu_t),
                    sigma2=float(sigma2), beta=float(beta), vartheta2=float(vartheta2))


@dataclass
class SeTrajectory:
    """Aligned per-step state-evolution sequences.

    Index k of every array belongs to iteration k of the algorithm:
    ``alpha[k]``, ``tau2[k]``, ``mu_t[k]``, ``sigma2[k]`` parameterize the
    label denoiser applied at step k (in the recursion's own indexing these
    are alpha_{k-1}, tau^2_{k-1}, mu_k, sigma^2_k), while ``beta[k]``,
    ``vartheta2[k]`` parameterize the spike denoiser at step k and ``z[k]``
    is the predicted overlap of the step-k denoised labels.
    """

    cfg: SeConfig
    alpha: np.ndarray
    tau2: np.ndarray
    mu_t: np.ndarray
    sigma2: np.ndarray
    beta: np.ndarray
    vartheta2: np.ndarray
    z: np.ndarray

    @property
    def gamma(self) -> np.ndarray:
        """Label-channel snr gamma_k = mu_k^2 / sigma^2_k per step."""
        out = np.zeros_like(self.mu_t)
        nz = self.sigma2 != 0.0
        out[nz] = self.mu_t[nz] ** 2 / self.sigma2[nz]
        return out

    @property
    def theta(self) -> np.ndarray:
        """Spike-channel snr theta_k = beta_k^2 / vartheta^2_k per step."""
        out = np.zeros_like(self.beta)
        nz = self.vartheta2 != 0.0
        out[nz] = self.beta[nz] ** 2 / self.vartheta2[nz]
        return out

    def denoiser_coeffs(self, k: int) -> tuple[float, float, float]:
        """(a, b, g_slope) for step k: the two tanh coefficients of the
        label denoiser and the shrinkage slope of the spike denoiser."""
        a = _ratio0(self.alpha[k], self.tau2[k])
        b = _ratio0(self.mu_t[k], self.sigma2[k])
        g_slope = _ratio0(self.beta[k], self.beta[k] ** 2 + self.vartheta2[k])
        return float(a), float(b), float(g_slope)

    def __len__(self) -> int:
        return len(self.z)


def se_run(cfg: SeConfig) -> SeTrajectory:
    """Run the full recursion for cfg.t_max steps and return the trajectory.

    Variance entries are nonnegative and z stays in [0, 1] throughout; the
    internal consistency gamma_{k+1} / lam = theta_k / mu holds whenever
    both signals are positive.
    """
    T = cfg.t_max
    alpha = np.zeros(T + 1)
    tau2 = np.zeros(T + 1)
    mu_t = np.zeros(T + 1)
    sigma2 = np.zeros(T + 1)
    beta = np.zeros(T + 1)
    vartheta2 = np.zeros(T + 1)
    z = np.zeros(T + 1)

    if cfg.init_mode == "deterministic-z1":
        p0 = params_from_z(1.0, cfg.lam, cfg.mu, cfg.c, cfg.eps, cfg.revealed_spike_snr)
        alpha[0], tau2[0], mu_t[0], sigma2[0] = p0.alpha, p0.tau2, p0.mu_t, p0.sigma2
    elif cfg.init_mode == "random-interval":
        rng = np.random.default_rng(cfg.seed)
        m0, s0, a_prev, t_prev = rng.uniform(*_INIT_INTERVAL, size=4)
        alpha[0], tau2[0] = a_prev, t_prev ** 2
        mu_t[0], sigma2[0] = m0, s0 ** 2
    # "zero" mode leaves row 0 at the all-zero degenerate start.

    eta0 = _ratio0(alpha[0] ** 2, tau2[0]) + _ratio0(mu_t[0] ** 2, sigma2[0])
    z[0] = 1.0 - (1.0 - cfg.eps) * scalar_mmse(eta0)
    beta[0] = np.sqrt(cfg.mu * cfg.c) * z[0]
    vartheta2[0] = cfg.c * z[0]

    for k in range(1, T + 1):
        zp = z[k - 1]
        p = params_from_z(zp, cfg.lam, cfg.mu, cfg.c, cfg.eps, cfg.revealed_spike_snr)
        alpha[k], tau2[k], mu_t[k], sigma2[k] = p.alpha, p.tau2, p.mu_t, p.sigma2
        z[k] = se_scalar_step(zp, cfg)
        beta[k] = np.sqrt(cfg.mu * cfg.c) * z[k]
        vartheta2[k] = cfg.c * z[k]

    return SeTrajectory(cfg=cfg, alpha=alpha, tau2=tau2, mu_t=mu_t,
                        sigma2=sigma2, beta=beta, vartheta2=vartheta2, z=z)
