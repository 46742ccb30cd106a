"""Scalar Gaussian channel with a symmetric binary input.

For the observation Y = sqrt(eta) * X0 + Z0 with X0 uniform on {-1, +1}
and Z0 standard normal, this module evaluates

    mmse(eta) = 1 - E[tanh^2(eta + sqrt(eta) Z0)]
    mi(eta)   = eta - E[log cosh(eta + sqrt(eta) Z0)]

by Gauss-Hermite quadrature under the standard normal weight.  These two
functions drive every state-evolution recursion and every closed-form
limit in the package, so they are kept deliberately small and heavily
cross-checked (Monte Carlo, and the identity d/d_eta mi = mmse / 2).

For eta above ``ETA_ASYMPTOTIC`` the integrands saturate below double
precision and the known asymptotes are returned (mmse -> 0, mi -> log 2).

The quadrature rule is built here with numpy alone (Tricomi starting
values, then Newton on the three-term recurrence; see
:func:`gauss_hermite_rule`), so the theory functions load no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError

__all__ = [
    "QuadratureRule",
    "gauss_hermite_rule",
    "log_cosh",
    "scalar_mmse",
    "scalar_mi",
    "DEFAULT_ORDER",
    "ETA_ASYMPTOTIC",
]

#: Default quadrature order.  The tanh/log-cosh integrands develop a
#: near-kink of width ~1/sqrt(eta) at large eta, which slows Gauss-Hermite
#: convergence; measured worst-case error over eta <= 50 is ~2e-5 at order
#: 61, ~1e-10 at 301, and below 1e-12 at 501.  A single mmse evaluation at
#: order 501 takes 6-8 microseconds, so there is no reason to be stingy here.
DEFAULT_ORDER = 501

#: SNR beyond which the asymptotic values are returned instead of the
#: quadrature sum.  At eta = 50 the gap to the asymptote is below 1e-10.
ETA_ASYMPTOTIC = 50.0

_NEWTON_MAX_STEPS = 20


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrating against the standard normal density.

    ``sum(weights * f(nodes))`` approximates E[f(Z)] for Z ~ N(0, 1); the
    rule is exact for polynomials of degree <= 2k - 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def expect(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_hermite_rule(k: int) -> QuadratureRule:
    """k-point Gauss-Hermite rule for the N(0,1) weight, in O(k) memory.

    The nodes are the roots of the probabilists' Hermite polynomial He_k.
    The positive ones start from Tricomi's asymptotic formula (Townsend,
    Trogdon & Olver, IMA J. Numer. Anal. 36, 2016, lemma 3.1; scipy's
    large-order rule starts the same way) and are polished by Newton on
    the orthonormal recurrence p_0 = 1, p_{j+1} = (x p_j - sqrt(j) p_{j-1})
    / sqrt(j + 1), whose derivative gives the step p_k / (sqrt(k) p_{k-1}).
    The weights are 1 / (k p_{k-1}^2), mirrored and normalised to sum 1;
    weights below the smallest normal double are set to 0.

    Against ``scipy.special.roots_hermitenorm`` (weights / sqrt(2 pi)) the
    nodes agree within 1e-13 max(1, |x|) and the weights within 1e-14 for
    every order tested, k = 1..64 and up to 600 (``tests/test_scalar_channel.py``).
    Newton takes at most 7 steps up to k = 800; past about k = 1000 the
    starting values of the largest nodes are too far off and
    :class:`ConvergenceError` is raised.
    """
    if k < 1:
        raise ValueError(f"quadrature order must be >= 1, got {k}")
    half, nu = k // 2, 2.0 * k + 1.0
    # Tricomi: the i-th positive root of the physicists' H_k satisfies
    # x^2 ~ nu s - (5 / (4 (1 - s)^2) - 1 / (1 - s) - 1/4) / (3 nu), with
    # s = cos^2(tau / 2) and tau - sin(tau) = c_i solved by Newton from pi / 2.
    # He_k's roots are sqrt(2) times H_k's.
    c = (4.0 * half - 4.0 * np.arange(1, half + 1) + 3.0) * np.pi / nu
    tau = np.full(half, 0.5 * np.pi)
    for _ in range(5):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    sig = np.cos(0.5 * tau) ** 2
    x = np.sqrt(2.0 * (nu * sig - (1.25 / (1.0 - sig) ** 2 - 1.0 / (1.0 - sig) - 0.25)
                       / (3.0 * nu)))
    if k % 2:
        x = np.concatenate([[0.0], x])
    sqrt_j = np.sqrt(np.arange(k + 1.0))
    for _ in range(_NEWTON_MAX_STEPS):
        # Starting the recurrence at exp(-x^2 / 8) instead of 1 scales every
        # p_j by the same factor and keeps it finite at the largest nodes.
        scale = np.exp(-0.125 * x * x)
        p_prev, p = np.zeros_like(x), scale
        for j in range(1, k + 1):
            p_prev, p = p, (x * p - sqrt_j[j - 1] * p_prev) / sqrt_j[j]
        step = p / (sqrt_j[k] * p_prev)
        x = x - step
        if np.max(np.abs(step), initial=0.0) <= 1e-15 * max(1.0, x.max(initial=0.0)):
            break
    else:
        raise ConvergenceError(f"Gauss-Hermite nodes of order {k} did not converge",
                               iterations=_NEWTON_MAX_STEPS)
    w = (scale / p_prev) ** 2 / k
    # Subnormal weights add nothing a double sum keeps, and are slow to multiply.
    w[w < np.finfo(float).tiny] = 0.0
    # Mirror the positive nodes; an odd order's centre node 0 appears once.
    nodes = np.concatenate([-x[k % 2:][::-1], x])
    weights = np.concatenate([w[k % 2:][::-1], w])
    return QuadratureRule(nodes=nodes, weights=weights / weights.sum())


_DEFAULT_RULE = gauss_hermite_rule(DEFAULT_ORDER)


def log_cosh(x):
    """Overflow-safe log cosh: |x| + log((1 + exp(-2|x|)) / 2)."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not np.isfinite(eta) or eta < 0.0:
        raise ValueError(f"channel snr must be a finite nonnegative real, got {eta}")
    return eta


def scalar_mmse(eta: float, rule: QuadratureRule = _DEFAULT_RULE) -> float:
    """Minimum mean square error for estimating X0 from Y(eta).

    Exactly 1 at eta = 0 and decreasing to 0 as eta grows.
    """
    eta = _check_eta(eta)
    if eta == 0.0:
        return 1.0
    if eta > ETA_ASYMPTOTIC:
        return 0.0
    s = rule.expect(lambda z: np.tanh(eta + np.sqrt(eta) * z) ** 2)
    # Quadrature round-off can leave a value epsilon outside [0, 1].
    return float(min(max(1.0 - s, 0.0), 1.0))


def scalar_mi(eta: float, rule: QuadratureRule = _DEFAULT_RULE) -> float:
    """Mutual information between X0 and Y(eta), in nats; saturates at log 2."""
    eta = _check_eta(eta)
    if eta == 0.0:
        return 0.0
    if eta > ETA_ASYMPTOTIC:
        return float(np.log(2.0))
    val = eta - rule.expect(lambda z: log_cosh(eta + np.sqrt(eta) * z))
    return float(min(max(val, 0.0), np.log(2.0)))
