"""Independent reference implementations used as test oracles.

Nothing here imports the code paths it is used to check: fixed points are
re-solved by bisection, expectations by brute-force Monte Carlo or
quadrature over explicit densities, derivatives by central finite
differences, and matrix identities by materializing the dense objects.
"""

from __future__ import annotations

import numpy as np

from mvamp.scalar_channel import scalar_mmse


def bisect_fixed_point(g, lo: float = 1e-14, hi: float = 1.0,
                       iters: int = 120) -> float:
    """Largest root of z = g(z) on (lo, hi] for an increasing concave g
    with g(0) = 0 and supercritical slope at the origin.

    h(z) = z - g(z) is convex with h(0) = 0 and h'(0) < 0, so it has a
    single positive root and changes sign from - to + across it.
    """
    f_lo, f_hi = lo - g(lo), hi - g(hi)
    if f_lo > 0:
        return 0.0
    if f_hi < 0:
        raise AssertionError("bisection bracket invalid: h(1) < 0")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid - g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_map(lam: float, mu: float, c: float, eps: float = 0.0):
    """The plain state-evolution map, written directly from its formula."""

    def g(z):
        return 1.0 - (1.0 - eps) * scalar_mmse(
            lam * z + (1.0 - eps) * (mu ** 2 / c) * z / (1.0 + mu * z))

    return g


def mmse_monte_carlo(eta: float, samples: int = 10_000_000, seed: int = 0) -> float:
    """Monte-Carlo estimate of 1 - E tanh^2(eta + sqrt(eta) Z)."""
    z = np.random.default_rng(seed).standard_normal(samples)
    return float(1.0 - np.mean(np.tanh(eta + np.sqrt(eta) * z) ** 2))


def two_point_posterior(u, x, alpha, tau, mu, sigma):
    """E[X0 | alpha X0 + tau Z1 = u, mu X0 + sigma Z2 = x] for X0 ~ +-1,
    evaluated through the literal two-point likelihood ratio."""
    w_plus = np.exp(-(u - alpha) ** 2 / (2 * tau ** 2)
                    - (x - mu) ** 2 / (2 * sigma ** 2))
    w_minus = np.exp(-(u + alpha) ** 2 / (2 * tau ** 2)
                     - (x + mu) ** 2 / (2 * sigma ** 2))
    return (w_plus - w_minus) / (w_plus + w_minus)


def gaussian_posterior_mean(v, beta, vartheta, k: int = 201):
    """E[V0 | beta V0 + vartheta Z = v] for V0 ~ N(0, 1), by quadrature
    over the prior against the explicit Gaussian likelihood."""
    from numpy.polynomial.hermite_e import hermegauss
    nodes, weights = hermegauss(k)
    weights = weights / np.sqrt(2 * np.pi)
    like = np.exp(-(np.atleast_1d(v)[:, None] - beta * nodes[None, :]) ** 2
                  / (2 * vartheta ** 2))
    num = (like * nodes[None, :]) @ weights
    den = like @ weights
    out = num / den
    return out if np.ndim(v) else float(out[0])


def trace_mean_fd(fun, vec: np.ndarray, h: float = 1e-5) -> float:
    """(1/n) sum_i d fun(vec)_i / d vec_i by central differences.

    ``fun`` maps an n-vector to an n-vector componentwise.
    """
    n = vec.size
    total = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        total += (fun(vec + e)[i] - fun(vec - e)[i]) / (2 * h)
    return total / n


def dense_matrix_mse(x_hat: np.ndarray, x_star: np.ndarray) -> float:
    """(1/n^2) ||x* x*^T - x_hat x_hat^T||_F^2 with explicit outer products."""
    n = x_star.size
    diff = np.outer(x_star, x_star) - np.outer(x_hat, x_hat)
    return float(np.sum(diff ** 2) / n ** 2)


def trapezoid_adaptive(f, a: float, b: float, panels: int = 200,
                       tol: float = 2e-5, max_doublings: int = 6) -> float:
    """Composite trapezoid starting at ``panels`` panels, doubling the
    resolution until successive values agree within tol."""
    def once(k):
        xs = np.linspace(a, b, k + 1)
        ys = np.array([f(x) for x in xs])
        return float(np.trapezoid(ys, xs))

    val = once(panels)
    for _ in range(max_doublings):
        panels *= 2
        nxt = once(panels)
        if abs(nxt - val) < tol:
            return nxt
        val = nxt
    return val


def denoiser_ratios(cfg, z):
    """Reference denoiser schedule (a, b, g_slope) for the scalar states z
    of a state-evolution run with settings ``cfg``.

    It follows the paper's construction: per step, the six channel
    parameters (alpha, tau2) of the covariate-driven label channel,
    (mu_t, sigma2) of the network label channel and (beta, vartheta2) of the
    spike channel, reduced to alpha / tau2, mu_t / sigma2 and
    beta / (beta^2 + vartheta2) with 0/0 -> 0.  The label channels of step
    k are built from z[k - 1]; those of step 0 follow ``cfg.init_mode``.
    """
    lam, mu, c, eps = cfg.lam, cfg.mu, cfg.c, cfg.eps

    def label_params(zk):
        w = eps + (1.0 - eps) * (mu * zk / (1.0 + mu * zk))
        return np.sqrt(mu / c) * w, w, np.sqrt(lam) * zk, zk

    T = len(z) - 1
    alpha, tau2, mu_t, sigma2 = (np.zeros(T + 1) for _ in range(4))
    if cfg.init_mode == "deterministic-z1":
        alpha[0], tau2[0], mu_t[0], sigma2[0] = label_params(1.0)
    elif cfg.init_mode == "random-interval":
        m0, s0, a_prev, t_prev = np.random.default_rng(cfg.seed).uniform(4.0, 10.0, size=4)
        alpha[0], tau2[0], mu_t[0], sigma2[0] = a_prev, t_prev ** 2, m0, s0 ** 2
    for k in range(1, T + 1):
        alpha[k], tau2[k], mu_t[k], sigma2[k] = label_params(z[k - 1])
    beta = np.sqrt(mu * c) * z
    vartheta2 = c * z

    def ratio(num, den):
        out = np.zeros_like(num)
        nz = den != 0.0
        out[nz] = num[nz] / den[nz]
        return out

    return ratio(alpha, tau2), ratio(mu_t, sigma2), ratio(beta, beta ** 2 + vartheta2)
