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


def lambda_from_rates(a_n: float, b_n: float, n: int) -> float:
    """The paper's layer strength n (a - b)^2 / ((a + b)(2n - a - b)) at
    within/between-group rates a_n >= b_n (edge probabilities a_n / n and
    b_n / n), written directly from the formula."""
    if not 0.0 <= b_n <= a_n <= n or a_n == 0.0:
        raise ValueError(f"need 0 <= b_n <= a_n <= n and a_n > 0, got a_n={a_n}, "
                         f"b_n={b_n}, n={n}")
    return n * (a_n - b_n) ** 2 / ((a_n + b_n) * (2.0 * n - a_n - b_n))


def a0_rhs(a: float, lam: float, mu: float, c: float) -> float:
    """Right-hand side of the spectral weight equation, whose positive root
    at t = mu / (c lam) is :func:`mvamp.amp.solve_a0`, written directly from
    the formula (lam, mu > 0)."""
    s = lam + (c + mu) * a * a
    disc = s * s - 4.0 * lam * c * a * a
    # disc = lam^2 + 2 lam (mu - c) a^2 + (c + mu)^2 a^4 has no real roots
    # in a^2, so it stays positive for all a.
    return (-lam + (c + mu) * a * a + np.sqrt(disc)) / (2.0 * mu)


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


def box_muller_block(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """One rows x cols block of float32 noise as the samplers draw it, in
    one pass over whole arrays.

    rows * cols float32 uniforms u in row-major order; with h half their
    number (rounded down), entries k and k + h of the block are
    sqrt(-2 ln(1 - u_k)) times cos and sin of 2 pi u_(k+h).  An odd block's
    last entry is the cosine of its own radius and one more uniform.
    """
    f32 = np.float32
    size = rows * cols
    h = size // 2
    u = rng.random(size, dtype=f32)
    radius_u = np.concatenate([u[:h], u[2 * h:]])
    angle_u = np.concatenate([u[h:2 * h], rng.random(size % 2, dtype=f32)])
    r = np.sqrt(f32(-2.0) * np.log(f32(1.0) - radius_u))
    theta = f32(2.0 * np.pi) * angle_u
    cos, sin = r * np.cos(theta), r * np.sin(theta)
    return np.concatenate([cos[:h], sin[:h], cos[h:]]).reshape(rows, cols)


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
    k are built from z[k - 1]; those of step 0 follow z = 1 for the spectral
    start (eps = 0) and carry no signal for the zero start (eps > 0).
    """
    lam, mu, c, eps = cfg.lam, cfg.mu, cfg.c, cfg.eps

    def label_params(zk):
        w = eps + (1.0 - eps) * (mu * zk / (1.0 + mu * zk))
        return np.sqrt(mu / c) * w, w, np.sqrt(lam) * zk, zk

    T = len(z) - 1
    alpha, tau2, mu_t, sigma2 = (np.zeros(T + 1) for _ in range(4))
    if eps == 0.0:
        alpha[0], tau2[0], mu_t[0], sigma2[0] = label_params(1.0)
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
