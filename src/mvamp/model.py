"""Synthetic data: labels, sparse networks, covariates, Gaussian surrogate.

All samplers are pure functions of (seed, parameters): pass either an
integer seed or a ``numpy.random.Generator``.  Use :func:`substream` to
derive independent, reproducible generators for the individual objects of
a replicate from one root seed.

The two-group structure is a vector of +-1 labels shared by every data
source.  Each network layer is an undirected graph whose edge probability
is a_n / n within groups and b_n / n across groups; its strength is
summarized by the invariant

    lambda = n (a - b)^2 / ((a + b)(2n - a - b)),

and layers are always handled through their centered and rescaled
adjacency operators, under which the planted signal has mean
sqrt(lambda / n) x x^T exactly like the Gaussian surrogate scaled by
1 / sqrt(n).

Memory: a network layer takes O(n + edges), never O(n^2).  The covariate
matrix and the dense surrogate are stored float32, so every product with
them reads 4 bytes per entry.  Each is drawn straight into that storage in
float32, a block of rows at a time, on two threads (the caller and one
helper); the surrogate draws only its upper triangle and mirrors it.  Each
thread works in one float32 scratch allocated by the caller: 32 rows
through which the normals are made and the spike is added, and for the
surrogate also the block's upper panel.  So sampling holds the stored
matrix plus two scratches: about 4 p n + 256 n bytes for the covariates and
4 n^2 + 2304 n for the surrogate.

Normals: the noise of the covariates and of the surrogate is made by the
Box-Muller transform from float32 uniforms (see ``_normal_fill``), not by
numpy's ziggurat: a float32 normal costs about a third as much.
Every value lies within sqrt(-2 ln 2^-24) ~ 5.77 of zero, the largest the
transform reaches from a float32 uniform; a standard normal exceeds it with
probability about 7.9e-9.  The spike v* and the other O(n) draws keep
``standard_normal``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import InfeasibleSnrError
from .linalg import SparseCenteredOperator, SymmetricOperator, WeightedSumOperator

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "CommunityLabels",
    "LayerParams",
    "SbmLayer",
    "CovariateModel",
    "GaussianSurrogate",
    "RevelationMasks",
    "substream",
    "sample_labels",
    "rates_from_lambda",
    "sample_sbm_layer",
    "sample_covariates",
    "sample_gaussian_surrogate",
    "sample_revelation",
    "center_scale_layer",
    "combine_layers",
    "write_edge_list",
    "write_labels_csv",
    "write_covariates_csv",
]


def substream(root_seed: int, *path: int) -> np.random.Generator:
    """Independent generator addressed by a tuple of integers.

    The same (root_seed, path) always yields the same stream, and distinct
    paths yield statistically independent streams, so replicates and the
    objects inside a replicate can be sampled in any order or in parallel.
    The covariate and surrogate samplers also draw from the children of
    their stream, which are the paths one longer, ``path + (block,)``: hand
    them only paths that no other stream extends.
    """
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=tuple(path)))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class CommunityLabels:
    """Ground-truth group assignment, one +-1 entry per subject."""

    x_star: np.ndarray

    def __post_init__(self):
        if self.x_star.ndim != 1 or self.x_star.size == 0:
            raise ValueError("labels must form a nonempty vector")
        if not np.all(np.abs(self.x_star) == 1.0):
            raise ValueError("every label must be exactly +1 or -1")

    @property
    def n(self) -> int:
        return self.x_star.size


def sample_labels(n: int, rng) -> CommunityLabels:
    """n i.i.d. uniform +-1 labels."""
    if n < 1:
        raise ValueError(f"need at least one subject, got n={n}")
    rng = _as_rng(rng)
    x = rng.integers(0, 2, size=n) * 2.0 - 1.0
    return CommunityLabels(x_star=x)


@dataclass(frozen=True)
class LayerParams:
    """One network layer of n subjects: signal strength lambda_i at mean
    edge density p_bar.

    The rates follow from these three.  The half-gap is
    delta = sqrt(lambda_i p_bar (1 - p_bar) / n), and a_n / n = p_bar + delta
    and b_n / n = p_bar - delta are the within/between-group edge
    probabilities: the strength formula of the module docstring solved at
    a_n + b_n = 2 n p_bar.  Rates are reals, not integer counts.  Raises
    InfeasibleSnrError, naming the largest feasible strength
    n min(p_bar, 1 - p_bar)^2 / (p_bar (1 - p_bar)), when b_n / n is not
    positive or a_n / n exceeds one.
    """

    lambda_i: float
    p_bar: float
    n: int

    def __post_init__(self):
        if not (self.lambda_i >= 0.0 and self.n >= 1):
            raise ValueError(f"need strength lambda_i >= 0 and n >= 1 subjects, "
                             f"got {self.lambda_i} and {self.n}")
        if not 0.0 < self.p_bar < 1.0:
            raise ValueError(f"mean density must lie in (0, 1), got {self.p_bar}")
        if self.delta >= self.p_bar or self.p_bar + self.delta > 1.0:
            lam_max = (self.n * min(self.p_bar, 1.0 - self.p_bar) ** 2
                       / (self.p_bar * (1.0 - self.p_bar)))
            raise InfeasibleSnrError(
                f"lambda={self.lambda_i} infeasible at p_bar={self.p_bar}, n={self.n}: "
                f"the edge probabilities p_bar - delta and p_bar + delta must lie in "
                f"(0, 1]; largest feasible lambda is {lam_max:.6g}", lambda_max=lam_max)

    @property
    def delta(self) -> float:
        return float(np.sqrt(self.lambda_i * self.p_bar * (1.0 - self.p_bar) / self.n))

    @property
    def a_n(self) -> float:
        return self.n * (self.p_bar + self.delta)

    @property
    def b_n(self) -> float:
        return self.n * (self.p_bar - self.delta)


def rates_from_lambda(lambda_i: float, p_bar: float, n: int) -> LayerParams:
    """The layer of strength lambda_i at density p_bar among n subjects; see
    LayerParams for its rates and when it raises InfeasibleSnrError."""
    return LayerParams(float(lambda_i), float(p_bar), n)


@dataclass(frozen=True)
class SbmLayer:
    """One sampled network layer: rates plus a sparse symmetric adjacency."""

    params: LayerParams
    adjacency: sparse.csr_array

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _sample_ranks(n_pairs: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Ranks of the pairs that carry an edge, each of n_pairs independently
    with probability prob: a Binomial count, then that many distinct ranks."""
    count = rng.binomial(n_pairs, prob)
    return rng.choice(n_pairs, size=count, replace=False, shuffle=False)


def _unrank_within(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, l), k < l, of the within-group pairs ranked l (l - 1) / 2 + k."""
    l = ((1.0 + np.sqrt(1.0 + 8.0 * ranks)) / 2.0).astype(np.int64)
    # The float square root can land one off near a triangular number.
    l -= l * (l - 1) // 2 > ranks
    l += l * (l + 1) // 2 <= ranks
    return ranks - l * (l - 1) // 2, l


def sample_sbm_layer(x_star: CommunityLabels, params: LayerParams, rng) -> SbmLayer:
    """Sample the layer's adjacency: symmetric 0/1 with a zero diagonal.

    For k < l the edge probability is a_n / n when the endpoints share a
    group and b_n / n otherwise.  The pairs fall into three blocks (within
    +, within -, across); each block draws its edge count from a Binomial
    and then that many distinct pair ranks, unranked to vertex pairs, so
    memory is O(n + edges) rather than O(n^2).
    """
    n = x_star.n
    if params.n != n:
        raise ValueError(f"layer parameters are for n={params.n} subjects, "
                         f"the labels have {n}")
    p_in, p_out = params.a_n / n, params.b_n / n
    from scipy import sparse

    rng = _as_rng(rng)
    # int32 vertex indices (n < 2^31) give the adjacency int32 indices and
    # indptr: 12 B per stored entry instead of 16.
    plus = np.flatnonzero(x_star.x_star > 0).astype(np.int32)
    minus = np.flatnonzero(x_star.x_star < 0).astype(np.int32)
    rows, cols = [], []
    for group in (plus, minus):
        k, l = _unrank_within(_sample_ranks(group.size * (group.size - 1) // 2, p_in, rng))
        rows.append(group[k])
        cols.append(group[l])
    i, j = np.divmod(_sample_ranks(plus.size * minus.size, p_out, rng), minus.size)
    rows.append(plus[i])
    cols.append(minus[j])
    r, c = np.concatenate(rows), np.concatenate(cols)
    adj = sparse.csr_array(
        (np.ones(2 * r.size), (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=(n, n))
    return SbmLayer(params=params, adjacency=adj)


@dataclass(frozen=True)
class CovariateModel:
    """Spiked covariate matrix B = sqrt(mu/n) v* x*^T + R, R i.i.d. N(0,1),
    stored float32."""

    mu: float
    v_star: np.ndarray
    B: np.ndarray

    @property
    def p(self) -> int:
        return self.B.shape[0]

    @property
    def n(self) -> int:
        return self.B.shape[1]

    @property
    def c(self) -> float:
        """Finite-sample subjects-per-feature ratio n / p."""
        return self.n / self.p

    def residual_noise(self, x_star: CommunityLabels) -> np.ndarray:
        """Reconstruct the noise draw R = B - sqrt(mu/n) v* x*^T (to float32
        rounding of B)."""
        return self.B - np.sqrt(self.mu / self.n) * np.outer(self.v_star, x_star.x_star)


# Rows of the covariate matrix or the Gaussian surrogate drawn per block.
# Block b is drawn from child b of the sampler's generator (``rng.spawn``;
# for ``substream(seed, *path)`` that child is ``substream(seed, *path, b)``),
# so this constant is part of the random stream: changing it changes every
# sampled matrix.  The spike is added to a block in float32: x* is +-1, so
# each spike entry is its scale rounded to float32, with a sign.
_BLOCK_ROWS = 256

# Rows of a block handled at a time through a thread's scratch when the
# spike is added (and, in the surrogate, the lower triangle mirrored).
_CHUNK_ROWS = 32

# Threads that fill a matrix's blocks: the calling thread and one helper.
_FILL_THREADS = 2


def _fill_blocks(rows: int, n: int, rng: np.random.Generator, fill,
                 scratch_rows: int) -> np.ndarray:
    """float32 rows x n array A filled a block of rows at a time.

    fill(A, i, j, child, scratch) writes the block of rows i:j from that
    block's own generator, so a block's values depend only on the stream
    and its index, not on which thread fills it or when.  The blocks are
    shared out between _FILL_THREADS threads.  Every buffer is allocated
    here, on the calling thread: the result and one float32 scratch of
    scratch_rows x n entries per thread.  A helper thread that allocated
    its own temporaries would grow its own malloc arena, which the process
    keeps.
    """
    A = np.empty((rows, n), dtype=np.float32)
    starts = range(0, rows, _BLOCK_ROWS)
    blocks = zip(starts, rng.spawn(len(starts)))
    lock = threading.Lock()

    def work(scratch):
        while True:
            with lock:
                block = next(blocks, None)
            if block is None:
                return
            i, child = block
            fill(A, i, min(i + _BLOCK_ROWS, rows), child, scratch)

    scratch = [np.empty(scratch_rows * n, dtype=np.float32)
               for _ in range(min(_FILL_THREADS, len(starts)))]
    # The pool starts a thread only when a helper is submitted.
    with ThreadPoolExecutor(max_workers=max(_FILL_THREADS - 1, 1)) as pool:
        helpers = [pool.submit(work, s) for s in scratch[1:]]
        work(scratch[0])
        for helper in helpers:
            helper.result()
    return A


def _box_muller(u1: np.ndarray, u2: np.ndarray, r: np.ndarray, theta: np.ndarray) -> None:
    """(u1, u2) <- r (cos theta, sin theta) in place, with r = sqrt(-2 ln(1 - u1))
    and theta = 2 pi u2 in float32; r and theta are scratch of the same size."""
    np.subtract(1.0, u1, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    np.multiply(u2, 2.0 * np.pi, out=theta)
    np.cos(theta, out=u1)
    u1 *= r
    np.sin(theta, out=u2)
    u2 *= r


def _normal_fill(flat: np.ndarray, child: np.random.Generator, scratch: np.ndarray) -> None:
    """Fill the contiguous float32 vector flat with N(0, 1) values in place.

    flat is first filled with float32 uniforms u from child: multiples of
    2^-24 in [0, 1), so 1 - u is exact and at least 2^-24.  With h half of
    flat's size (rounded down), entry k < h is paired with entry k + h:

        r = sqrt(-2 ln(1 - u_k)),  theta = 2 pi u_(k+h),
        z_k = r cos theta,         z_(k+h) = r sin theta,

    which are two independent standard normals (Box and Muller, 1958),
    except that |z| <= sqrt(-2 ln 2^-24) ~ 5.77, which a standard normal
    exceeds with probability about 7.9e-9.  When the size is odd, the
    last entry takes its angle from one more uniform drawn from child after
    the pairs, and keeps only the cosine.  The transform runs through
    scratch (at least 3 entries) in chunks of half its size, so it
    allocates nothing.
    """
    child.random(out=flat, dtype=np.float32)
    h = flat.size // 2
    step = scratch.size // 2
    r, theta = scratch[:step], scratch[step:2 * step]
    for a in range(0, h, step):
        b = min(a + step, h)
        _box_muller(flat[a:b], flat[h + a:h + b], r[:b - a], theta[:b - a])
    if flat.size % 2:
        angle = scratch[2:3]
        child.random(out=angle, dtype=np.float32)
        _box_muller(flat[-1:], angle, scratch[:1], scratch[1:2])


def _add_spike(block: np.ndarray, u: np.ndarray, x: np.ndarray, scratch: np.ndarray) -> None:
    """block += outer(u, x) in float32, _CHUNK_ROWS rows at a time through
    scratch (at least _CHUNK_ROWS x x.size entries)."""
    for k in range(0, block.shape[0], _CHUNK_ROWS):
        rows = block[k:k + _CHUNK_ROWS]
        spike = scratch[:rows.size].reshape(rows.shape)
        np.multiply.outer(u[k:k + _CHUNK_ROWS], x, out=spike)
        rows += spike


def sample_covariates(x_star: CommunityLabels, mu: float, p: int, rng) -> CovariateModel:
    """Sample the spike v* ~ N(0, I_p) and the p x n covariate matrix.

    v* comes from ``rng`` itself; each block of rows of the noise is drawn
    in float32 from its own child of ``rng`` (see ``_BLOCK_ROWS``), straight
    into the stored matrix, by ``_normal_fill`` on the block's entries in
    row-major order: the first half of the block's uniforms set the radii,
    the second half the angles.
    """
    if mu < 0.0:
        raise ValueError(f"spike strength must be nonnegative, got {mu}")
    if p < 1:
        raise ValueError(f"need at least one covariate, got p={p}")
    rng = _as_rng(rng)
    n = x_star.n
    v_star = rng.standard_normal(p)
    scaled = (np.sqrt(mu / n) * v_star).astype(np.float32)
    x = x_star.x_star.astype(np.float32)

    def fill(B, i, j, child, scratch):
        _normal_fill(B[i:j].reshape(-1), child, scratch)
        _add_spike(B[i:j], scaled[i:j], x, scratch)

    B = _fill_blocks(p, n, rng, fill, _CHUNK_ROWS)
    return CovariateModel(mu=float(mu), v_star=v_star, B=B)


@dataclass(frozen=True)
class GaussianSurrogate:
    """Dense symmetric observation sqrt(lam/n) x* x*^T + Z, stored float32.

    Z has independent N(0, 1) entries off the diagonal and N(0, 2) on it.
    """

    T: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.T.shape[0]


def sample_gaussian_surrogate(x_star: CommunityLabels, lam: float, rng) -> GaussianSurrogate:
    """Sample T = sqrt(lam/n) x* x*^T + Z from its upper triangle.

    Block b of rows i:j draws, in float32 from child b of ``rng`` (see
    ``_BLOCK_ROWS``), only its upper panel: rows i:j, columns i:n, by
    ``_normal_fill`` on the panel's entries in row-major order.  The
    upper triangle of the panel's diagonal square is copied onto its lower
    triangle and the diagonal scaled by sqrt(2), which gives Z its law:
    N(0, 1) off the diagonal, N(0, 2) on it.  The spike is added and the
    panel written into T with its transpose, so T is exactly symmetric.
    """
    if lam < 0.0:
        raise ValueError(f"signal strength must be nonnegative, got {lam}")
    rng = _as_rng(rng)
    n = x_star.n
    x = x_star.x_star.astype(np.float32)
    scaled = np.float32(np.sqrt(lam / n)) * x

    lower = np.tri(_BLOCK_ROWS, k=-1, dtype=bool)

    def fill(T, i, j, child, scratch):
        r, m = j - i, n - i
        panel = scratch[:r * m].reshape(r, m)
        spare = scratch[_BLOCK_ROWS * n:]
        _normal_fill(scratch[:r * m], child, spare)
        square = panel[:, :r]
        for k in range(0, r, _CHUNK_ROWS):
            l = min(k + _CHUNK_ROWS, r)
            mirror = spare[:(l - k) * l].reshape(l - k, l)
            mirror[...] = square[:l, k:l].T
            np.copyto(square[k:l, :l], mirror, where=lower[k:l, :l])
        # The square's diagonal, as a strided view of the contiguous panel.
        panel.reshape(-1)[::m + 1][:r] *= np.sqrt(2.0)
        _add_spike(panel, scaled[i:j], x[i:], spare)
        T[i:j, i:] = panel
        T[i:, i:j] = panel.T

    T = _fill_blocks(n, n, rng, fill, _BLOCK_ROWS + _CHUNK_ROWS)
    return GaussianSurrogate(T=T, lam=float(lam))


@dataclass(frozen=True)
class RevelationMasks:
    """Side information revealing each truth coordinate with probability eps.

    Masks are stored explicitly: the spike prior is continuous, so revealed
    coordinates must never be inferred by testing v0 against zero.
    """

    eps: float
    x0: np.ndarray
    mask_x: np.ndarray
    v0: np.ndarray
    mask_v: np.ndarray


def sample_revelation(x_star: CommunityLabels, v_star: np.ndarray, eps: float,
                      rng) -> RevelationMasks:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"revelation fraction must lie in [0, 1], got {eps}")
    rng = _as_rng(rng)
    mask_x = rng.random(x_star.n) < eps
    mask_v = rng.random(v_star.size) < eps
    x0 = np.where(mask_x, x_star.x_star, 0.0)
    v0 = np.where(mask_v, v_star, 0.0)
    return RevelationMasks(eps=float(eps), x0=x0, mask_x=mask_x, v0=v0, mask_v=mask_v)


def center_scale_layer(layer: SbmLayer) -> SparseCenteredOperator:
    """Centered, rescaled adjacency as a lazy operator.

    Applies v -> (G v - p_bar sum(v) 1) / sqrt(n p_bar (1 - p_bar)) via one
    sparse matvec plus a rank-one correction; the dense matrix is never
    formed.
    """
    return SparseCenteredOperator(layer.adjacency, layer.params.p_bar)


def combine_layers(ops: list[SymmetricOperator], lambdas: list[float]) -> WeightedSumOperator:
    """Weighted combination sum_i sqrt(lambda_i / lambda) A_i of layer
    operators, with lambda = sum_i lambda_i.

    A single layer gets weight 1.0, so its product equals its operator's
    bit for bit.  WeightedSumOperator checks that there is at least one
    operator, one strength per operator, and one dimension.
    """
    if any(l <= 0 for l in lambdas):
        raise ValueError("all layer strengths must be positive")
    total = float(sum(lambdas))
    return WeightedSumOperator(ops, [np.sqrt(l / total) for l in lambdas])


def write_edge_list(layer: SbmLayer, path) -> None:
    """Write the adjacency as text, one 0-indexed "k l" pair per line, k < l."""
    from scipy import sparse

    coo = sparse.triu(sparse.coo_array(layer.adjacency), k=1)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", newline="\n") as fh:
        for k, l in zip(coo.row[order], coo.col[order]):
            fh.write(f"{k} {l}\n")


def write_labels_csv(x_star: CommunityLabels, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("subject,label\n")
        for i, v in enumerate(x_star.x_star):
            fh.write(f"{i},{int(v)}\n")


def write_covariates_csv(model: CovariateModel, path) -> None:
    """Write B row by row (one covariate per line, subjects as columns).

    The 12 significant digits represent every stored float32 value exactly:
    reading a value back and casting it to float32 returns the stored one.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(f"subject_{j}" for j in range(model.n)) + "\n")
        for row in model.B:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
