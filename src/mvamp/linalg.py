"""Lazy linear operators and the leading-eigenpair solve.

Everything the estimator multiplies by is represented as an operator with
a matvec, never as a materialized product: the dense symmetric observation
scaled by 1/sqrt(n), the centered sparse adjacency (sparse matvec plus a
rank-one correction), weighted sums of layers, the rectangular covariate
map B / sqrt(p), and the composition used by the spectral initializer.
A dense product runs in its matrix's dtype (float32 for the sampled
covariates and surrogate, see :mod:`mvamp.model`) and returns float64, so
the vectors the estimator iterates stay float64.

On one BLAS thread every dense product is bound by memory bandwidth, so
each reads its matrix no more than the math needs:

* the surrogate product of a float32 matrix runs BLAS ``ssymv`` on its
  upper triangle, half the bytes of a full ``gemv``
  (:class:`DenseSymmetricOperator`);
* the Gram map B^T B v / p of the spectral start reads B once, block by
  block, not once for B v and again for B^T (B v)
  (:meth:`RectOperator.gram`).

Both change only round-off.  AMP's own products B q and B^T m are
separate products and stay two passes over B.

The spectral start needs the algebraically largest eigenpair of the
composed operator, which may have a negative eigenvalue of larger
magnitude.  :func:`leading_eigenpair` finds it with a Lanczos loop driven
only through the operator's matvec.  It tests its Ritz pair after every
matvec and stops as soon as the tolerance is met, so a coarse start costs
only the matvecs it needs.  Its small tridiagonal eigenproblem goes to
numpy's ``eigh``, and the float32 surrogate product calls numpy's own
OpenBLAS, so no replicate loads scipy.linalg.  scipy.sparse is needed here
only as an annotation: callers that build no operator (the theory
functions, ``mvamp theory``) load no scipy module at all.

While a replicate runs, alone or in a sweep, mvamp owns the cores:
``experiments`` holds numpy's OpenBLAS, the only BLAS mvamp calls, at one
thread (:func:`_single_threaded_blas`) and draws each instance's row blocks
on two threads of its own (:mod:`mvamp.model`).  OpenBLAS's second thread
spin-waits after each product and would compete with those draws and with
AMP's elementwise work.  One BLAS thread also makes every product's
rounding, the spectral start's Gram-Schmidt products among them, and so
every sweep value, independent of ``OPENBLAS_NUM_THREADS``.  After each
replicate of a sweep the heap's free pages go back to the OS
(:func:`_trim_heap`).
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import ConvergenceError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "SymmetricOperator",
    "DenseSymmetricOperator",
    "SparseCenteredOperator",
    "WeightedSumOperator",
    "ComposedSpectralOperator",
    "RectOperator",
    "leading_eigenpair",
]


def _product(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v computed in the matrix's floating dtype, returned float64.

    The vector is cast to the matrix's dtype rather than the matrix to the
    vector's, so a float32 matrix (the stored covariates and surrogate) is
    read as it is stored and never promoted to a float64 copy; for a float64
    matrix this is plain ``matrix @ v``.
    """
    prod = matrix @ v.astype(np.result_type(matrix.dtype, np.float32), copy=False)
    return prod.astype(np.float64, copy=False)


# Rows of B per block of the fused Gram map: a 128-row block of a float32 B
# with a few thousand columns stays in L2 between its two products.
_GRAM_ROWS = 128


class SymmetricOperator:
    """Base for symmetric n x n linear maps; subclasses define matvec."""

    n: int

    def matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseSymmetricOperator(SymmetricOperator):
    """v -> (M v) / denom for a dense symmetric M; the product runs in M's
    dtype and returns float64, and the division runs in float64.

    A C-ordered float32 M (the sampled surrogate) is multiplied by BLAS
    ``ssymv`` from numpy's OpenBLAS (:func:`_cblas_ssymv`), row-major with
    the upper triangle: it reads only M[i, j] with j >= i, n(n + 1)/2
    entries instead of n², and never M's strict lower triangle.  On a
    sampled surrogate at n = 2000, whose product entries are about 36 in
    magnitude, its largest error against a float64 product was 1.7e-4,
    against 6e-5 for a full float32 ``gemv``: float32 round-off either way.
    ssymv splits its sums, and so its rounding, by the OpenBLAS thread
    count, which :func:`_single_threaded_blas` holds at one while a
    replicate runs.

    Every other matrix keeps the plain product, which reads all of M, and
    so does a float32 one when numpy's BLAS has no such ``ssymv``.  A
    float64 M is kept off ``dsymv`` on purpose: ``symv`` reads any matrix
    as if it were symmetric, so :func:`leading_eigenpair`'s residual check
    after the solve could no longer catch an asymmetric one, and a float64
    product stays the plain ``M @ v`` that float32 products are checked
    against.
    """

    def __init__(self, matrix: np.ndarray, denom: float = 1.0):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        self.matrix = matrix
        self.denom = float(denom)
        self.n = matrix.shape[0]
        self._ssymv = None
        # ssymv is handed M's buffer as rows of length n, so M must be
        # C-ordered.
        if matrix.dtype == np.float32 and matrix.flags.c_contiguous:
            self._ssymv = _cblas_ssymv()
            self._matrix_ptr = matrix.ctypes.data

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self._ssymv is None:
            prod = _product(self.matrix, v)
        else:
            # ssymv gets raw pointers and reads n entries of x
            if v.shape != (self.n,):
                raise ValueError(f"expected a length-{self.n} vector, got {v.shape}")
            x = v.astype(np.float32)
            out = np.zeros(self.n, dtype=np.float32)
            self._ssymv(_CBLAS_ROW_MAJOR, _CBLAS_UPPER, self.n, 1.0, self._matrix_ptr, self.n,
                        x.ctypes.data, 1, 0.0, out.ctypes.data, 1)
            prod = out.astype(np.float64)
        return prod / self.denom


class SparseCenteredOperator(SymmetricOperator):
    """v -> (G v - p_bar sum(v) 1) / sqrt(n p_bar (1 - p_bar)).

    Identical action to the dense matrix (G - p_bar 1 1^T) / sqrt(...), at
    the cost of one sparse matvec; the all-ones rank-one piece is applied
    as a scalar correction.
    """

    def __init__(self, adjacency: sparse.csr_array, p_bar: float):
        if not 0.0 < p_bar < 1.0:
            raise ValueError(f"degenerate density p_bar={p_bar}")
        self.adjacency = adjacency
        self.p_bar = float(p_bar)
        self.n = adjacency.shape[0]
        self.denom = float(np.sqrt(self.n * p_bar * (1.0 - p_bar)))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return (self.adjacency @ v - self.p_bar * v.sum()) / self.denom


class WeightedSumOperator(SymmetricOperator):
    """v -> sum_i w_i op_i(v) for operators of a common dimension."""

    def __init__(self, ops, weights):
        if len(ops) == 0 or len(ops) != len(weights):
            raise ValueError("need matching nonempty operator and weight lists")
        dims = {op.n for op in ops}
        if len(dims) != 1:
            raise ValueError(f"operators disagree on dimension: {sorted(dims)}")
        self.ops = list(ops)
        self.weights = [float(w) for w in weights]
        self.n = ops[0].n

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.weights[0] * self.ops[0].matvec(v)
        for w, op in zip(self.weights[1:], self.ops[1:]):
            out += w * op.matvec(v)
        return out


class RectOperator:
    """The rectangular covariate map: apply is v -> B v / sqrt(p) (n -> p),
    apply_t is w -> B^T w / sqrt(p) (p -> n) and gram is v -> B^T B v / p
    (n -> n).  Every product runs in B's dtype and returns float64."""

    def __init__(self, B: np.ndarray):
        if B.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {B.shape}")
        self.B = B
        self.p, self.n = B.shape
        self.sqrt_p = float(np.sqrt(self.p))

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape[-1] != self.n:
            raise ValueError(f"expected a length-{self.n} vector, got {v.shape}")
        return _product(self.B, v) / self.sqrt_p

    def apply_t(self, w: np.ndarray) -> np.ndarray:
        if w.shape[-1] != self.p:
            raise ValueError(f"expected a length-{self.p} vector, got {w.shape}")
        return _product(self.B.T, w) / self.sqrt_p

    def gram(self, v: np.ndarray) -> np.ndarray:
        """B^T B v / p in one pass over B.

        The sum of B_k^T (B_k v) over blocks B_k of ``_GRAM_ROWS`` rows
        reads each block once, while it sits in cache; ``apply_t(apply(v))``
        reads all of B twice.  The sum accumulates in B's dtype and is
        divided by p in float64.  For a float32 B its relative error
        against a float64 product is about 2e-7.
        """
        if v.shape != (self.n,):
            raise ValueError(f"expected a length-{self.n} vector, got {v.shape}")
        x = v.astype(np.result_type(self.B.dtype, np.float32), copy=False)
        out = np.zeros(self.n, dtype=x.dtype)
        for start in range(0, self.p, _GRAM_ROWS):
            block = self.B[start:start + _GRAM_ROWS]
            out += block.T @ (block @ x)
        return out.astype(np.float64, copy=False) / self.p


class ComposedSpectralOperator(SymmetricOperator):
    """v -> T_op(v) + a0 * B_op.gram(v).

    The second term is the Gram map B^T B v / p.  An absent T_op gives the
    pure Gram map (covariate-only initialization), and an absent B_op or
    a0 = 0 gives T's product (network-only initialization).  One matvec
    reads B once (:meth:`RectOperator.gram`) and, for the float32
    surrogate, the upper triangle of T (:class:`DenseSymmetricOperator`).
    """

    def __init__(self, t_op: SymmetricOperator | None, b_op: RectOperator | None,
                 a0: float):
        if t_op is None and (b_op is None or a0 == 0.0):
            raise ValueError("operator would be identically zero")
        if t_op is not None and b_op is not None and t_op.n != b_op.n:
            raise ValueError(f"dimension mismatch: {t_op.n} vs {b_op.n}")
        self.t_op = t_op
        self.b_op = b_op
        self.a0 = float(a0)
        self.n = t_op.n if t_op is not None else b_op.n

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.t_op is None:
            return self.a0 * self.b_op.gram(v)
        out = self.t_op.matvec(v)
        if self.b_op is not None and self.a0 != 0.0:
            out = out + self.a0 * self.b_op.gram(v)
        return out


# Most Lanczos vectors kept at once: 64 n floats, so the solve stays O(n).
_LANCZOS_BASIS = 64
# Most matvecs of one solve, restarts included.
_LANCZOS_MAX_MATVECS = 20_000


def _lanczos_cycle(op: SymmetricOperator, basis: np.ndarray, v: np.ndarray, tol: float,
                   budget: int) -> tuple[float, np.ndarray, bool, int]:
    """Lanczos from v until the top Ritz pair meets ``tol``, the basis rows
    fill or ``budget`` matvecs are spent.

    Returns (theta, Ritz vector, whether it met tol, matvecs spent).  The
    Ritz pair is exact, and meets any tol, once beta vanishes: the basis
    then spans an invariant subspace.
    """
    n = op.n
    basis[0] = v / np.linalg.norm(v)
    alphas, betas = [], []
    # A bound on ||T|| from its rows: the scale against which beta vanishes.
    scale = 0.0
    for k in range(min(basis.shape[0], budget)):
        w = op.matvec(basis[k])
        known = basis[:k + 1]
        # Two passes of classical Gram-Schmidt against the whole basis.
        alpha = 0.0
        for _ in range(2):
            coeffs = known @ w
            w -= coeffs @ known
            alpha += coeffs[k]
        beta = float(np.linalg.norm(w))
        scale = max(scale, abs(alpha) + beta + (betas[-1] if betas else 0.0))
        alphas.append(alpha)
        # eigh reads the lower triangle: the alphas and the betas below them
        vals, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))
        theta, y = float(vals[-1]), vecs[:, -1]
        invariant = beta <= n * np.finfo(float).eps * scale or k + 1 == n
        met = invariant or beta * abs(y[-1]) <= tol * abs(theta)
        if met or k + 1 == basis.shape[0]:
            break
        basis[k + 1] = w / beta
        betas.append(beta)
    return theta, y @ known, met, k + 1


def leading_eigenpair(op: SymmetricOperator, tol: float = 1e-10,
                      rng=None) -> tuple[float, np.ndarray]:
    """Algebraically largest eigenpair of a symmetric operator.

    Lanczos with full reorthogonalization, started from a standard normal
    vector drawn from ``rng``.  After every matvec the top Ritz pair
    (theta, y) of the tridiagonal matrix is tested, and the solve ends once
    the residual estimate |beta y_last| is at most tol |theta|.  A basis
    that reaches ``_LANCZOS_BASIS`` vectors restarts from the current Ritz
    vector.  ``_LANCZOS_MAX_MATVECS`` caps the matvecs of the solve.

    The contract is checked after the solve, on a fresh matvec: the
    eigen-residual satisfies ||op v - theta v|| <= 10 tol max(1, |theta|),
    and the returned vector has unit norm with its largest-magnitude
    coordinate positive.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    rng = np.random.default_rng(rng)
    basis = np.empty((min(op.n, _LANCZOS_BASIS), op.n))
    v = rng.standard_normal(op.n)
    matvecs = 0
    while True:
        theta, v, met, spent = _lanczos_cycle(op, basis, v, tol, _LANCZOS_MAX_MATVECS - matvecs)
        matvecs += spent
        if met:
            break
        if matvecs >= _LANCZOS_MAX_MATVECS:
            raise ConvergenceError(
                f"Lanczos did not converge in {_LANCZOS_MAX_MATVECS} matvecs",
                iterations=_LANCZOS_MAX_MATVECS)
    v /= np.linalg.norm(v)
    residual = float(np.linalg.norm(op.matvec(v) - theta * v))
    if residual > 10.0 * tol * max(1.0, abs(theta)):
        raise ConvergenceError(
            f"Lanczos eigenpair misses its tolerance (residual {residual:.3e})",
            residual=residual)
    idx = int(np.argmax(np.abs(v)))
    if v[idx] < 0:
        v = -v
    return theta, v


# The calls mvamp makes into the OpenBLAS that numpy's wheel ships: it has
# a 64-bit integer interface, and its symbols a scipy_ prefix and 64_ suffix.
_GET_THREADS = "scipy_openblas_get_num_threads64_"
_SET_THREADS = "scipy_openblas_set_num_threads64_"
_SSYMV = "scipy_cblas_ssymv64_"
# The CBLAS enum values for a row-major matrix and its upper triangle.
_CBLAS_ROW_MAJOR, _CBLAS_UPPER = 101, 121


@functools.cache
def _numpy_openblas() -> tuple:
    """(path, ctypes library) of every OpenBLAS in numpy's wheel, found once
    per process.

    The libraries sit in the wheel's ``numpy.libs`` directory, and opening
    one by its path hands back the copy numpy has already loaded.  A numpy
    built against another BLAS has none.
    """
    import ctypes
    import importlib.util
    from pathlib import Path

    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return ()
    site = Path(spec.submodule_search_locations[0]).parent
    return tuple((str(path), ctypes.CDLL(str(path)))
                 for path in sorted(site.glob("numpy.libs/*openblas*.so*")))


@functools.cache
def _cblas_ssymv():
    """numpy's OpenBLAS ``cblas_ssymv``, or None where numpy's BLAS lacks it.

    It is called with (order, uplo, n, alpha, A, lda, x, incx, beta, y,
    incy): y = alpha A x + beta y for the symmetric A stored in the given
    triangle.
    """
    import ctypes

    for _, lib in _numpy_openblas():
        fn = getattr(lib, _SSYMV, None)
        if fn is not None:
            i64, ptr, f32 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_float
            fn.argtypes = [ctypes.c_int, ctypes.c_int, i64, f32, ptr, i64, ptr, i64, f32,
                           ptr, i64]
            fn.restype = None
            return fn
    return None


@functools.cache
def _openblas_thread_calls() -> tuple:
    """(path, get, set) of the thread count of every OpenBLAS in numpy's
    wheel, found once per process.

    numpy's OpenBLAS runs every BLAS product and LAPACK solve of a
    replicate, ``ssymv`` and the Lanczos ``eigh`` among them.  scipy's
    OpenBLAS is neither called nor loaded by mvamp, so it is not pinned.
    """
    import ctypes

    calls = []
    for path, lib in _numpy_openblas():
        if hasattr(lib, _SET_THREADS):
            get, set_ = getattr(lib, _GET_THREADS), getattr(lib, _SET_THREADS)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            calls.append((path, get, set_))
    return tuple(calls)


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim``, or None where it has none."""
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _trim_heap() -> None:
    """Hand the free pages of the malloc heap back to the OS.

    Once a replicate has freed a matrix that malloc had mapped on its own,
    glibc raises its mapping threshold above that size, and the matrices of
    later replicates are carved from the heap, whose free pages stay
    resident.  A small long-lived block left in such a free span splits it,
    and the next matrix that no longer fits grows the heap by its whole
    size.  Trimming after each replicate returns those pages; the next one
    faults them back in.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


# The thread count is a property of the process, so the pin's bookkeeping
# is too: how many bodies run under it, and the counts to restore.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the body with numpy's OpenBLAS on one thread.

    The previous thread counts are put back on exit, whether the body
    returns or raises.  Nested or concurrent entries share one pin: the
    first saves the counts and the last to leave restores them.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [(set_, get()) for _, get, set_ in _openblas_thread_calls()]
            for set_, _ in _pin_saved:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for set_, count in _pin_saved:
                    set_(count)
