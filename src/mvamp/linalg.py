"""Lazy linear operators and the leading-eigenpair solve.

Everything the estimator multiplies by is represented as an operator with
a matvec, never as a materialized product: the dense symmetric observation
scaled by 1/sqrt(n), the centered sparse adjacency (sparse matvec plus a
rank-one correction), weighted sums of layers, the rectangular covariate
map B / sqrt(p), and the composition used by the spectral initializer.

The spectral start needs the algebraically largest eigenpair of the
composed operator, which may have a negative eigenvalue of larger
magnitude.  :func:`leading_eigenpair` finds it with implicitly restarted
Lanczos (scipy's ``eigsh`` on ARPACK), driven only through the operator's
matvec.  scipy.sparse.linalg is imported inside that function, not here,
and scipy.sparse is needed only as an annotation: callers that never take
a spectral start (the theory functions, ``mvamp theory``) load no scipy
module at all.
"""

from __future__ import annotations

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
    "compose_spectral_operator",
    "leading_eigenpair",
]


class SymmetricOperator:
    """Base for symmetric n x n linear maps; subclasses define matvec."""

    n: int

    def matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)


class DenseSymmetricOperator(SymmetricOperator):
    """v -> (M v) / denom for a dense symmetric M."""

    def __init__(self, matrix: np.ndarray, denom: float = 1.0):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        self.matrix = matrix
        self.denom = float(denom)
        self.n = matrix.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.denom == 1.0:
            return self.matrix @ v
        return (self.matrix @ v) / self.denom


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
    """The rectangular covariate map: apply is v -> B v / sqrt(p) (n -> p)
    and apply_t is w -> B^T w / sqrt(p) (p -> n)."""

    def __init__(self, B: np.ndarray):
        if B.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {B.shape}")
        self.B = B
        self.p, self.n = B.shape
        self.sqrt_p = float(np.sqrt(self.p))

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape[-1] != self.n:
            raise ValueError(f"expected a length-{self.n} vector, got {v.shape}")
        return (self.B @ v) / self.sqrt_p

    def apply_t(self, w: np.ndarray) -> np.ndarray:
        if w.shape[-1] != self.p:
            raise ValueError(f"expected a length-{self.p} vector, got {w.shape}")
        return (self.B.T @ w) / self.sqrt_p


class ComposedSpectralOperator(SymmetricOperator):
    """v -> T_op(v) + a0 * B_op.apply_t(B_op.apply(v)).

    The second term is the Gram map B^T B v / p; with T_op absent the
    operator is the pure Gram map (covariate-only initialization).
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
            return self.a0 * self.b_op.apply_t(self.b_op.apply(v))
        out = self.t_op.matvec(v)
        if self.b_op is not None and self.a0 != 0.0:
            out = out + self.a0 * self.b_op.apply_t(self.b_op.apply(v))
        return out


def compose_spectral_operator(t_op: SymmetricOperator | None, b_op: RectOperator | None,
                              a0: float) -> SymmetricOperator:
    """Initializer matrix as a lazy composition (see ComposedSpectralOperator)."""
    if t_op is not None and (b_op is None or a0 == 0.0):
        return t_op
    return ComposedSpectralOperator(t_op, b_op, a0)


def leading_eigenpair(op: SymmetricOperator, tol: float = 1e-10, max_iter: int = 20_000,
                      rng=None) -> tuple[float, np.ndarray]:
    """Algebraically largest eigenpair of a symmetric operator.

    Implicitly restarted Lanczos (ARPACK through ``eigsh``, which="LA")
    started from a standard normal vector drawn from ``rng``; ``max_iter``
    caps the restarts.  The contract is checked after the solve: the
    eigen-residual satisfies ||op v - theta v|| <= 10 tol max(1, |theta|),
    and the returned vector has unit norm with its largest-magnitude
    coordinate positive.
    """
    # Imported here, not at module level: the import takes longer than all of
    # `import mvamp` (about 0.3 s against 0.2 s on a 2-core VM), and only the
    # spectral start needs it.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    rng = np.random.default_rng(rng)
    n = op.n
    lin_op = LinearOperator((n, n), matvec=op.matvec, dtype=float)
    try:
        vals, vecs = eigsh(lin_op, k=1, which="LA", v0=rng.standard_normal(n),
                           tol=tol, maxiter=max_iter, rng=rng)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge in {max_iter} restarts: {exc}",
            iterations=max_iter) from exc
    theta = float(vals[0])
    v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    residual = float(np.linalg.norm(op.matvec(v) - theta * v))
    if residual > 10.0 * tol * max(1.0, abs(theta)):
        raise ConvergenceError(
            f"Lanczos eigenpair misses its tolerance (residual {residual:.3e})",
            residual=residual)
    idx = int(np.argmax(np.abs(v)))
    if v[idx] < 0:
        v = -v
    return theta, v
