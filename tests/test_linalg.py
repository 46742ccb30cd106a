import json
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mvamp
from mvamp import linalg
from mvamp.exceptions import ConvergenceError
from mvamp.amp import solve_a0
from mvamp.linalg import (ComposedSpectralOperator, DenseSymmetricOperator,
                          RectOperator, SparseCenteredOperator, WeightedSumOperator,
                          leading_eigenpair)
from mvamp.linalg import _LANCZOS_BASIS, _malloc_trim, _single_threaded_blas
from mvamp.model import (center_scale_layer, rates_from_lambda, sample_covariates,
                         sample_gaussian_surrogate, sample_labels, sample_sbm_layer,
                         substream)


def random_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return (m + m.T) * scale


class CountedOperator:
    """An operator that counts its matvecs."""

    def __init__(self, op):
        self.op, self.n, self.calls = op, op.n, 0

    def matvec(self, v):
        self.calls += 1
        return self.op.matvec(v)


class TestOperatorProbes:
    """Random-probe linearity, symmetry and adjoint checks."""

    def operators(self):
        n = 37
        rng = np.random.default_rng(0)
        dense = DenseSymmetricOperator(random_symmetric(n, 1), denom=np.sqrt(n))
        lab = sample_labels(n, substream(30, 0))
        layer = sample_sbm_layer(lab, rates_from_lambda(0.9, 0.25, n), substream(30, 1))
        centered = center_scale_layer(layer)
        summed = WeightedSumOperator([dense, centered], [0.8, 0.6])
        b_op = RectOperator(rng.standard_normal((21, n)))
        composed = ComposedSpectralOperator(dense, b_op, 0.7)
        return n, [dense, centered, summed, composed], b_op

    def test_linearity(self):
        n, ops, _ = self.operators()
        rng = np.random.default_rng(2)
        for op in ops:
            v, w = rng.standard_normal(n), rng.standard_normal(n)
            a, b = rng.standard_normal(2)
            lhs = op.matvec(a * v + b * w)
            rhs = a * op.matvec(v) + b * op.matvec(w)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_symmetry(self):
        n, ops, _ = self.operators()
        rng = np.random.default_rng(3)
        for op in ops:
            v, w = rng.standard_normal(n), rng.standard_normal(n)
            assert abs(w @ op.matvec(v) - v @ op.matvec(w)) < 1e-10

    def test_adjoint_consistency(self):
        n, _, b_op = self.operators()
        rng = np.random.default_rng(4)
        v, w = rng.standard_normal(n), rng.standard_normal(b_op.p)
        assert abs(w @ b_op.apply(v) - b_op.apply_t(w) @ v) < 1e-10


class TestLeadingEigenpair:
    def test_identity_operator(self):
        op = DenseSymmetricOperator(np.eye(5))
        theta, v = leading_eigenpair(op, tol=1e-10, rng=0)
        assert abs(theta - 1.0) < 1e-10
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.linalg.norm(op.matvec(v) - theta * v) < 1e-10

    def test_diagonal_with_sign_convention(self):
        op = DenseSymmetricOperator(np.diag([3.0, 1.0, 0.0]))
        theta, v = leading_eigenpair(op, tol=1e-12, rng=1)
        assert abs(theta - 3.0) < 1e-10
        np.testing.assert_allclose(np.abs(v), [1.0, 0.0, 0.0], atol=1e-6)
        assert v[0] > 0  # sign convention: largest-magnitude coordinate positive

    def test_dominant_negative_eigenvalue(self):
        # the algebraically largest eigenvalue, not the largest in magnitude
        op = DenseSymmetricOperator(np.diag([-5.0, 2.0, 1.0]))
        theta, v = leading_eigenpair(op, tol=1e-12, rng=2)
        assert abs(theta - 2.0) < 1e-9
        assert abs(abs(v[1]) - 1.0) < 1e-6

    def test_negative_extreme_past_spectral_radius(self):
        # the most negative eigenvalue sets the spectral radius (4), yet the
        # returned pair is the top of the spectrum, beside a close second
        op = DenseSymmetricOperator(np.diag([-4.0, 1.0, 0.5]))
        theta, v = leading_eigenpair(op, tol=1e-12, rng=0)
        assert abs(theta - 1.0) < 1e-9
        np.testing.assert_allclose(np.abs(v), [0.0, 1.0, 0.0], atol=1e-6)
        assert np.linalg.norm(op.matvec(v) - theta * v) < 1e-9

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        for n in (8, 17, 30):
            m = random_symmetric(n, 100 + n, scale=1.0 / np.sqrt(n))
            # plant a strong positive direction so the top eigenpair is simple
            x = rng.choice([-1.0, 1.0], n)
            m += 3.0 * np.outer(x, x) / n
            theta, v = leading_eigenpair(DenseSymmetricOperator(m), tol=1e-12, rng=6)
            w, vecs = np.linalg.eigh(m)
            assert abs(theta - w[-1]) < 1e-9
            top = vecs[:, -1]
            assert min(np.linalg.norm(v - top), np.linalg.norm(v + top)) < 1e-5

    def test_planted_rank_one_vs_dense_eigensolver(self):
        rng = np.random.default_rng(55)
        for n in (5, 12, 30):
            x = rng.choice([-1.0, 1.0], n)
            m = np.outer(x, x) / np.sqrt(n)
            theta, v = leading_eigenpair(DenseSymmetricOperator(m), tol=1e-12, rng=56)
            w, vecs = np.linalg.eigh(m)
            assert abs(theta - w[-1]) < 1e-10  # top eigenvalue n / sqrt(n)
            assert abs(theta - np.sqrt(n)) < 1e-10
            top = vecs[:, -1]
            assert min(np.linalg.norm(v - top), np.linalg.norm(v + top)) < 1e-8

    def test_no_gap_spectral_operator_vs_dense_eigensolver(self):
        # gaussian lambda = mu = 0.5 lies below the detection threshold, so
        # the top of the spectrum is a bulk edge with no gap
        n, p, lam, mu = 400, 240, 0.5, 0.5
        labels = sample_labels(n, substream(40, 0))
        cov = sample_covariates(labels, mu, p, substream(40, 1))
        surr = sample_gaussian_surrogate(labels, lam, substream(40, 2))
        # float64 copies: float32 products cannot resolve the 1e-8 compared here
        T, B = surr.T.astype(np.float64), cov.B.astype(np.float64)
        a0 = solve_a0(lam, mu, n / p)
        op = ComposedSpectralOperator(
            DenseSymmetricOperator(T, denom=np.sqrt(n)), RectOperator(B), a0)
        theta, v = leading_eigenpair(op, tol=1e-10, rng=41)
        w, vecs = np.linalg.eigh(T / np.sqrt(n) + a0 * (B.T @ B) / p)
        assert abs(theta - w[-1]) < 1e-8
        assert abs(v @ vecs[:, -1]) >= 1.0 - 1e-6

    def test_residual_contract(self):
        tol = 1e-9
        op = DenseSymmetricOperator(random_symmetric(40, 7, scale=0.1))
        theta, v = leading_eigenpair(op, tol=tol, rng=8)
        assert np.linalg.norm(op.matvec(v) - theta * v) <= 10 * tol * max(1.0, abs(theta))

    def test_residual_checked_after_the_solve(self):
        # Lanczos assumes symmetry; on a triangular matrix its own estimate
        # claims convergence, and the recomputed residual catches it
        m = 3.0 * np.triu(np.random.default_rng(0).standard_normal((30, 30)))
        with pytest.raises(ConvergenceError) as err:
            leading_eigenpair(DenseSymmetricOperator(m), tol=1e-8, rng=0)
        assert err.value.residual > 1e-7

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_LANCZOS_MAX_MATVECS", 1)
        op = DenseSymmetricOperator(random_symmetric(60, 9))
        with pytest.raises(ConvergenceError) as err:
            leading_eigenpair(op, tol=1e-14, rng=10)
        assert err.value.iterations == 1

    @pytest.mark.parametrize("max_iter", [5, 70])
    def test_max_iter_caps_the_matvecs(self, max_iter, monkeypatch):
        # the cap is the constant _LANCZOS_MAX_MATVECS, lowered here; 70
        # runs one restart past the full basis before the cap
        monkeypatch.setattr(linalg, "_LANCZOS_MAX_MATVECS", max_iter)
        op = CountedOperator(DenseSymmetricOperator(random_symmetric(300, 9)))
        with pytest.raises(ConvergenceError) as err:
            leading_eigenpair(op, tol=1e-14, rng=10)
        assert err.value.iterations == max_iter
        assert op.calls == max_iter

    def test_coarse_tol_stops_early_on_a_spike(self):
        # a spike of strength 2 above a Wigner bulk, as a spectral start
        # sees above the detection threshold: tol 1e-2 needs 12-14 matvecs,
        # the check's included, so a solver that builds 20 basis vectors
        # before its first convergence test fails
        n = 400
        rng = np.random.default_rng(70)
        g = rng.standard_normal((n, n))
        x = rng.choice([-1.0, 1.0], n)
        m = (g + g.T) / np.sqrt(2 * n) + 2.0 * np.outer(x, x) / n
        for seed in range(5):
            op = CountedOperator(DenseSymmetricOperator(m))
            theta, v = leading_eigenpair(op, tol=1e-2, rng=seed)
            assert op.calls < 20
            assert np.linalg.norm(op.matvec(v) - theta * v) <= 0.1 * theta

    def test_restart_past_the_basis_meets_the_contract(self):
        # n above the basis cap, a relative gap of 0.5% and a tight tol: one
        # basis cannot resolve the top pair, so the solve restarts
        tol = 1e-10
        d = np.linspace(0.0, 1.0, 300)
        d[-2] = 0.995
        op = CountedOperator(DenseSymmetricOperator(np.diag(d)))
        theta, v = leading_eigenpair(op, tol=tol, rng=3)
        assert op.calls > _LANCZOS_BASIS + 1
        assert abs(theta - 1.0) < 1e-12
        assert np.linalg.norm(op.matvec(v) - theta * v) <= 10 * tol
        assert abs(v[-1]) > 1.0 - 1e-9 and v[-1] > 0

    def test_invariant_subspace_ends_the_solve_exactly(self):
        # a rank-one operator: the Krylov space of any start is spanned by
        # two vectors, so the second beta vanishes and the Ritz pair is
        # exact, far below a tol no estimate could meet by itself
        n = 200
        x = np.random.default_rng(71).choice([-1.0, 1.0], n)
        op = CountedOperator(DenseSymmetricOperator(np.outer(x, x) / np.sqrt(n)))
        theta, v = leading_eigenpair(op, tol=1e-15, rng=4)
        assert op.calls == 3  # two in the loop, one for the residual check
        assert abs(theta - np.sqrt(n)) < 1e-13
        np.testing.assert_allclose(v, x * x[np.argmax(np.abs(v))] / np.sqrt(n), atol=1e-14)

    def test_zero_operator(self):
        op = DenseSymmetricOperator(np.zeros((90, 90)))
        theta, v = leading_eigenpair(op, tol=1e-10, rng=5)
        assert theta == 0.0 and abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            leading_eigenpair(DenseSymmetricOperator(np.eye(3)), tol=0.0)


class TestComposeSpectralOperator:
    def test_zero_weight_is_plain_operator(self):
        # a0 = 0, the weight at mu = 0, gives T's product, bit for bit
        t_op = DenseSymmetricOperator(random_symmetric(12, 12))
        b_op = RectOperator(np.random.default_rng(13).standard_normal((9, 12)))
        v = np.random.default_rng(14).standard_normal(12)
        composed = ComposedSpectralOperator(t_op, b_op, 0.0)
        np.testing.assert_array_equal(composed.matvec(v), t_op.matvec(v))
        assert composed.n == 12
        zero_b = RectOperator(np.zeros((9, 12)))
        np.testing.assert_allclose(
            ComposedSpectralOperator(t_op, zero_b, 0.5).matvec(v),
            t_op.matvec(v), atol=1e-14)

    def test_matches_dense_composition(self):
        rng = np.random.default_rng(15)
        for n in (10, 20, 30):
            p = max(4, n // 2)
            t = random_symmetric(n, n, scale=1.0 / np.sqrt(n))
            b = rng.standard_normal((p, n))
            a0 = 0.37
            op = ComposedSpectralOperator(
                DenseSymmetricOperator(t), RectOperator(b), a0)
            dense = t + a0 * (b.T @ b) / p
            for _ in range(4):
                v = rng.standard_normal(n)
                np.testing.assert_allclose(op.matvec(v), dense @ v, atol=1e-12)

    def test_pure_gram_mode(self):
        # a0 = inf, the weight at lambda = 0, gives the Gram map alone, bit
        # for bit, whatever T holds
        rng = np.random.default_rng(16)
        b = rng.standard_normal((8, 14))
        b_op = RectOperator(b)
        t_op = DenseSymmetricOperator(random_symmetric(14, 19))
        op = ComposedSpectralOperator(t_op, b_op, np.inf)
        v = rng.standard_normal(14)
        np.testing.assert_array_equal(op.matvec(v), b_op.gram(v))
        np.testing.assert_allclose(op.matvec(v), (b.T @ b) @ v / 8, atol=1e-12)

    @pytest.mark.parametrize("a0", [-5.0, -1e-300, np.nan, -np.inf])
    def test_rejects_negative_or_nan_weight(self, a0):
        t_op = DenseSymmetricOperator(np.eye(5))
        b_op = RectOperator(np.ones((3, 5)))
        with pytest.raises(ValueError, match="a0"):
            ComposedSpectralOperator(t_op, b_op, a0)

    @pytest.mark.parametrize("p", [1, 127, 128, 129, 300])
    def test_fused_gram_matches_the_two_products(self, p):
        # one partial block, one full block, a full block and one row more,
        # and several blocks; float32 storage as sampled
        n, a0 = 200, 0.6
        rng = np.random.default_rng(17)
        b_op = RectOperator(rng.standard_normal((p, n)).astype(np.float32))
        t_op = DenseSymmetricOperator(random_symmetric(n, 18).astype(np.float32),
                                      denom=np.sqrt(n))
        v = rng.standard_normal(n)
        two_products = b_op.apply_t(b_op.apply(v))
        for weight, expected in ((a0, t_op.matvec(v) + a0 * two_products),
                                 (np.inf, two_products)):
            out = ComposedSpectralOperator(t_op, b_op, weight).matvec(v)
            assert np.linalg.norm(out - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_dimension_mismatch(self):
        t_op = DenseSymmetricOperator(np.eye(5))
        b_op = RectOperator(np.zeros((3, 7)))
        with pytest.raises(ValueError):
            ComposedSpectralOperator(t_op, b_op, 1.0)


class TestDenseProducts:
    """Dense products run in the matrix's dtype and return float64."""

    def operands(self):
        rng = np.random.default_rng(60)
        p, n = 600, 400
        return (rng.standard_normal((p, n)), random_symmetric(n, 61),
                rng.standard_normal(n), rng.standard_normal(p))

    def products(self, B, T):
        """(matrix, product) pairs, applied to (v, w, v)."""
        n = T.shape[0]
        b_op, t_op = RectOperator(B), DenseSymmetricOperator(T, denom=np.sqrt(n))
        return [(B, b_op.apply), (B, b_op.apply_t), (T, t_op.matvec)]

    def test_float64_storage_is_the_plain_product(self):
        B, T, v, w = self.operands()
        p, n = B.shape
        plain = [(B @ v) / np.sqrt(p), (B.T @ w) / np.sqrt(p), (T @ v) / np.sqrt(n)]
        for (_, fn), x, ref in zip(self.products(B, T), (v, w, v), plain):
            assert fn(x).tobytes() == ref.tobytes(), fn.__name__

    def test_float32_storage_is_read_as_stored(self):
        B, T, v, w = self.operands()
        B32, T32 = B.astype(np.float32), T.astype(np.float32)
        B64, T64 = B32.astype(np.float64), T32.astype(np.float64)
        exact = self.products(B64, T64) + [(B64, RectOperator(B64).gram)]
        products = self.products(B32, T32) + [(B32, RectOperator(B32).gram)]
        for (matrix, fn), (_, ref), x in zip(products, exact, (v, w, v, v)):
            tracemalloc.start()
            try:
                out = fn(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # a float64 copy of the matrix would take twice its bytes
            assert peak < matrix.nbytes / 8, fn.__name__
            assert out.dtype == np.float64
            # float32 round-off of the vector and of the sums, far below 1e-5
            expected = ref(x)
            assert np.linalg.norm(out - expected) <= 1e-5 * np.linalg.norm(expected)

    def test_unit_denominator_divides_exactly(self):
        _, T, v, _ = self.operands()
        assert DenseSymmetricOperator(T).matvec(v).tobytes() == (T @ v).tobytes()

    def test_float32_surrogate_reads_only_its_upper_triangle(self):
        _, T, v, _ = self.operands()
        n = T.shape[0]
        clean = T.astype(np.float32)
        poisoned = clean.copy()
        poisoned[np.tril_indices(n, -1)] = np.nan
        out = DenseSymmetricOperator(poisoned, denom=np.sqrt(n)).matvec(v)
        ref = DenseSymmetricOperator(clean, denom=np.sqrt(n)).matvec(v)
        assert np.isfinite(out).all()
        assert out.tobytes() == ref.tobytes()

    def test_float32_surrogate_without_ssymv_takes_the_plain_product(self, monkeypatch):
        # a numpy whose BLAS has no ssymv: the full float32 product, which
        # agrees with ssymv to round-off and reads the lower triangle too
        _, T, v, _ = self.operands()
        n = T.shape[0]
        clean = T.astype(np.float32)
        symv = DenseSymmetricOperator(clean, denom=np.sqrt(n)).matvec(v)
        monkeypatch.setattr(linalg, "_cblas_ssymv", lambda: None)
        plain = DenseSymmetricOperator(clean, denom=np.sqrt(n)).matvec(v)
        assert plain.tobytes() == ((clean @ v.astype(np.float32)) / np.sqrt(n)).tobytes()
        assert np.linalg.norm(plain - symv) <= 1e-6 * np.linalg.norm(symv)
        poisoned = clean.copy()
        poisoned[np.tril_indices(n, -1)] = np.nan
        out = DenseSymmetricOperator(poisoned, denom=np.sqrt(n)).matvec(v)
        # row 0 has no entry below the diagonal, every other row has one
        assert np.isfinite(out[0]) and np.isnan(out[1:]).all()


class TestSparseCenteredOperator:
    def test_rejects_degenerate_density(self):
        from scipy import sparse
        with pytest.raises(ValueError):
            SparseCenteredOperator(sparse.csr_array(np.zeros((4, 4))), 0.0)


class TestSingleThreadedBlas:
    def test_covers_every_loaded_openblas(self):
        # a pin that found no library would silently leave BLAS threaded;
        # scipy's OpenBLAS, which mvamp never calls, must stay unloaded
        src = str(Path(mvamp.__file__).resolve().parents[1])
        small = ("sweep_param='lambda', grid=(2.0,), fixed_value=0.9, replicates=1, "
                 "n_iter=5, seed=1")
        code = f"""
import json, os, sys
sys.path.insert(0, sys.argv[1])
from mvamp import ExperimentConfig
from mvamp.experiments import run_replicate
from mvamp.linalg import _openblas_thread_calls
run_replicate(ExperimentConfig(family='gaussian', n=200, p=120, {small}), 0, 0)
run_replicate(ExperimentConfig(family='multilayer', n=400, p=240, m=2,
                               r_fractions=(0.5, 0.5), p_bar_coeffs=(0.7, 0.6), {small}), 0, 0)
maps = open('/proc/self/maps').read().splitlines()
print(json.dumps({{
    'found': [os.path.realpath(path) for path, _, _ in _openblas_thread_calls()],
    'mapped': sorted({{os.path.realpath(line.split()[-1]) for line in maps
                      if 'openblas' in line.rsplit('/', 1)[-1]}})}}))
"""
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True).stdout
        libs = json.loads(out)
        mapped = set(libs["mapped"])
        assert mapped and mapped <= set(libs["found"])
        assert not any(Path(path).parent.name == "scipy.libs" for path in mapped)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_heap_trim_finds_malloc_trim(self):
        # a lookup that found nothing would leave freed matrices resident
        # without a word
        assert _malloc_trim() is not None

    def test_one_thread_inside_and_counts_restored(self, blas_threads):
        before = blas_threads()
        assert set(before) == {2}
        with _single_threaded_blas():
            assert set(blas_threads()) == {1}
            with _single_threaded_blas():
                assert set(blas_threads()) == {1}
            assert set(blas_threads()) == {1}
        assert blas_threads() == before

    def test_counts_restored_when_the_body_raises(self, blas_threads):
        before = blas_threads()
        assert set(before) == {2}
        with pytest.raises(RuntimeError):
            with _single_threaded_blas():
                raise RuntimeError("boom")
        assert blas_threads() == before

    def test_concurrent_entries_share_one_pin(self, blas_threads):
        # more threads than cores, switching often: a lost update of the
        # shared depth would restore the counts under a running body or
        # leave them at one
        before = blas_threads()
        inside = []

        def enter():
            for _ in range(50):
                with _single_threaded_blas():
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(inside) == 200 and all(set(counts) == {1} for counts in inside)
        assert blas_threads() == before
