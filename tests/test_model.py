import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse

from mvamp.exceptions import InfeasibleSnrError
from mvamp.model import (CommunityLabels, LayerParams, center_scale_layer, combine_layers,
                         rates_from_lambda, sample_covariates, sample_gaussian_surrogate,
                         sample_labels, sample_revelation, sample_sbm_layer, substream,
                         write_edge_list)
from mvamp import model
from mvamp.model import _normal_fill, _unrank_within

from oracles import box_muller_block, lambda_from_rates


class TestLabels:
    def test_domain_and_length(self):
        lab = sample_labels(4, substream(0, 1))
        assert lab.n == 4
        assert set(np.unique(lab.x_star)) <= {-1.0, 1.0}

    def test_mean_concentrates(self):
        n = 100_000
        lab = sample_labels(n, substream(0, 2))
        assert abs(lab.x_star.mean()) < 3.0 / np.sqrt(n)

    def test_determinism(self):
        a = sample_labels(50, substream(7, 3))
        b = sample_labels(50, substream(7, 3))
        np.testing.assert_array_equal(a.x_star, b.x_star)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_labels(0, substream(0, 0))

    def test_rejects_invalid_entries(self):
        with pytest.raises(ValueError):
            CommunityLabels(x_star=np.array([1.0, 0.5, -1.0]))


class TestRates:
    def test_zero_strength_means_equal_rates(self):
        p = rates_from_lambda(0.0, 0.1, 100)
        assert p.a_n == p.b_n == 10.0

    def test_closed_form_half_gap(self):
        n, p_bar = 2000, 0.7 / np.sqrt(2000)
        p = rates_from_lambda(1.0, p_bar, n)
        assert abs(p.delta - np.sqrt(p_bar * (1 - p_bar) / n)) < 1e-15

    def test_round_trip_on_grid(self):
        n = 2000
        for lam in (0.1, 0.5, 1.0, 2.0, 3.0, 4.0):
            for p_bar in (0.7 / np.sqrt(n), 0.05, 0.3):
                params = rates_from_lambda(lam, p_bar, n)
                strength = lambda_from_rates(params.a_n, params.b_n, n)
                assert abs(strength - lam) < 1e-12 * max(1.0, lam)

    def test_infeasible_strength_names_maximum(self):
        with pytest.raises(InfeasibleSnrError) as err:
            rates_from_lambda(1e6, 0.01, 1000)
        assert err.value.lambda_max == pytest.approx(1000 * 0.01 / 0.99)

    def test_infeasible_strength_above_half_density_names_maximum(self):
        # above p_bar = 1/2 the within-group rate reaches one first
        n = 100
        with pytest.raises(InfeasibleSnrError) as err:
            rates_from_lambda(n / 4 + 1.0, 0.8, n)
        assert err.value.lambda_max == pytest.approx(n / 4)

    def test_rate_ordering_enforced(self):
        n = 100
        for lam in (0.5, 1.0, 5.0):
            p = rates_from_lambda(lam, 0.1, n)
            assert 0.0 < p.b_n < p.a_n <= n
        with pytest.raises(ValueError):
            lambda_from_rates(p.b_n, p.a_n, n)

    def test_equal_rates_give_zero(self):
        p = rates_from_lambda(0.0, 0.2, 50)
        assert p.delta == 0.0
        assert lambda_from_rates(p.a_n, p.b_n, 50) == 0.0

    def test_monotone_in_gap_at_fixed_sum(self):
        n, s = 1000, 60.0  # a + b fixed
        p_bar = s / (2 * n)
        vals = []
        for gap in np.linspace(0.0, 40.0, 9):
            lam = lambda_from_rates((s + gap) / 2, (s - gap) / 2, n)
            q = rates_from_lambda(lam, p_bar, n)
            assert q.a_n - q.b_n == pytest.approx(gap, abs=1e-9)
            assert q.a_n + q.b_n == pytest.approx(s, abs=1e-9)
            vals.append(lam)
        assert all(b > a or (a == b == 0.0) for a, b in zip(vals, vals[1:]))


class TestSbmLayer:
    def test_empty_and_complete_graphs(self):
        lab = sample_labels(30, substream(1, 0))
        p0 = rates_from_lambda(0.0, 1e-9, 30)
        empty = sample_sbm_layer(lab, p0, substream(1, 1))
        assert empty.adjacency.nnz == 0
        full = sample_sbm_layer(lab, LayerParams(0.0, 1 - 1e-12, 30), substream(1, 2))
        dense = full.adjacency.toarray()
        np.testing.assert_array_equal(dense, np.ones((30, 30)) - np.eye(30))

    def test_structure_symmetric_zero_diagonal(self):
        lab = sample_labels(200, substream(2, 0))
        params = rates_from_lambda(2.0, 0.7 / np.sqrt(200), 200)
        layer = sample_sbm_layer(lab, params, substream(2, 1))
        a = layer.adjacency.toarray()
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert set(np.unique(a)) <= {0.0, 1.0}

    def test_within_rate_concentrates(self):
        n = 2000
        lab = sample_labels(n, substream(3, 0))
        params = rates_from_lambda(1.0, 0.7 / np.sqrt(n), n)
        layer = sample_sbm_layer(lab, params, substream(3, 1))
        x = lab.x_star
        rows, cols = np.triu_indices(n, k=1)
        same = x[rows] == x[cols]
        edges = np.asarray(layer.adjacency[rows, cols]).ravel()
        n_same = int(same.sum())
        p_in = params.a_n / n
        rate = edges[same].sum() / n_same
        band = 4.0 * np.sqrt(p_in * (1 - p_in) / n_same)
        assert abs(rate - p_in) < band

    def test_across_rate_concentrates(self):
        n = 2000
        lab = sample_labels(n, substream(3, 2))
        params = rates_from_lambda(1.0, 0.7 / np.sqrt(n), n)
        layer = sample_sbm_layer(lab, params, substream(3, 3))
        x = lab.x_star
        upper = sparse.triu(sparse.coo_array(layer.adjacency), k=1)
        n_across = int((x > 0).sum() * (x < 0).sum())
        p_out = params.b_n / n
        rate = np.count_nonzero(x[upper.row] != x[upper.col]) / n_across
        band = 4.0 * np.sqrt(p_out * (1 - p_out) / n_across)
        assert abs(rate - p_out) < band

    @pytest.mark.parametrize("p_bar", [0.1, 0.5])
    def test_structure_at_high_density(self, p_bar):
        # numpy draws distinct ranks by a different algorithm at these densities
        n = 400
        lab = sample_labels(n, substream(3, 4))
        params = rates_from_lambda(2.0, p_bar, n)
        layer = sample_sbm_layer(lab, params, substream(3, 5))
        a = layer.adjacency
        # a pair drawn twice would sum to 2 when the adjacency is assembled
        np.testing.assert_array_equal(a.data, np.ones(a.nnz))
        assert (a != a.T).nnz == 0
        assert np.all(a.diagonal() == 0)
        x = lab.x_star
        upper = sparse.triu(sparse.coo_array(a), k=1)
        assert 2 * upper.nnz == a.nnz
        same = x[upper.row] == x[upper.col]
        n_plus = int((x > 0).sum())
        n_same = n_plus * (n_plus - 1) // 2 + (n - n_plus) * (n - n_plus - 1) // 2
        for hits, pairs, prob in ((same.sum(), n_same, params.a_n / n),
                                  ((~same).sum(), n_plus * (n - n_plus), params.b_n / n)):
            assert abs(hits / pairs - prob) < 4.0 * np.sqrt(prob * (1 - prob) / pairs)

    def test_unranking_enumerates_every_pair_once(self):
        for m in range(60):
            k, l = _unrank_within(np.arange(m * (m - 1) // 2))
            rows, cols = np.triu_indices(m, k=1)
            order = np.lexsort((rows, cols))
            np.testing.assert_array_equal(k, rows[order])
            np.testing.assert_array_equal(l, cols[order])
        # ranks next to triangular numbers, where the float square root may miss
        ls = np.array([10 ** 5, 10 ** 6, 3 * 10 ** 7, 10 ** 8], dtype=np.int64)
        ranks = (ls * (ls - 1) // 2)[:, None] + np.array([-1, 0, 1])
        k, l = _unrank_within(ranks.ravel())
        np.testing.assert_array_equal(l * (l - 1) // 2 + k, ranks.ravel())
        assert np.all((0 <= k) & (k < l))

    def test_peak_memory_is_a_small_multiple_of_the_edges(self):
        n = 8000
        lab = sample_labels(n, substream(3, 6))
        params = rates_from_lambda(2.0, 0.7 / np.sqrt(n), n)
        tracemalloc.start()
        try:
            layer = sample_sbm_layer(lab, params, substream(3, 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        a = layer.adjacency
        assert peak <= 8 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)

    def test_adjacency_has_int32_indices(self):
        lab = sample_labels(500, substream(3, 8))
        params = rates_from_lambda(2.0, 0.7 / np.sqrt(500), 500)
        a = sample_sbm_layer(lab, params, substream(3, 9)).adjacency
        assert a.nnz > 0
        assert a.indices.dtype == np.int32 and a.indptr.dtype == np.int32

    def test_determinism(self):
        lab = sample_labels(100, substream(4, 0))
        params = rates_from_lambda(1.5, 0.1, 100)
        a = sample_sbm_layer(lab, params, substream(4, 1)).adjacency
        b = sample_sbm_layer(lab, params, substream(4, 1)).adjacency
        assert (a != b).nnz == 0

    def test_rejects_invalid_probability(self):
        # p_bar + delta = 0.8 + sqrt(0.048) > 1 is no edge probability
        with pytest.raises(InfeasibleSnrError):
            LayerParams(3.0, 0.8, 10)
        # rates for n = 11 subjects give other probabilities among 10
        lab = sample_labels(10, substream(5, 0))
        with pytest.raises(ValueError, match="n=11"):
            sample_sbm_layer(lab, rates_from_lambda(0.0, 0.5, 11), substream(5, 1))


class TestCovariates:
    def test_no_spike_is_pure_noise(self):
        p, n = 500, 300
        lab = sample_labels(n, substream(6, 0))
        cov = sample_covariates(lab, 0.0, p, substream(6, 1))
        col_means = cov.B.mean(axis=0)
        assert np.max(np.abs(col_means)) < 4.0 / np.sqrt(p)

    def test_planted_projection(self):
        n = p = 500
        mu = 1.0
        lab = sample_labels(n, substream(7, 0))
        cov = sample_covariates(lab, mu, p, substream(7, 1))
        proj = cov.v_star @ cov.B @ lab.x_star / (n * p)
        expected = np.sqrt(mu / n) * (cov.v_star @ cov.v_star) / p
        assert abs(proj - expected) < 4.0 / np.sqrt(n * p)

    def test_residual_noise_moments(self):
        lab = sample_labels(400, substream(8, 0))
        cov = sample_covariates(lab, 2.0, 600, substream(8, 1))
        r = cov.residual_noise(lab)
        m = r.size
        assert abs(r.mean()) < 4.0 / np.sqrt(m)
        assert abs(r.var() - 1.0) < 4.0 * np.sqrt(2.0 / m)

    def test_determinism(self):
        lab = sample_labels(60, substream(9, 0))
        a = sample_covariates(lab, 1.0, 80, substream(9, 1))
        b = sample_covariates(lab, 1.0, 80, substream(9, 1))
        np.testing.assert_array_equal(a.B, b.B)

    def test_matches_outer_product_formula(self):
        # v* comes from the stream itself and noise block b from its child b,
        # which is substream(9, 5, b), by the float32 Box-Muller transform;
        # p = 601 ends in a partial last block of odd size (89 x 37)
        n, p = 37, 601
        lab = sample_labels(n, substream(9, 4))
        noise = np.concatenate([box_muller_block(substream(9, 5, b), rows, n)
                                for b, rows in enumerate((256, 256, 89))])
        v_star = substream(9, 5).standard_normal(p)
        for mu in (0.0, 0.5, 0.9, 3.0):
            cov = sample_covariates(lab, mu, p, substream(9, 5))
            spike = np.outer((np.sqrt(mu / n) * v_star).astype(np.float32),
                             lab.x_star.astype(np.float32))
            assert cov.B.dtype == np.float32
            assert cov.v_star.tobytes() == v_star.tobytes()
            assert cov.B.tobytes() == (noise + spike).tobytes()

    def test_peak_memory_is_the_stored_matrix_plus_row_blocks(self):
        # float32 storage plus one float32 scratch of 32 rows per fill
        # thread (two of them); a float64 row block, or a temporary of the
        # transform, would add at least 4 * 256 * n bytes
        p, n = 3000, 2000
        lab = sample_labels(n, substream(9, 6))
        tracemalloc.start()
        try:
            cov = sample_covariates(lab, 0.9, p, substream(9, 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cov.B.nbytes == 4 * p * n
        assert peak <= 4 * p * n + 4 * (4 * 32 * n)

    def test_aspect_ratio(self):
        lab = sample_labels(60, substream(9, 2))
        cov = sample_covariates(lab, 1.0, 80, substream(9, 3))
        assert cov.c == 60 / 80


class TestGaussianSurrogate:
    def test_no_signal_quadratic_form(self):
        n = 1000
        lab = sample_labels(n, substream(10, 0))
        surr = sample_gaussian_surrogate(lab, 0.0, substream(10, 1))
        val = lab.x_star @ surr.T @ lab.x_star / n ** 2
        assert abs(val) < 4.0 / n

    def test_planted_quadratic_form(self):
        n, lam = 1500, 4.0
        lab = sample_labels(n, substream(11, 0))
        surr = sample_gaussian_surrogate(lab, lam, substream(11, 1))
        val = lab.x_star @ surr.T @ lab.x_star / (n * np.sqrt(n))
        # noise part has sd sqrt(2/n)
        assert abs(val - np.sqrt(lam)) < 5.0 * np.sqrt(2.0 / n)

    def test_symmetry_exact(self):
        lab = sample_labels(80, substream(12, 0))
        surr = sample_gaussian_surrogate(lab, 1.0, substream(12, 1))
        np.testing.assert_array_equal(surr.T, surr.T.T)

    def test_matches_full_matrix_formula(self):
        # block b of rows i:j draws rows i:j, columns i:n from substream(12,
        # 3, n, b) by the float32 Box-Muller transform; T keeps the strict
        # upper triangle of those panels, mirrored, and sqrt(2) times their
        # diagonal; every n here ends in a partial block, of odd size
        # (233 x 233) at n = 1001
        for n in (300, 1001, 1500):
            lab = sample_labels(n, substream(12, 2, n))
            U = np.zeros((n, n), dtype=np.float32)
            for b, i in enumerate(range(0, n, 256)):
                j = min(i + 256, n)
                U[i:j, i:] = box_muller_block(substream(12, 3, n, b), j - i, n - i)
            Z = np.triu(U, 1) + np.triu(U, 1).T
            np.fill_diagonal(Z, (np.diag(U) * np.sqrt(2.0)).astype(np.float32))
            x = lab.x_star.astype(np.float32)
            for lam in (0.0, 2.5):
                surr = sample_gaussian_surrogate(lab, lam, substream(12, 3, n))
                T = Z + np.float32(np.sqrt(lam / n)) * np.outer(x, x)
                assert surr.T.dtype == np.float32
                assert surr.T.tobytes() == T.tobytes()

    def test_peak_memory_is_the_float32_storage_plus_a_few_panels(self):
        # the float32 result (4 n^2) and one float32 scratch per fill thread
        # (two of them), each an upper panel plus 32 rows (1.125 panels of
        # 256 x n float32), and the boolean lower-triangle mask of a panel's
        # diagonal square (256^2 bytes, about 4% of a panel at this n); a
        # float64 n x n draw would add 8 n^2
        n = 1500
        panel = 4 * 256 * n
        lab = sample_labels(n, substream(12, 6))
        tracemalloc.start()
        try:
            surr = sample_gaussian_surrogate(lab, 2.5, substream(12, 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert surr.T.nbytes == 4 * n * n
        assert peak <= 4 * n * n + 3 * panel

    def test_noise_variances(self):
        n = 900
        lab = sample_labels(n, substream(13, 0))
        surr = sample_gaussian_surrogate(lab, 0.0, substream(13, 1))
        off = surr.T[np.triu_indices(n, k=1)]
        diag = np.diag(surr.T)
        assert abs(off.var() - 1.0) < 4.0 * np.sqrt(2.0 / off.size)
        assert abs(diag.var() - 2.0) < 4.0 * 2.0 * np.sqrt(2.0 / diag.size)


def test_samplers_on_concurrent_threads_give_the_same_bytes():
    # run_sweep's --threads workers call the samplers side by side, and each
    # call fills its row blocks on two threads; 700 and 1001 rows end in
    # partial blocks
    lab = sample_labels(700, substream(14, 0))
    draws = [lambda: sample_covariates(lab, 0.9, 1001, substream(14, 1)).B,
             lambda: sample_gaussian_surrogate(lab, 2.5, substream(14, 2)).T]
    alone = [draw().tobytes() for draw in draws]
    # switching often makes a block lost or filled twice by the shared
    # queue of blocks more likely to show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                together = [pool.submit(draw) for draw in draws]
                assert [f.result(timeout=60).tobytes() for f in together] == alone
    finally:
        sys.setswitchinterval(interval)


def test_blocks_do_not_depend_on_the_fill_thread_count(monkeypatch):
    # 700 and 1001 rows end in partial blocks (188 and 233 rows)
    lab = sample_labels(700, substream(30, 0))
    draws = [lambda: sample_covariates(lab, 0.9, 1001, substream(30, 1)).B,
             lambda: sample_gaussian_surrogate(lab, 2.5, substream(30, 2)).T]
    default = [draw().tobytes() for draw in draws]
    monkeypatch.setattr(model, "_FILL_THREADS", 1)
    assert [draw().tobytes() for draw in draws] == default


# Largest |z| the transform reaches: the radius at the float32 uniform
# 1 - 2^-24.  A standard normal exceeds it with probability about 7.9e-9.
_TAIL = np.sqrt(-2.0 * np.log(2.0 ** -24))


class _FixedUniforms:
    """Stands in for a generator: random(out=...) writes the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self, out, dtype):
        assert dtype == np.float32
        out[...] = [next(self.values) for _ in range(out.size)]


class TestNormalFill:
    @pytest.fixture(scope="class")
    def noise(self):
        # an unspiked 1001 x 1001 covariate matrix: 1,002,001 draws in three
        # full blocks and an odd-sized last one (233 x 1001)
        lab = sample_labels(1001, substream(31, 0))
        return sample_covariates(lab, 0.0, 1001, substream(31, 1)).B

    def test_moments(self, noise):
        z = noise.ravel().astype(np.float64)
        m = z.size
        assert m >= 10 ** 6
        c = z - z.mean()
        var = np.mean(c ** 2)
        skew = np.mean(c ** 3) / var ** 1.5
        kurt = np.mean(c ** 4) / var ** 2 - 3.0
        assert abs(z.mean()) < 4.0 / np.sqrt(m)
        assert abs(var - 1.0) < 4.0 * np.sqrt(2.0 / m)
        assert abs(skew) < 4.0 * np.sqrt(6.0 / m)
        assert abs(kurt) < 4.0 * np.sqrt(24.0 / m)

    def test_kolmogorov_smirnov_distance(self, noise):
        from scipy.special import ndtr

        z = np.sort(noise.ravel().astype(np.float64))
        m = z.size
        cdf = ndtr(z)
        d = max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m))
        # asymptotic critical value at level 1e-3: sqrt(ln(2 / 1e-3) / 2) / sqrt(m)
        assert d < np.sqrt(np.log(2e3) / 2.0) / np.sqrt(m)

    def test_paired_entries_are_uncorrelated(self, noise):
        # entries k and k + h of a block come from one pair of uniforms
        firsts, seconds = [], []
        for i in range(0, noise.shape[0], 256):
            flat = noise[i:i + 256].ravel()
            h = flat.size // 2
            firsts.append(flat[:h])
            seconds.append(flat[h:2 * h])
        a = np.concatenate(firsts).astype(np.float64)
        b = np.concatenate(seconds).astype(np.float64)
        bound = 4.0 / np.sqrt(a.size)
        assert abs(np.corrcoef(a, b)[0, 1]) < bound
        assert abs(np.corrcoef(a ** 2, b ** 2)[0, 1]) < bound

    def test_odd_sized_blocks(self):
        # a one-entry block is all odd entry: its cosine of one radius and one
        # further uniform is still N(0, 1)
        rng = substream(32, 0)
        scratch = np.empty(3, dtype=np.float32)
        z = np.empty(20_000)
        one = np.empty(1, dtype=np.float32)
        for k in range(z.size):
            _normal_fill(one, rng, scratch)
            z[k] = one[0]
        m = z.size
        assert abs(z.mean()) < 4.0 / np.sqrt(m)
        assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / m)
        assert abs(np.mean(z ** 4) - 3.0) < 4.0 * np.sqrt(96.0 / m)

    def test_tail_bound(self, noise):
        assert np.all(np.isfinite(noise))
        assert np.max(np.abs(noise)) <= _TAIL * (1 + 1e-6)
        # the extreme uniforms: u = 1 - 2^-24 gives the largest radius, u = 0
        # radius zero; angles 0 and 1/4 turn them onto the cosine and sine
        flat = np.empty(4, dtype=np.float32)
        _normal_fill(flat, _FixedUniforms([1 - 2.0 ** -24, 0.0, 0.0, 0.25]),
                     np.empty(4, dtype=np.float32))
        assert abs(flat[0] - _TAIL) <= 1e-6 * _TAIL
        np.testing.assert_array_equal(flat[1:], 0.0)


class TestRevelation:
    def test_nothing_revealed(self):
        lab = sample_labels(50, substream(14, 0))
        v = np.ones(40)
        m = sample_revelation(lab, v, 0.0, substream(14, 1))
        assert not m.mask_x.any() and not m.mask_v.any()
        assert np.all(m.x0 == 0.0) and np.all(m.v0 == 0.0)

    def test_everything_revealed(self):
        lab = sample_labels(50, substream(15, 0))
        v = np.linspace(-1, 1, 40)
        m = sample_revelation(lab, v, 1.0, substream(15, 1))
        np.testing.assert_array_equal(m.x0, lab.x_star)
        np.testing.assert_array_equal(m.v0, v)

    def test_revealed_fraction_concentrates(self):
        n, eps = 10_000, 0.2
        lab = sample_labels(n, substream(16, 0))
        m = sample_revelation(lab, np.zeros(n), eps, substream(16, 1))
        band = 4.0 * np.sqrt(eps * (1 - eps) / n)
        assert abs(m.mask_x.mean() - eps) < band

    def test_revealed_entries_copy_truth(self):
        lab = sample_labels(300, substream(17, 0))
        v = np.random.default_rng(3).standard_normal(200)
        m = sample_revelation(lab, v, 0.5, substream(17, 1))
        np.testing.assert_array_equal(m.x0[m.mask_x], lab.x_star[m.mask_x])
        assert np.all(m.x0[~m.mask_x] == 0.0)
        np.testing.assert_array_equal(m.v0[m.mask_v], v[m.mask_v])

    def test_rejects_bad_fraction(self):
        lab = sample_labels(5, substream(18, 0))
        with pytest.raises(ValueError):
            sample_revelation(lab, np.zeros(5), 1.2, substream(18, 1))


class TestCenteredOperator:
    def test_zero_vector(self):
        lab = sample_labels(40, substream(19, 0))
        layer = sample_sbm_layer(lab, rates_from_lambda(1.0, 0.2, 40), substream(19, 1))
        op = center_scale_layer(layer)
        np.testing.assert_array_equal(op.matvec(np.zeros(40)), np.zeros(40))

    def test_matches_dense_construction(self):
        rng = np.random.default_rng(20)
        for n in (10, 25, 50):
            lab = sample_labels(n, substream(20, n, 0))
            params = rates_from_lambda(0.8, 0.3, n)
            layer = sample_sbm_layer(lab, params, substream(20, n, 1))
            op = center_scale_layer(layer)
            p_bar = params.p_bar
            dense = (layer.adjacency.toarray() - p_bar * np.ones((n, n))) \
                / np.sqrt(n * p_bar * (1 - p_bar))
            for _ in range(5):
                v = rng.standard_normal(n)
                np.testing.assert_allclose(op.matvec(v), dense @ v, atol=1e-12)

    def test_planted_mean(self):
        n, lam = 2000, 4.0
        lab = sample_labels(n, substream(21, 0))
        params = rates_from_lambda(lam, 0.7 / np.sqrt(n), n)
        layer = sample_sbm_layer(lab, params, substream(21, 1))
        op = center_scale_layer(layer)
        val = lab.x_star @ op.matvec(lab.x_star) / n
        assert abs(val - np.sqrt(lam)) < 5.0 * np.sqrt(2.0 / n) + 0.05


class TestCombineLayers:
    def make_ops(self, n, seeds, lam=1.0, p_bar=0.2):
        lab = sample_labels(n, substream(22, 0))
        params = rates_from_lambda(lam, p_bar, n)
        return lab, [center_scale_layer(sample_sbm_layer(lab, params, substream(22, s)))
                     for s in seeds]

    def test_single_layer_identity(self):
        _, ops = self.make_ops(30, [1])
        v = np.random.default_rng(1).standard_normal(30)
        np.testing.assert_array_equal(combine_layers(ops, [2.0]).matvec(v), ops[0].matvec(v))

    def test_two_identical_layers(self):
        _, ops = self.make_ops(30, [1])
        combined = combine_layers([ops[0], ops[0]], [1.0, 1.0])
        v = np.random.default_rng(0).standard_normal(30)
        np.testing.assert_allclose(combined.matvec(v),
                                   np.sqrt(2.0) * ops[0].matvec(v), atol=1e-12)

    def test_three_layer_planted_mean(self):
        n, lam = 2000, 4.0
        lab = sample_labels(n, substream(23, 0))
        fractions = (0.6, 0.2, 0.2)
        coeffs = (0.7, 0.4, 0.3)
        ops = []
        for i, (r, k) in enumerate(zip(fractions, coeffs)):
            params = rates_from_lambda(r * lam, k / np.sqrt(n), n)
            ops.append(center_scale_layer(sample_sbm_layer(lab, params, substream(23, i + 1))))
        combined = combine_layers(ops, [r * lam for r in fractions])
        val = lab.x_star @ combined.matvec(lab.x_star) / n
        assert abs(val - np.sqrt(lam)) < 0.2

    def test_dimension_mismatch(self):
        _, ops1 = self.make_ops(30, [1])
        lab2 = sample_labels(40, substream(24, 0))
        layer2 = sample_sbm_layer(lab2, rates_from_lambda(1.0, 0.2, 40), substream(24, 1))
        with pytest.raises(ValueError):
            combine_layers([ops1[0], center_scale_layer(layer2)], [1.0, 1.0])
        with pytest.raises(ValueError):
            combine_layers([], [])


def test_edge_list_round_trip(tmp_path):
    lab = sample_labels(25, substream(25, 0))
    layer = sample_sbm_layer(lab, rates_from_lambda(1.0, 0.3, 25), substream(25, 1))
    path = tmp_path / "edges.txt"
    write_edge_list(layer, path)
    pairs = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    rebuilt = sparse.csr_array(
        (np.ones(2 * len(pairs)),
         (np.array([p[0] for p in pairs] + [p[1] for p in pairs]),
          np.array([p[1] for p in pairs] + [p[0] for p in pairs]))),
        shape=(25, 25))
    assert (rebuilt != layer.adjacency).nnz == 0
    assert all(k < l for k, l in pairs)
