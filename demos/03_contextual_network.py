"""Estimation from one sparse network plus covariates.

The network never appears as a dense matrix: the iteration works through
the centered, rescaled adjacency operator (sparse matvec plus a rank-one
correction), whose planted mean matches the dense model's.
"""

import numpy as np

from mvamp import (RectOperator, SeConfig, center_scale_layer, empirical_mse,
                   empirical_overlap, limit_mmse, rates_from_lambda, run_amp,
                   sample_covariates, sample_labels, sample_revelation, sample_sbm_layer,
                   se_run, solve_a0, spectral_initialize, substream)

n, p = 2000, 3000
lam, mu = 3.0, 0.7
c = n / p
seed = 11

p_bar = 0.7 / np.sqrt(n)
params = rates_from_lambda(lam, p_bar, n)
print(f"edge rates: within {params.a_n / n:.5f}, between {params.b_n / n:.5f} "
      f"(mean density {p_bar:.5f}, average degree {n * p_bar:.1f})")

labels = sample_labels(n, substream(seed, 0))
layer = sample_sbm_layer(labels, params, substream(seed, 1))
print(f"sampled {layer.adjacency.nnz // 2} edges")

A = center_scale_layer(layer)
print(f"planted alignment x*^T A x* / n = {labels.x_star @ A.matvec(labels.x_star) / n:.4f}"
      f"  (should be near sqrt(lambda) = {np.sqrt(lam):.4f})")

cov = sample_covariates(labels, mu, p, substream(seed, 2))
masks = sample_revelation(labels, cov.v_star, 0.0, substream(seed, 3))
b_op = RectOperator(cov.B)

vec = spectral_initialize(A, b_op, solve_a0(lam, mu, c), substream(seed, 4))
traj = se_run(SeConfig(lam=lam, mu=mu, c=c, t_max=100))  # at most 100 steps
out = run_amp(A, b_op, masks, traj, vec, x_star=labels.x_star)

print(f"\nempirical matrix mse : {empirical_mse(out.x_hat, labels.x_star):.4f}")
print(f"theoretical limit    : {limit_mmse(lam, mu, c):.4f}")
print(f"sign overlap         : {empirical_overlap(out.x_hat, labels.x_star):.4f}")
