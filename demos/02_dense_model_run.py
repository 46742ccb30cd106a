"""One full estimation run on the dense symmetric observation model.

Samples labels, a spiked symmetric matrix and spiked covariates, builds
the spectral initializer, runs the two-orbit iteration, and compares the
final error with its predicted limit.
"""

import numpy as np

from mvamp import (DenseSymmetricOperator, RectOperator, SeConfig, empirical_mse,
                   init_spectral, limit_mmse, run_amp, sample_covariates,
                   sample_gaussian_surrogate, sample_labels, sample_revelation,
                   se_run, solve_a0, spectral_initialize, substream)

n, p = 1500, 900
lam, mu = 3.0, 0.9
c = n / p
seed = 7

labels = sample_labels(n, substream(seed, 0))
cov = sample_covariates(labels, mu, p, substream(seed, 1))
surr = sample_gaussian_surrogate(labels, lam, substream(seed, 2))
masks = sample_revelation(labels, cov.v_star, 0.0, substream(seed, 3))  # no side info

sym_op = DenseSymmetricOperator(surr.T, denom=np.sqrt(n))
b_op = RectOperator(cov.B)

a0 = solve_a0(lam, mu, c)
print(f"spectral combination weight a0 = {a0:.5f}")
x0_vec, u0_vec = spectral_initialize(sym_op, b_op, a0, substream(seed, 4))
print(f"initial |overlap| of the spectral vector: "
      f"{abs(x0_vec @ labels.x_star) / n:.4f}")

traj = se_run(SeConfig(lam=lam, mu=mu, c=c, t_max=101))
out = run_amp(sym_op, b_op, masks, traj, n_iter=100,
              init=init_spectral(x0_vec, u0_vec, masks, traj, p),
              x_star=labels.x_star)

print("\nper-iteration |overlap| (first 10 steps):")
for t in range(10):
    print(f"  t={t:2d}  {abs(out.overlap[t]):.4f}")
print(f"  ...  final (t={out.n_steps}): {abs(out.overlap[-1]):.4f}")

mse = empirical_mse(out.x_hat, labels.x_star)
print(f"\nempirical matrix mse : {mse:.4f}")
print(f"theoretical limit    : {limit_mmse(lam, mu, c):.4f}")
print(f"gap                  : {abs(mse - limit_mmse(lam, mu, c)):.4f}")
