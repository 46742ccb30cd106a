"""Per-step tracking of the iteration by its scalar state evolution.

With zero initial iterates and a fraction eps of coordinates revealed,
the overlap of the denoised labels after every step is predicted by a
one-dimensional recursion.  This run prints the empirical mean against
the prediction and their gap; at n = 3000 the two agree to a few in the
third decimal.
"""

from mvamp.experiments import run_se_check, se_check_config

lam, mu, c, eps = 2.0, 1.0, 1.0, 0.1
print(f"lam={lam}, mu={mu}, c={c}, revelation fraction eps={eps}\n")

report = run_se_check(se_check_config(lam=lam, mu=mu, c=c, eps=eps, n=3000, t_max=10,
                                      replicates=5, seed=31))

print(f"{'t':>3} {'predicted z_t':>14} {'empirical':>12} {'gap':>10}")
for t, zt, ov, gap in zip(report.t, report.z_theory, report.mean_overlap,
                          report.abs_gap):
    print(f"{t:3d} {zt:14.5f} {ov:12.5f} {gap:10.5f}")

print(f"\nmax gap: {report.abs_gap.max():.5f}")
print("the recursion starts at eps (only the revealed coordinates carry")
print("signal) and climbs to its fixed point within a handful of steps")
