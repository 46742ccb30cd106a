"""The two workloads, the hooks that trace them, and their output checks.

Each workload hands out rounds of items.  Round k is a pure function of
(workload seed, k), so the same seed gives the same inputs.  An item is one
replicate for ``sweeps`` (``run_sweep`` over one grid point with one
replicate) and one grid row for ``theory-grid`` (the four calls
``mvamp theory`` makes for one (lambda, mu) pair).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import mvamp.state_evolution as se
from mvamp import ExperimentConfig, MvampError, run_sweep
from report import Outcome
from tracer import Hook

#: c = n / p of the README theory grid.
THEORY_C = 5.0 / 3.0

#: |z - G(z)| allowed for a theory row that returned a value.
FIXED_POINT_RESIDUAL = 1e-10

#: Replicates a sweep grid value is judged on when its run's own mean
#: misses the tolerance (see Sweep.check).
POOLED_REPLICATES = 30


def _item_seed(seed: int, k: int, j: int) -> int:
    """Root seed of item j of round k: every replicate is an independent instance."""
    return int(np.random.SeedSequence((seed, k, j)).generate_state(1)[0])


class Sweep:
    """Closed loop over one-replicate sweeps: one item per grid point per
    round, where the grid points of several model families run in turn."""

    item_span = "experiments.replicate"

    #: A run of 45 s has about 7 rounds, 49 items; at least 40 lie below
    #: the 75th percentile and 10 beyond it.
    tail_q = 0.75

    def __init__(self, *families):
        """``families``: (tolerance, lambdas, ExperimentConfig fields) each."""
        self.points = [(tol, ExperimentConfig(sweep_param="lambda", grid=(lam,), replicates=1,
                                              **config))
                       for tol, lambdas, config in families for lam in lambdas]

    def round(self, seed: int, k: int) -> list[ExperimentConfig]:
        return [replace(cfg, seed=_item_seed(seed, k, j))
                for j, (_, cfg) in enumerate(self.points)]

    def run(self, cfg: ExperimentConfig) -> Outcome:
        try:
            agg = run_sweep(cfg)[0]
        except MvampError as exc:
            return Outcome((cfg.grid[0], type(exc).__name__), f"{type(exc).__name__}: {exc}")
        values = (agg.lam, agg.mu, agg.theory_mmse, agg.mean_mse, agg.mean_overlap,
                  tuple(agg.errors))
        return Outcome(values, "; ".join(agg.errors) or None)

    def check(self, outcomes, seed: int, next_round: int) -> list[str]:
        """Per grid point, the mean MSE over the run's replicates must lie
        within its family's acceptance tolerance of the theoretical limit.
        ``outcomes`` are whole rounds, in order.

        The check has two stages.  A grid point whose mean misses the
        tolerance gets further replicates (untimed, from the rounds after
        the run's last) up to POOLED_REPLICATES in all, and at least as many
        again, and is judged on the pooled mean.  At dense lambda=1.5 the
        per-replicate MSE has sd 0.053 and a +0.009 finite-n gap, so the 6
        to 8 replicates of a 45 s run miss 0.05 by chance about 1 time in
        40, and a pooled mean of 30 under 1 time in 10^5; an estimator
        biased by more than the tolerance still fails both.
        """
        problems = []
        for j, (tol, cfg) in enumerate(self.points):
            name = f"{cfg.family} lambda={cfg.grid[0]}"
            ok = [o.values for o in outcomes[j::len(self.points)] if not o.failed]
            if not ok:
                problems.append(f"{name}: no replicate succeeded")
                continue
            theory = ok[0][2]
            mses = [v[3] for v in ok]
            if abs(np.mean(mses) - theory) > tol:
                more = max(len(ok), POOLED_REPLICATES - len(ok))
                extra = [self.run(self.round(seed, next_round + i)[j]) for i in range(more)]
                mses += [o.values[3] for o in extra if not o.failed]
            mean_mse = float(np.mean(mses))
            if not abs(mean_mse - theory) <= tol:
                problems.append(f"{name}: |mean mse {mean_mse:.4f} - theory "
                                f"{theory:.4f}| > {tol} over {len(mses)} replicates")
        return problems


class TheoryGrid:
    """Closed loop over theory rows; every round is the same 105 rows in a
    seed-dependent order."""

    item_span = "bench.row"

    #: The 24 failing rows of each round are its slowest 23%.  A run of 45 s
    #: has about 15 rounds, 1500 rows, and 15 of them beyond the 99th
    #: percentile; 1000 rows give the 10 needed.
    tail_q = 0.99

    def __init__(self):
        readme = [(float(lam), mu) for lam in np.linspace(0.5, 4.5, 25)
                  for mu in (0.5, 0.7, 0.9)]
        band = [(1.0 - mu * mu / THEORY_C + float(d), mu) for mu in (0.5, 0.7, 0.9)
                for d in np.logspace(-10, -1, 10)]
        self.rows = readme + band

    def round(self, seed: int, k: int) -> list[tuple[float, float]]:
        order = np.random.default_rng((seed, k)).permutation(len(self.rows))
        return [self.rows[i] for i in order]

    def run(self, row: tuple[float, float]) -> Outcome:
        lam, mu = row
        c = THEORY_C
        try:
            z = se.fixed_point_z(se.SeConfig(lam=lam, mu=mu, c=c))
            values = (lam, mu, z, se.limit_mmse(lam, mu, c),
                      se.detection_possible(lam, mu, c), se.xi_limit(lam, mu, c))
        except MvampError as exc:
            return Outcome((lam, mu, type(exc).__name__), f"{type(exc).__name__}: {exc}")
        return Outcome(values)

    def check(self, outcomes, seed: int, next_round: int) -> list[str]:
        """Every row that returned a value holds a fixed point in [0, 1] whose
        detectability agrees with z > 0."""
        problems = []
        for o in outcomes:
            if o.failed:
                continue
            lam, mu, z, _, detectable, _ = o.values
            if not 0.0 <= z <= 1.0:
                problems.append(f"({lam}, {mu}): z={z} outside [0, 1]")
                continue
            residual = abs(z - se.se_scalar_step(z, se.SeConfig(lam=lam, mu=mu, c=THEORY_C)))
            if residual > FIXED_POINT_RESIDUAL:
                problems.append(f"({lam}, {mu}): |z - G(z)| = {residual:.2e}")
            if detectable != (z > 0.0):
                problems.append(f"({lam}, {mu}): detectable={detectable} but z={z}")
        return problems


WORKLOADS = {
    # The multilayer replicates set peak RSS.  Run first in a round, the
    # first of them meets a fresh heap in every run.  Run after the
    # gaussian replicates, they partly reused freed heap, and peak RSS
    # moved by 8% from seed to seed.
    "sweeps": Sweep(
        (0.07, (2.0, 4.0),
         dict(family="multilayer", n=2000, p=3000, fixed_value=0.9, n_iter=100,
              m=3, r_fractions=(0.6, 0.2, 0.2), p_bar_coeffs=(0.7, 0.4, 0.3))),
        (0.05, (0.5, 1.5, 2.5, 3.5, 4.5),
         dict(family="gaussian", n=1500, p=900, fixed_value=0.9, n_iter=100))),
    "theory-grid": TheoryGrid(),
}


def _edges(result) -> int:
    """Stored vertex pairs of a sampled network (dense surrogate: all pairs)."""
    if hasattr(result, "adjacency"):
        return int(result.adjacency.nnz // 2)
    n = result.T.shape[0]
    return n * (n - 1) // 2


_EXP = "mvamp.experiments:"
_SE = "mvamp.state_evolution:"
_LA = "mvamp.linalg:"

HOOKS = [
    Hook(_EXP + "sample_labels", "model.labels"),
    Hook(_EXP + "sample_covariates", "model.covariates", peak=True),
    Hook(_EXP + "sample_gaussian_surrogate", "model.network", peak=True, work=_edges),
    Hook(_EXP + "sample_sbm_layer", "model.network", peak=True, work=_edges),
    Hook(_EXP + "sample_revelation", "model.revelation"),
    Hook(_EXP + "DenseSymmetricOperator", "linalg.build"),
    Hook(_EXP + "RectOperator", "linalg.build"),
    Hook(_EXP + "center_scale_layer", "linalg.build"),
    Hook(_EXP + "combine_layers", "linalg.build"),
    Hook(_EXP + "se_run", "state_evolution.schedule"),
    Hook(_EXP + "solve_a0", "amp.solve_a0"),
    Hook(_EXP + "spectral_initialize", "amp.spectral"),
    Hook(_EXP + "run_amp", "amp.iterate", work=lambda run: run.n_steps),
    Hook(_EXP + "limit_mmse", "experiments.theory_column"),
    Hook(_SE + "fixed_point_z", "state_evolution.theory",
         count="state_evolution.fixed_point_calls"),
    Hook(_SE + "limit_mmse", "state_evolution.theory"),
    Hook(_SE + "detection_possible", "state_evolution.theory"),
    Hook(_SE + "xi_limit", "state_evolution.theory"),
    Hook(_SE + "scalar_mmse", "scalar_channel.mmse"),
    Hook(_SE + "scalar_mi", "scalar_channel.mi"),
    Hook(_LA + "DenseSymmetricOperator.matvec", "linalg.product"),
    Hook(_LA + "SparseCenteredOperator.matvec", "linalg.product"),
    Hook(_LA + "WeightedSumOperator.matvec", "linalg.product"),
    Hook(_LA + "ComposedSpectralOperator.matvec", "linalg.product"),
    Hook(_LA + "RectOperator.apply", "linalg.product"),
    Hook(_LA + "RectOperator.apply_t", "linalg.product"),
]

#: Spans that run_sweep's replicate calls directly; experiments.self_s is
#: the replicate time none of them covers.
REPLICATE_CHILDREN = sorted({h.span for h in HOOKS if h.target.startswith(_EXP)})

MIB = 2.0 ** 20


def _per_item(key):
    return lambda t, r0, n, n0: t.get(key, 0.0) / n


def _round0(key):
    return lambda t, r0, n, n0: r0.get(key, 0.0)


def _ratio(num, den, scale=1.0):
    return lambda t, r0, n, n0: scale * t.get(num, 0.0) / t[den] if t.get(den) else 0.0


def _peak_mib(span):
    return lambda t, r0, n, n0: t.get(span + ".peak_max", 0.0) / MIB


#: Per-layer metrics: (name, unit, spans it reads, value from (totals,
#: round-0 totals, items, round-0 items)).  Times are per item over the
#: traced half; counts are totals over round 0, which the seed fixes, so
#: they repeat exactly.
LAYER_METRICS = [
    ("model.network_s", "s", ["model.network"], _per_item("model.network.time")),
    ("model.network_peak_mib", "MiB", ["model.network"], _peak_mib("model.network")),
    ("model.edges", "count", ["model.network"], _round0("model.network.work")),
    ("model.network_peak_bytes_per_edge", "bytes", ["model.network"],
     _ratio("model.network.peak_sum", "model.network.work")),
    ("model.covariates_s", "s", ["model.covariates"], _per_item("model.covariates.time")),
    ("model.covariates_peak_mib", "MiB", ["model.covariates"],
     _peak_mib("model.covariates")),
    ("linalg.build_s", "s", ["linalg.build"], _per_item("linalg.build.time")),
    ("linalg.matvec_s", "s", ["linalg.product"], _per_item("linalg.product.time")),
    ("amp.spectral_s", "s", ["amp.spectral"], _per_item("amp.spectral.time")),
    ("amp.spectral_matvecs", "count", ["amp.spectral", "linalg.product"],
     _round0("linalg.product<amp.spectral.calls")),
    ("amp.iterate_s", "s", ["amp.iterate"], _per_item("amp.iterate.time")),
    ("amp.iterate_steps", "count", ["amp.iterate"], _round0("amp.iterate.work")),
    ("amp.iterate_ms_per_step", "ms", ["amp.iterate"],
     _ratio("amp.iterate.time", "amp.iterate.work", 1e3)),
    ("state_evolution.schedule_s", "s", ["state_evolution.schedule"],
     _per_item("state_evolution.schedule.time")),
    ("state_evolution.theory_s", "s", ["state_evolution.theory"],
     _per_item("state_evolution.theory.time")),
    ("state_evolution.fixed_point_calls", "count", ["state_evolution.fixed_point_calls"],
     _round0("state_evolution.fixed_point_calls")),
    ("scalar_channel.mmse_calls", "count", ["scalar_channel.mmse"],
     _round0("scalar_channel.mmse.calls")),
    ("scalar_channel.mi_calls", "count", ["scalar_channel.mi"],
     _round0("scalar_channel.mi.calls")),
    ("scalar_channel.mmse_s", "s", ["scalar_channel.mmse"],
     _per_item("scalar_channel.mmse.time")),
    ("scalar_channel.mmse_calls_per_row", "count", ["scalar_channel.mmse"],
     lambda t, r0, n, n0: r0.get("scalar_channel.mmse.calls", 0.0) / n0),
    ("experiments.replicate_s", "s", [], _per_item("experiments.replicate.time")),
    ("experiments.self_s", "s", REPLICATE_CHILDREN,
     _per_item("experiments.replicate.self")),
    ("experiments.theory_column_s", "s", ["experiments.theory_column"],
     _per_item("experiments.theory_column.time")),
]
