"""Command-line front end.

Three subcommands:

* ``theory``   - tabulate the closed-form limits (fixed point, MMSE limit,
  detectability, mutual-information limit) over a (lambda, mu) grid.
* ``simulate`` - run a Monte-Carlo sweep for one model family and compare
  the empirical errors against the theory column; optional SVG overlay
  plot and instance export.
* ``se-check`` - track the zero-initialized revelation run against the
  per-step state-evolution prediction.

Settings may come from an INI-style config file (one section per
subcommand plus ``[common]``, whose keys apply to every subcommand that
reads them); command-line flags override file values, and the effective
configuration is echoed into the output directory.
Wall-clock times are written to a separate ``timings.csv`` so that every
value-bearing CSV is byte-identical across reruns with the same seed.

Exit codes: 0 success, 1 usage error, 2 runtime or convergence failure.
The default thread count can be set with the ``MVAMP_THREADS`` environment
variable; a value that is not a positive integer is a usage error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path

import numpy as np

from .exceptions import MvampError
from .experiments import ExperimentConfig, draw_instance, run_sweep, se_consistency_check
from .model import write_covariates_csv, write_edge_list, write_labels_csv
from .state_evolution import SeConfig, detection_possible, fixed_point_z, limit_mmse, xi_limit

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via UsageError (exit 1)."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    """CSV cell: reals at 12 significant digits, booleans lowercase."""
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    s = str(x)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """RFC-4180-style CSV: header row, comma separators, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def parse_grid(spec: str, name: str) -> tuple[float, ...]:
    """Grid syntax: comma list "0.5,1,2" or linspace "lo:hi:count"."""
    spec = spec.strip()
    try:
        if ":" in spec:
            lo_s, hi_s, k_s = spec.split(":")
            lo, hi, k = float(lo_s), float(hi_s), int(k_s)
            if k < 1:
                raise ValueError
            return tuple(float(v) for v in np.linspace(lo, hi, k))
        return tuple(float(v) for v in spec.split(",") if v.strip() != "")
    except (ValueError, TypeError):
        raise UsageError(
            f"could not parse {name}={spec!r}; use 'a,b,c' or 'lo:hi:count'") from None


# ----------------------------------------------------------------------
# Config file handling: defaults < file < flags.

def _load_config(path: str | None, section: str) -> tuple[dict[str, str], dict[str, str]]:
    """The ``[common]`` and the subcommand's own section of a config file."""
    if path is None:
        return {}, {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    return tuple(dict(parser.items(sec)) if parser.has_section(sec) else {}
                 for sec in ("common", section))


class Settings:
    """Merged view of defaults, config-file values, and flags."""

    def __init__(self, args: argparse.Namespace, section: str):
        self._args = vars(args)
        self._common, self._own = _load_config(self._args.get("config"), section)
        self._known_keys = set()

    def get(self, key: str, default, cast):
        """Flag if given, else own section, else ``[common]``, else default."""
        self._known_keys.add(key)
        flag = self._args.get(key.replace("-", "_"))
        if flag is not None:
            return flag
        raw = self._own.get(key, self._common.get(key))
        if raw is not None:
            try:
                if cast is bool:
                    if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
                        raise ValueError
                    return raw.lower() in ("true", "1", "yes")
                return cast(raw)
            except (ValueError, TypeError):
                raise UsageError(f"bad value for config key '{key}': {raw!r}") from None
        return default

    def reject_unknown(self):
        """A section key this subcommand does not read, or a ``[common]`` key
        that no subcommand reads, is a usage error."""
        unknown = (set(self._own) - self._known_keys) | (
            set(self._common) - self._args["config_keys"])
        if unknown:
            raise UsageError(f"unknown config key '{sorted(unknown)[0]}'")


def _echo_config(out_dir: Path, section: str, pairs: dict) -> None:
    lines = [f"[{section}]"] + [f"{k} = {v}" for k, v in pairs.items()]
    (out_dir / "config_used.ini").write_text("\n".join(lines) + "\n")


def _out_dir(settings: Settings) -> Path:
    """The output directory; create it only once the inputs are validated,
    so that a usage error leaves nothing behind."""
    return Path(settings.get("out-dir", "mvamp-out", str))


def _threads_default() -> int:
    env = os.environ.get("MVAMP_THREADS", "").strip() or "1"
    if not env.isdecimal() or int(env) < 1:
        raise UsageError(f"MVAMP_THREADS must be a positive integer, got {env!r}")
    return int(env)


# ----------------------------------------------------------------------
# Minimal SVG line plots (axes, polyline, shaded band, points).

def svg_plot(path: Path, x: np.ndarray, theory: np.ndarray, mean: np.ndarray,
             sd: np.ndarray, xlabel: str, title: str) -> None:
    """Theory curve with mean points and a +-sd band, self-contained SVG."""
    W, H, ml, mr, mt, mb = 640, 440, 70, 20, 40, 55
    xs = np.asarray(x, dtype=float)
    lo_x, hi_x = float(xs.min()), float(xs.max())
    if hi_x == lo_x:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    vals = np.concatenate([theory, mean - sd, mean + sd])
    vals = vals[np.isfinite(vals)]
    lo_y, hi_y = (float(vals.min()), float(vals.max())) if vals.size else (0.0, 1.0)
    pad = 0.05 * (hi_y - lo_y + 1e-12)
    lo_y, hi_y = lo_y - pad, hi_y + pad

    def X(v):
        return ml + (v - lo_x) / (hi_x - lo_x) * (W - ml - mr)

    def Y(v):
        return H - mb - (v - lo_y) / (hi_y - lo_y) * (H - mt - mb)

    def poly(xv, yv):
        return " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(xv, yv))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    finite = np.isfinite(mean)
    if finite.any():
        band_x = np.concatenate([xs[finite], xs[finite][::-1]])
        band_y = np.concatenate([(mean + sd)[finite], (mean - sd)[finite][::-1]])
        parts.append(f'<polygon points="{poly(band_x, band_y)}" fill="#9ecae1" '
                     f'fill-opacity="0.45" stroke="none"/>')
    has_theory = np.isfinite(theory)
    parts.append(f'<polyline points="{poly(xs[has_theory], theory[has_theory])}" fill="none" '
                 f'stroke="#d62728" stroke-width="2"/>')
    if finite.any():
        for a, b in zip(xs[finite], mean[finite]):
            parts.append(f'<circle cx="{X(a):.2f}" cy="{Y(b):.2f}" r="3.5" '
                         f'fill="#1f77b4"/>')
    # axes + ticks
    parts.append(f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" stroke="black"/>')
    for tv in np.linspace(lo_x, hi_x, 5):
        parts.append(f'<line x1="{X(tv):.2f}" y1="{H-mb}" x2="{X(tv):.2f}" '
                     f'y2="{H-mb+5}" stroke="black"/>')
        parts.append(f'<text x="{X(tv):.2f}" y="{H-mb+20}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{tv:.3g}</text>')
    for tv in np.linspace(lo_y, hi_y, 5):
        parts.append(f'<line x1="{ml-5}" y1="{Y(tv):.2f}" x2="{ml}" y2="{Y(tv):.2f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{ml-9}" y="{Y(tv)+4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{tv:.3g}</text>')
    parts.append(f'<text x="{(ml+W-mr)/2:.0f}" y="{H-14}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(mt+H-mb)/2:.0f}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif" '
                 f'transform="rotate(-90 18 {(mt+H-mb)/2:.0f})">matrix MSE</text>')
    parts.append(f'<text x="{W-mr-8}" y="{mt+16}" text-anchor="end" font-size="12" '
                 f'font-family="sans-serif" fill="#d62728">theory</text>')
    parts.append(f'<text x="{W-mr-8}" y="{mt+32}" text-anchor="end" font-size="12" '
                 f'font-family="sans-serif" fill="#1f77b4">mean over replicates '
                 f'(band: +-sd)</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ----------------------------------------------------------------------
# Subcommands.

def cmd_theory(args: argparse.Namespace) -> int:
    st = Settings(args, "theory")
    lam_spec = st.get("lambda-grid", None, str)
    mu_spec = st.get("mu-grid", None, str)
    lam_grid = parse_grid(lam_spec, "lambda-grid") if lam_spec else None
    mu_grid = parse_grid(mu_spec, "mu-grid") if mu_spec else None
    c = st.get("c", None, float)
    eps = st.get("eps", 0.0, float)
    out = _out_dir(st)
    st.reject_unknown()
    if lam_grid is None or mu_grid is None or c is None:
        raise UsageError("theory requires --lambda-grid, --mu-grid and --c")
    if c <= 0:
        raise UsageError(f"c must be positive, got {c}")
    if any(v < 0 for v in lam_grid) or any(v < 0 for v in mu_grid):
        raise UsageError("grid values must be nonnegative")
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for lam in lam_grid:
        for mu in mu_grid:
            z = fixed_point_z(SeConfig(lam=lam, mu=mu, c=c, eps=eps))
            rows.append([lam, mu, c, z, limit_mmse(lam, mu, c),
                         detection_possible(lam, mu, c), xi_limit(lam, mu, c)])
    write_csv(out / "theory.csv",
              ["lambda", "mu", "c", "z_star", "limit_mmse", "detectable", "xi"], rows)
    _echo_config(out, "theory", {
        "lambda-grid": ",".join(f"{v:.12g}" for v in lam_grid),
        "mu-grid": ",".join(f"{v:.12g}" for v in mu_grid),
        "c": f"{c:.12g}", "eps": f"{eps:.12g}", "out-dir": out})
    print(f"wrote {out / 'theory.csv'} ({len(rows)} rows)")
    return 0


def _export_instance(cfg: ExperimentConfig, out: Path) -> None:
    """Dump the first grid point's first replicate as portable text files."""
    inst = draw_instance(cfg, 0, 0)
    write_labels_csv(inst.labels, out / "labels.csv")
    write_covariates_csv(inst.covariates, out / "covariates.csv")
    if cfg.family != "gaussian":
        for i, layer in enumerate(inst.network):
            write_edge_list(layer, out / f"layer_{i}_edges.txt")


def cmd_simulate(args: argparse.Namespace) -> int:
    st = Settings(args, "simulate")
    family = st.get("family", "gaussian", str)
    n = st.get("n", 1500, int)
    p = st.get("p", 900, int)
    sweep = st.get("sweep", "lambda", str)
    grid_spec = st.get("grid", "0.5:4.5:9", str)
    fixed = st.get("fixed", 0.9, float)
    replicates = st.get("replicates", 10, int)
    n_iter = st.get("n-iter", 100, int)
    seed = st.get("seed", 0, int)
    init = st.get("init", "spectral", str)
    eps = st.get("eps", 0.0, float)
    m = st.get("m", 1, int)
    r_spec = st.get("r-fractions", "1", str)
    pb_spec = st.get("p-bar-coeffs", "0.7", str)
    se_init = st.get("se-init", "deterministic-z1", str)
    threads = st.get("threads", _threads_default(), int)
    svg = st.get("svg", False, bool)
    export = st.get("export-instance", False, bool)
    out = _out_dir(st)
    st.reject_unknown()

    try:
        cfg = ExperimentConfig(
            family=family, n=n, p=p, sweep_param=sweep,
            grid=parse_grid(grid_spec, "grid"), fixed_value=fixed,
            replicates=replicates, n_iter=n_iter, seed=seed, init=init, eps=eps,
            m=m, r_fractions=parse_grid(r_spec, "r-fractions"),
            p_bar_coeffs=parse_grid(pb_spec, "p-bar-coeffs"),
            se_init_mode=se_init, threads=threads)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out.mkdir(parents=True, exist_ok=True)

    aggs = run_sweep(cfg)
    header = ["family", "n", "p", "lambda", "mu", "c", "replicates", "theory_mmse",
              "mean_mse", "sd_mse", "min_mse", "max_mse", "mean_overlap", "errors"]
    rows = [[a.family, a.n, a.p, a.lam, a.mu, a.c, a.replicates, a.theory_mmse,
             a.mean_mse, a.sd_mse, a.min_mse, a.max_mse, a.mean_overlap,
             ";".join(a.errors)] for a in aggs]
    write_csv(out / "results.csv", header, rows)
    write_csv(out / "timings.csv", ["lambda", "mu", "wall_time_s"],
              [[a.lam, a.mu, a.wall_time_s] for a in aggs])

    if svg:
        x = np.array([a.lam if sweep == "lambda" else a.mu for a in aggs])
        svg_plot(out / "plot.svg", x,
                 np.array([a.theory_mmse for a in aggs]),
                 np.array([a.mean_mse for a in aggs]),
                 np.array([0.0 if np.isnan(a.sd_mse) else a.sd_mse for a in aggs]),
                 xlabel=sweep,
                 title=f"{family}: empirical vs theoretical matrix MSE")
    if export:
        _export_instance(cfg, out)

    _echo_config(out, "simulate", {
        "family": family, "n": n, "p": p, "sweep": sweep,
        "grid": ",".join(f"{v:.12g}" for v in cfg.grid), "fixed": f"{fixed:.12g}",
        "replicates": replicates, "n-iter": n_iter, "seed": seed, "init": init,
        "eps": f"{eps:.12g}", "m": m,
        "r-fractions": ",".join(f"{v:.12g}" for v in cfg.r_fractions),
        "p-bar-coeffs": ",".join(f"{v:.12g}" for v in cfg.p_bar_coeffs),
        "se-init": se_init, "threads": threads, "out-dir": out})
    n_err = sum(len(a.errors) for a in aggs)
    print(f"wrote {out / 'results.csv'} ({len(rows)} grid points, "
          f"{n_err} errors recorded)")
    return 2 if n_err else 0


def cmd_se_check(args: argparse.Namespace) -> int:
    st = Settings(args, "se-check")
    lam = st.get("lambda", 2.0, float)
    mu = st.get("mu", 1.0, float)
    c = st.get("c", 1.0, float)
    eps = st.get("eps", 0.1, float)
    n = st.get("n", 4000, int)
    t_max = st.get("t-max", 10, int)
    replicates = st.get("replicates", 10, int)
    seed = st.get("seed", 0, int)
    threads = st.get("threads", _threads_default(), int)
    out = _out_dir(st)
    st.reject_unknown()
    if not 0.0 < eps <= 1.0:
        raise UsageError(f"se-check requires eps in (0, 1], got {eps}")

    try:
        report = se_consistency_check(lam=lam, mu=mu, c=c, eps=eps, n=n, t_max=t_max,
                                      replicates=replicates, seed=seed, threads=threads)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out.mkdir(parents=True, exist_ok=True)
    rows = [[int(t), zt, ov, gap] for t, zt, ov, gap in
            zip(report.t, report.z_theory, report.mean_overlap, report.abs_gap)]
    write_csv(out / "se_check.csv",
              ["t", "z_t_theory", "mean_overlap_empirical", "abs_gap"], rows)
    _echo_config(out, "se-check", {
        "lambda": f"{lam:.12g}", "mu": f"{mu:.12g}", "c": f"{c:.12g}",
        "eps": f"{eps:.12g}", "n": n, "t-max": t_max, "replicates": replicates,
        "seed": seed, "threads": threads, "out-dir": out})
    print(f"wrote {out / 'se_check.csv'} (max gap {report.abs_gap.max():.4g})")
    return 0


# ----------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="mvamp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="{theory,simulate,se-check}")

    def common(sp, seeded=True):
        sp.add_argument("--config", help="INI config file; flags override its values")
        sp.add_argument("--out-dir", help="output directory (default mvamp-out)")
        if seeded:
            sp.add_argument("--seed", type=int, help="root seed (default 0)")
            sp.add_argument("--threads", type=int,
                            help="worker threads (default: MVAMP_THREADS or 1)")

    th = sub.add_parser("theory", help="tabulate closed-form limits over a grid")
    th.add_argument("--lambda-grid",
                    help="network strengths: 'a,b,c' or 'lo:hi:count' (required)")
    th.add_argument("--mu-grid", help="covariate strengths: same syntax (required)")
    th.add_argument("--c", type=float, help="subjects-per-feature ratio n/p (required)")
    th.add_argument("--eps", type=float, help="revelation fraction for z_star (default 0)")
    common(th, seeded=False)
    th.set_defaults(func=cmd_theory)

    si = sub.add_parser("simulate", help="Monte-Carlo sweep for one model family")
    si.add_argument("--family", choices=["gaussian", "contextual-sbm", "multilayer"],
                    help="model family (default gaussian)")
    si.add_argument("--n", type=int, help="number of subjects (default 1500)")
    si.add_argument("--p", type=int, help="number of covariates (default 900)")
    si.add_argument("--sweep", choices=["lambda", "mu"],
                    help="which parameter varies (default lambda)")
    si.add_argument("--grid", help="swept values: 'a,b,c' or 'lo:hi:count' "
                                   "(default 0.5:4.5:9)")
    si.add_argument("--fixed", type=float,
                    help="the held-fixed parameter value (default 0.9)")
    si.add_argument("--replicates", type=int, help="replicates per point (default 10)")
    si.add_argument("--n-iter", type=int, help="iterations per replicate (default 100)")
    si.add_argument("--init", choices=["spectral", "revelation"],
                    help="initialization (default spectral)")
    si.add_argument("--eps", type=float,
                    help="revelation fraction for revelation init (default 0)")
    si.add_argument("--m", type=int, help="number of network layers (default 1)")
    si.add_argument("--r-fractions",
                    help="per-layer strength fractions, summing to 1 (default 1)")
    si.add_argument("--p-bar-coeffs",
                    help="per-layer density coefficients k: p_bar=k/sqrt(n) (default 0.7)")
    si.add_argument("--se-init", choices=["deterministic-z1", "random-interval"],
                    help="denoiser-schedule seeding (default deterministic-z1)")
    si.add_argument("--svg", action="store_const", const=True,
                    help="also write an overlay plot (plot.svg)")
    si.add_argument("--export-instance", action="store_const", const=True,
                    help="dump the first replicate's instance (labels.csv, "
                         "covariates.csv, layer_i_edges.txt)")
    common(si)
    si.set_defaults(func=cmd_simulate)

    se = sub.add_parser("se-check", help="empirical overlap vs state evolution per step")
    se.add_argument("--lambda", type=float, dest="lambda",
                    help="network strength (default 2)")
    se.add_argument("--mu", type=float, help="covariate strength (default 1)")
    se.add_argument("--c", type=float, help="subjects-per-feature ratio (default 1)")
    se.add_argument("--eps", type=float,
                    help="revelation fraction, must be > 0 (default 0.1)")
    se.add_argument("--n", type=int, help="number of subjects (default 4000)")
    se.add_argument("--t-max", type=int, help="steps to track (default 10)")
    se.add_argument("--replicates", type=int, help="replicates (default 10)")
    common(se)
    se.set_defaults(func=cmd_se_check)

    # A [common] config key is valid when some subcommand has that flag.
    keys = {action.dest.replace("_", "-") for sp in (th, si, se) for action in sp._actions}
    parser.set_defaults(config_keys=keys - {"config", "help"})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required: theory, simulate, or se-check")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MvampError as exc:
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
