"""Command-line front end.

Three subcommands:

* ``theory``   - tabulate the closed-form limits (fixed point, MMSE limit,
  detectability, mutual-information limit) over a (lambda, mu) grid, all
  at eps = 0 (nothing revealed), as the paper states them.
* ``simulate`` - run a Monte-Carlo sweep for one model family and compare
  the empirical errors against the theory column; optional SVG overlay
  plot and instance export.
* ``se-check`` - track the zero-initialized revelation run against the
  per-step state-evolution prediction.

Each subcommand declares its settings once, in a table of :class:`Opt`
entries; the table gives the flags, the ``--help`` defaults, the config
keys and the echo.  Settings may come from an INI-style config file (one
section per subcommand plus ``[common]``, whose keys apply to every
subcommand that reads them); command-line flags override file values.
Range checks are the library's: the configuration objects are built
before the output directory is created, so a usage error leaves nothing
behind.  The effective configuration is echoed to ``config_used.ini`` in
the output directory, with reals in shortest round-trip form, so that
``--config <out>/config_used.ini`` replays the run.
Wall-clock times, with the iteration steps each grid point took, are
written to a separate ``timings.csv`` so that every value-bearing CSV is
byte-identical across reruns with the same seed.

Exit codes: 0 success, 1 usage error, 2 runtime or convergence failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .exceptions import MvampError
from .experiments import (FAMILIES, SWEEP_PARAMS, ExperimentConfig, draw_instance,
                          run_se_check, run_sweep, se_check_config)
from .model import write_covariates_csv, write_edge_list, write_labels_csv
from .state_evolution import SeConfig, detection_possible, theory_limits

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


def parse_grid(spec: str, name: str = "grid") -> tuple[float, ...]:
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


def _bool(text: str) -> bool:
    """Config-file boolean: true/false, yes/no or 1/0, any case."""
    low = text.lower()
    if low not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError(text)
    return low in ("true", "1", "yes")


def _text(value) -> str:
    """Config-file form of a value that parses back to it exactly: reals in
    shortest round-trip form, tuples comma-joined, booleans lowercase."""
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


# ----------------------------------------------------------------------
# Settings: flag > own config section > [common] > default.

@dataclass(frozen=True)
class Opt:
    """One setting: its flag and config key, the parser of its text form,
    its default as text (None: required), help text and allowed values
    (argparse checks them on flags, the library on config-file values)."""

    key: str
    parse: Callable[[str], Any]
    default: str | None
    help: str
    choices: tuple[str, ...] | None = None


def _field_default(name: str) -> str:
    """Text form of an ``ExperimentConfig`` field's default: the one copy of
    every ``simulate`` default that the library also has."""
    return _text(getattr(ExperimentConfig, name))


OUT_DIR = Opt("out-dir", Path, "mvamp-out", "output directory")
SEED = Opt("seed", int, _field_default("seed"), "root seed")
THREADS = Opt("threads", int, _field_default("threads"), "worker threads")

TABLES = {
    "theory": (
        Opt("lambda-grid", parse_grid, None, "network strengths: 'a,b,c' or 'lo:hi:count'"),
        Opt("mu-grid", parse_grid, None, "covariate strengths: same syntax"),
        Opt("c", float, None, "subjects-per-feature ratio n/p"),
        OUT_DIR),
    "simulate": (
        Opt("family", str, "gaussian", "model family", FAMILIES),
        Opt("n", int, "1500", "number of subjects"),
        Opt("p", int, "900", "number of covariates"),
        Opt("sweep", str, "lambda", "which parameter varies", SWEEP_PARAMS),
        Opt("grid", parse_grid, "0.5:4.5:9", "swept values: 'a,b,c' or 'lo:hi:count'"),
        Opt("fixed", float, "0.9", "the held-fixed parameter value"),
        Opt("replicates", int, _field_default("replicates"), "replicates per point"),
        Opt("n-iter", int, _field_default("n_iter"),
            "iteration cap per replicate (see stop-tol)"),
        Opt("stop-tol", float, _field_default("stop_tol"),
            "stop a replicate once 1 - s^2, its label-free MSE estimate "
            "(s = <q, q>/n), has moved by less than this over each of two "
            "consecutive steps; below about 3e-8 (float32 round-off) it may "
            "never fire; 0 runs all n-iter steps"),
        Opt("eps", float, _field_default("eps"), "revelation fraction in [0, 1]: 0 runs "
            "the spectral start; > 0 starts from zero iterates with that fraction revealed"),
        Opt("r-fractions", parse_grid, _field_default("r_fractions"),
            "per-layer strength fractions, summing to 1; one per network layer"),
        Opt("p-bar-coeffs", parse_grid, _field_default("p_bar_coeffs"),
            "per-layer density coefficients k: p_bar=k/sqrt(n)"),
        Opt("svg", _bool, "false", "also write an overlay plot (plot.svg)"),
        Opt("export-instance", _bool, "false", "dump the first replicate's instance "
            "(labels.csv, covariates.csv, layer_i_edges.txt)"),
        SEED, THREADS, OUT_DIR),
    "se-check": (
        Opt("lambda", float, "2", "network strength"),
        Opt("mu", float, "1", "covariate strength"),
        Opt("c", float, "1", "subjects-per-feature ratio"),
        Opt("eps", float, "0.1", "revelation fraction, must be > 0"),
        Opt("n", int, "4000", "number of subjects"),
        Opt("t-max", int, "10", "steps to track"),
        Opt("replicates", int, "10", "replicates"),
        SEED, THREADS, OUT_DIR),
}


def _settings(args: argparse.Namespace) -> dict[str, Any]:
    """The value of every key of the subcommand's table; an unknown key in
    its config section, or in ``[common]`` one that no subcommand reads, is
    a usage error."""
    table = TABLES[args.command]
    own, common = {}, {}
    if args.config is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            if not parser.read(args.config):
                raise UsageError(f"config file not found: {args.config}")
        except configparser.Error as exc:
            raise UsageError(f"malformed config file {args.config}: {exc}") from None
        own, common = (dict(parser.items(sec)) if parser.has_section(sec) else {}
                       for sec in (args.command, "common"))
    unknown = ((set(own) - {opt.key for opt in table})
               | (set(common) - {opt.key for t in TABLES.values() for opt in t}))
    if unknown:
        raise UsageError(f"unknown config key '{sorted(unknown)[0]}'")
    flags = vars(args)
    values = {}
    for opt in table:
        text = next((t for t in (flags[opt.key], own.get(opt.key), common.get(opt.key),
                                 opt.default) if t is not None), None)
        try:
            values[opt.key] = None if text is None else opt.parse(text)
        except (ValueError, UsageError):
            raise UsageError(f"bad value for '{opt.key}': {text!r} ({opt.help})") from None
    return values


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
# Subcommands: each builds its library objects, and with them all range
# checks, before it creates the output directory.

def _checked(build, **kwargs):
    """``build(**kwargs)``, with a ValueError of the library's argument
    checks reported as a usage error."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_theory(s: dict[str, Any]) -> int:
    lam_grid, mu_grid, c = s["lambda-grid"], s["mu-grid"], s["c"]
    if not lam_grid or not mu_grid or c is None:
        raise UsageError("theory requires --lambda-grid, --mu-grid and --c")
    cfgs = [_checked(SeConfig, lam=lam, mu=mu, c=c)
            for lam in lam_grid for mu in mu_grid]
    out = s["out-dir"]
    out.mkdir(parents=True, exist_ok=True)

    rows, failed = [], 0
    for f in cfgs:
        try:
            z_star, mmse, xi = theory_limits(f.lam, f.mu, c)
        except MvampError as exc:
            z_star = mmse = xi = np.nan
            failed += 1
            print(f"failure at lambda={f.lam!r}, mu={f.mu!r}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        rows.append([f.lam, f.mu, c, z_star, mmse, detection_possible(f.lam, f.mu, c), xi])
    write_csv(out / "theory.csv",
              ["lambda", "mu", "c", "z_star", "limit_mmse", "detectable", "xi"], rows)
    print(f"wrote {out / 'theory.csv'} ({len(rows)} rows)")
    return 2 if failed else 0


def _export_instance(cfg: ExperimentConfig, out: Path) -> None:
    """Dump the first grid point's first replicate as portable text files."""
    inst = draw_instance(cfg, 0, 0)
    write_labels_csv(inst.labels, out / "labels.csv")
    write_covariates_csv(inst.covariates, out / "covariates.csv")
    if cfg.family != "gaussian":
        for i, layer in enumerate(inst.network):
            write_edge_list(layer, out / f"layer_{i}_edges.txt")


def cmd_simulate(s: dict[str, Any]) -> int:
    cfg = _checked(
        ExperimentConfig, family=s["family"], n=s["n"], p=s["p"], sweep_param=s["sweep"],
        grid=s["grid"], fixed_value=s["fixed"], replicates=s["replicates"],
        n_iter=s["n-iter"], stop_tol=s["stop-tol"], seed=s["seed"], eps=s["eps"],
        m=len(s["r-fractions"]), r_fractions=s["r-fractions"], p_bar_coeffs=s["p-bar-coeffs"],
        threads=s["threads"])
    out = s["out-dir"]
    out.mkdir(parents=True, exist_ok=True)

    aggs = run_sweep(cfg)
    header = ["family", "n", "p", "lambda", "mu", "c", "replicates", "theory_mmse",
              "mean_mse", "sd_mse", "min_mse", "max_mse", "mean_overlap", "errors"]
    rows = [[a.family, a.n, a.p, a.lam, a.mu, a.c, a.replicates, a.theory_mmse,
             a.mean_mse, a.sd_mse, a.min_mse, a.max_mse, a.mean_overlap,
             ";".join(a.errors)] for a in aggs]
    write_csv(out / "results.csv", header, rows)
    write_csv(out / "timings.csv",
              ["lambda", "mu", "wall_time_s", "mean_amp_steps", "capped_replicates"],
              [[a.lam, a.mu, a.wall_time_s, a.mean_steps, a.capped] for a in aggs])

    if s["svg"]:
        x = np.array([a.lam if cfg.sweep_param == "lambda" else a.mu for a in aggs])
        svg_plot(out / "plot.svg", x,
                 np.array([a.theory_mmse for a in aggs]),
                 np.array([a.mean_mse for a in aggs]),
                 np.array([0.0 if np.isnan(a.sd_mse) else a.sd_mse for a in aggs]),
                 xlabel=cfg.sweep_param,
                 title=f"{cfg.family}: empirical vs theoretical matrix MSE")
    if s["export-instance"]:
        _export_instance(cfg, out)

    n_err = sum(len(a.errors) for a in aggs)
    print(f"wrote {out / 'results.csv'} ({len(rows)} grid points, "
          f"{n_err} errors recorded)")
    return 2 if n_err else 0


def cmd_se_check(s: dict[str, Any]) -> int:
    cfg = _checked(
        se_check_config, lam=s["lambda"], mu=s["mu"], c=s["c"], eps=s["eps"],
        n=s["n"], t_max=s["t-max"], replicates=s["replicates"], seed=s["seed"],
        threads=s["threads"])
    out = s["out-dir"]
    out.mkdir(parents=True, exist_ok=True)

    report = run_se_check(cfg)
    rows = [[int(t), zt, ov, gap] for t, zt, ov, gap in
            zip(report.t, report.z_theory, report.mean_overlap, report.abs_gap)]
    write_csv(out / "se_check.csv",
              ["t", "z_t_theory", "mean_overlap_empirical", "abs_gap"], rows)
    print(f"wrote {out / 'se_check.csv'} (max gap {report.abs_gap.max():.4g})")
    return 0


COMMANDS = {
    "theory": (cmd_theory, "tabulate closed-form limits over a grid"),
    "simulate": (cmd_simulate, "Monte-Carlo sweep for one model family"),
    "se-check": (cmd_se_check, "empirical overlap vs state evolution per step"),
}


# ----------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="mvamp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="{theory,simulate,se-check}")
    for name, (_, summary) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="INI config file; flags override its values")
        for opt in TABLES[name]:
            shown = "required" if opt.default is None else f"default {opt.default}"
            desc = f"{opt.help} ({shown})"
            if opt.parse is _bool:
                sp.add_argument("--" + opt.key, dest=opt.key, action="store_const",
                                const="true", help=desc)
            else:
                sp.add_argument("--" + opt.key, dest=opt.key, choices=opt.choices, help=desc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required: theory, simulate, or se-check")
        settings = _settings(args)
        code = COMMANDS[args.command][0](settings)
        (settings["out-dir"] / "config_used.ini").write_text("".join(
            [f"[{args.command}]\n"] + [f"{k} = {_text(v)}\n" for k, v in settings.items()]))
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MvampError, ValueError) as exc:
        # Arguments were checked before the run (as usage errors), so a
        # ValueError that gets here was raised by the run itself.
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
