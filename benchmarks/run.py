"""mvamp benchmark: one workload, timed end to end or traced per module.

    python3 benchmarks/run.py --workload sweeps --seed 42 --seconds 45 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads (see README.md in this directory for why each was chosen):

* ``sweeps``       one replicate per grid point per round: the multilayer
                   family (n=2000, p=3000, m=3, mu=0.9, lambda in {2, 4}),
                   then the gaussian family (n=1500, p=900, mu=0.9, lambda
                   in {0.5, 1.5, 2.5, 3.5, 4.5}, spectral start)
* ``theory-grid``  105 rows of ``mvamp theory``: the README grid plus a
                   band just above the detection threshold

Each workload is a closed loop with one caller: an item starts when the
previous one ends, and rounds of items run until the next round would
overrun ``--seconds``, and at least until the workload's tail percentile
has enough samples beyond it.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every round twice, once with the module hooks installed
and once without, and prints the per-layer metrics.  Both modes check the
outputs, run round 0 again untimed and compare digests of its outputs, and
print as their last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from report import (TAIL_BEYOND, Outcome, count_failed, digest, environment,
                    failure_kinds, samples_beyond, tail_latency)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters started to time ``import mvamp``; the median is setup_s.
SETUP_SPAWNS = 15


@dataclass
class Phase:
    """Items run back to back, with their latencies and outcomes."""

    outcomes: list[Outcome] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    round_rates: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def throughput(self) -> float:
        """Median over rounds of the items completed per second of the
        round's timed work.

        Every round holds one item per grid value or row, the slow
        lambda=0.5 spectral starts included, so a change to any of them
        moves every round's rate.  The median sets aside the rounds that
        drew a rare multi-second start or a stall of the machine; ``wall_s``
        in the details gives the rate over all items.
        """
        return statistics.median(self.round_rates)

    def run_round(self, workload, items, tracer=None) -> None:
        """Run one round's items one after another, timing each."""
        if tracer is not None:
            tracer.install()
        try:
            for item in items:
                t0 = time.perf_counter()
                if tracer is None:
                    outcome = workload.run(item)
                else:
                    outcome = tracer.call(workload.item_span, workload.run, item)
                self.latencies.append(time.perf_counter() - t0)
                self.outcomes.append(outcome)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.round_rates.append(len(items) / sum(self.latencies[-len(items):]))


def run_rounds(workload, seed: int, seconds: float, tracer=None):
    """Run whole rounds 0, 1, ... until the next round is expected to end
    after ``seconds``, and at least until the tail rule has enough samples.

    Without a tracer, returns one phase.  With one, each round runs twice,
    untraced and traced, alternating which goes first, and the result is
    (untraced phase, traced phase, tracer totals after traced round 0).
    """
    untraced, traced, round0 = Phase(), Phase(), None
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = samples_beyond(len(untraced.latencies), workload.tail_q) >= TAIL_BEYOND
        if k and enough and elapsed * (k + 1) / k > seconds:
            break
        items = workload.round(seed, k)
        if tracer is None:
            untraced.run_round(workload, items)
        else:
            order = [(untraced, None), (traced, tracer)]
            for phase, tr in order[::-1] if k % 2 else order:
                phase.run_round(workload, items, tr)
            if k == 0:
                round0 = tracer.snapshot()
        k += 1
    if tracer is None:
        return untraced
    return untraced, traced, round0


def measure_setup(spawns: int = SETUP_SPAWNS) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import mvamp`` has
    returned, once per spawn."""
    code = "import time, mvamp; print(time.monotonic())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(spawns):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


def layer_metrics(table, missing_names, totals, round0, items, round0_items):
    """Per-layer metrics, and the names left out because a hook they read
    no longer exists (never reported as 0)."""
    metrics, missing = {}, []
    for name, unit, needs, value in table:
        if missing_names.intersection(needs):
            missing.append(name)
        else:
            metrics[name] = {"value": value(totals, round0, items, round0_items), "unit": unit}
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweeps", "theory-grid"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "mvamp" / "__init__.py").is_file():
        print(f"error: no mvamp package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    import mvamp
    if Path(mvamp.__file__).resolve().parent != SRC / "mvamp":
        print(f"error: imported mvamp from {mvamp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import HOOKS, LAYER_METRICS, WORKLOADS

    workload = WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup()

    if args.trace:
        tracer = Tracer(HOOKS)
        untraced, traced, round0_totals = run_rounds(workload, args.seed, args.seconds, tracer)
        phases = [untraced, traced]
    else:
        untraced = run_rounds(workload, args.seed, args.seconds)
        phases = [untraced]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [o for ph in phases for o in ph.outcomes]
    latencies = untraced.latencies
    attempted, failed = len(outcomes), count_failed(outcomes)
    n0 = len(workload.round(args.seed, 0))
    rounds = len(untraced.outcomes) // n0

    problems = workload.check(untraced.outcomes, args.seed, rounds)
    if args.trace and [o.values for o in traced.outcomes] != [o.values for o in untraced.outcomes]:
        problems.append("traced and untraced runs of the same items gave different values")
    round0_digest = digest(untraced.outcomes[:n0])
    rerun_digest = digest([workload.run(item) for item in workload.round(args.seed, 0)])
    if rerun_digest != round0_digest:
        problems.append(f"round 0 not reproducible: digest {round0_digest[:16]} "
                        f"then {rerun_digest[:16]}")

    tail = tail_latency(latencies, workload.tail_q)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failure_kinds(outcomes),
        "wall_s": sum(ph.wall for ph in phases),
        "tail": {"percentile": tail.percentile, "samples": tail.samples,
                 "beyond": samples_beyond(tail.samples, workload.tail_q),
                 "estimator": "Harrell-Davis"},
        "setup_runs_s": setup, "round0_digest": round0_digest, "problems": problems,
        "environment": environment(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }

    if args.trace:
        metrics, missing = layer_metrics(LAYER_METRICS, tracer.missing_names, tracer.totals,
                                         round0_totals, len(traced.outcomes), n0)
        # Median over rounds of the paired difference: both runs of a round
        # did the same items.
        overhead = statistics.median(
            u - t for u, t in zip(untraced.round_rates, traced.round_rates))
        metrics["trace.overhead_per_s"] = {"value": overhead, "unit": "1/s"}
        details["missing_hooks"] = tracer.missing
        details["missing_metrics"] = missing
        details["throughput_traced_per_s"] = traced.throughput
        details["throughput_untraced_per_s"] = untraced.throughput
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "throughput_per_s": {"value": untraced.throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * tail.value, "unit": "ms"},
            "success_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print("details " + json.dumps(details))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
