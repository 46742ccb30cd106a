"""Run one workload on several seeds and report each metric's median,
quartiles and quartile spread (IQR as a share of the median).

    python3 benchmarks/spread.py --workload sweeps --seeds 1-10 --seconds 45

Each run is a separate ``benchmarks/run.py`` process, started one after
another from the repository root.  Runs whose output checks fail are
listed and count against nothing else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from report import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    """"1-10": seeds 1 to 10."""
    lo, hi = spec.split("-")
    return list(range(int(lo), int(hi) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        details = json.loads(lines[-2].removeprefix("details "))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={details['round0_digest'][:12]} "
              f"problems={details['problems']}", flush=True)
        metrics = dict(result["metrics"])
        # The rate over all items, beside the per-round median that
        # throughput_per_s reports.
        metrics["(attempted / wall_s)"] = {"value": result["attempted"] / details["wall_s"],
                                           "unit": "1/s"}
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        print(f"{name:36s} median {q2:.6g} {units[name]}  quartiles {q1:.6g}..{q3:.6g}  "
              f"spread {quartile_spread(vs):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
