"""The benchmark traces the program through public names (``benchmarks/
workloads.py``: ``HOOKS``).  ``benchmarks/run.py`` leaves out, without an
error, the per-layer metrics of a hook whose name is gone, so a refactor that
drops or renames a hooked name would show only in a traced run.  These tests
read the benchmark's files and change none of them.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mvamp import ExperimentConfig, run_sweep

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's tracer and workloads modules, imported from
    ``benchmarks/`` without writing bytecode there."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import tracer
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    return tracer, workloads


def test_every_hook_target_resolves(bench):
    tracer, workloads = bench
    assert workloads.HOOKS
    missing = [h.target for h in workloads.HOOKS if tracer.resolve(h.target) is None]
    assert missing == []


def test_every_declared_per_layer_metric_is_computed(bench):
    # run.py adds trace.overhead_per_s itself; the others come from LAYER_METRICS
    _, workloads = bench
    declared = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())
                ["per_layer"]}
    computed = {name for name, *_ in workloads.LAYER_METRICS} | {"trace.overhead_per_s"}
    assert declared <= computed


def test_every_hook_fires(bench):
    # Resolving is not enough: a refactor that stops calling a hooked name
    # drops its metrics all the same.  Count every call of every target on
    # a small gaussian sweep, a two-layer sweep and one theory row.
    tracer_mod, workloads = bench
    tracer = tracer_mod.Tracer([replace(h, count=h.target, peak=False)
                                for h in workloads.HOOKS])
    small = dict(sweep_param="lambda", grid=(2.0,), fixed_value=0.9, replicates=1,
                 n_iter=10)
    tracer.install()
    try:
        run_sweep(ExperimentConfig(family="gaussian", n=200, p=120, **small))
        run_sweep(ExperimentConfig(family="multilayer", n=400, p=240, m=2,
                                   r_fractions=(0.6, 0.4), p_bar_coeffs=(0.7, 0.6), **small))
        workloads.WORKLOADS["theory-grid"].run((2.0, 0.9))
    finally:
        tracer.uninstall()
    silent = [h.target for h in workloads.HOOKS if not tracer.totals[h.target] > 0]
    assert silent == []
