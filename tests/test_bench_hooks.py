"""The benchmark traces the program through public names (``benchmarks/
workloads.py``: ``HOOKS``).  ``benchmarks/run.py`` leaves out, without an
error, the per-layer metrics of a hook whose name is gone, so a refactor that
drops or renames a hooked name would show only in a traced run.  These tests
read the benchmark's files and change none of them.
"""

import json
import sys
from pathlib import Path

import pytest

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
