"""Tests of the benchmark's own helpers: the tail rule, failure counting and
the reporting of hooks that no longer exist.

    python3 -m pytest benchmarks -q
"""

import random
import sys
import types

import pytest

from report import Outcome, count_failed, failure_kinds, samples_beyond, tail_latency
from run import layer_metrics, run_rounds
from tracer import Hook, Tracer


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    tail = tail_latency(samples, 0.9)
    assert (tail.percentile, tail.samples) == (90.0, 100)
    # The Harrell-Davis estimate lies between the order statistics at ranks 90 and 91.
    assert 90.0 < tail.value < 91.0
    assert sum(1 for s in samples if s > tail.value) == 10


def test_tail_percentile_is_fixed_however_many_samples():
    assert tail_latency(list(range(1, 1001)), 0.9).percentile == 90.0
    assert samples_beyond(40, 0.75) == 10 and samples_beyond(1000, 0.99) == 10
    assert samples_beyond(39, 0.75) == 9 and samples_beyond(999, 0.99) == 9


def test_tail_of_constant_samples_is_that_constant():
    assert tail_latency([0.25] * 40, 0.75).value == pytest.approx(0.25)


def test_tail_needs_ten_samples_beyond_the_percentile():
    with pytest.raises(ValueError):
        tail_latency([1.0] * 39, 0.75)
    with pytest.raises(ValueError):
        tail_latency([1.0] * 999, 0.99)


def test_failed_items_are_counted_by_kind():
    outcomes = [Outcome((1.0,)), Outcome((2.0, "ConvergenceError"), "ConvergenceError: cap"),
                Outcome((3.0,)), Outcome((4.0, "DivergenceError"), "DivergenceError: nan"),
                Outcome((5.0, "ConvergenceError"), "ConvergenceError: cap")]
    assert count_failed(outcomes) == 3
    assert failure_kinds(outcomes) == {"ConvergenceError": 2, "DivergenceError": 1}
    assert count_failed([Outcome((1.0,))]) == 0


@pytest.fixture
def toy_module():
    """A module with a nested call chain: outer -> inner -> inner_part."""
    mod = types.ModuleType("bench_toy")

    def inner_part(x):
        return x + 1

    def inner(x):
        return mod.inner_part(x) * 2

    def outer(x):
        return [mod.inner(x), mod.inner(x + 1)]

    mod.inner_part, mod.inner, mod.outer = inner_part, inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_spans_nest_and_same_name_calls_fold(toy_module):
    tracer = Tracer([Hook("bench_toy:outer", "toy.outer", work=len),
                     Hook("bench_toy:inner", "toy.inner", count="toy.inner_calls"),
                     Hook("bench_toy:inner_part", "toy.inner", count="toy.part_calls")])
    assert tracer.missing == []
    original = toy_module.outer
    tracer.install()
    try:
        assert toy_module.outer(1) == [4, 6]
    finally:
        tracer.uninstall()
    assert toy_module.outer is original
    t = tracer.totals
    assert t["toy.outer.calls"] == 1 and t["toy.outer.work"] == 2
    # inner_part runs inside an open toy.inner span: counted, but no new span.
    assert t["toy.inner.calls"] == 2 and t["toy.part_calls"] == 2
    assert t["toy.inner<toy.outer.calls"] == 2
    assert t["toy.outer.self"] == pytest.approx(t["toy.outer.time"] - t["toy.inner.time"])


def test_missing_hooks_are_reported_not_zeroed(toy_module):
    tracer = Tracer([Hook("bench_toy:outer", "toy.outer"),
                     Hook("bench_toy:renamed_away", "toy.inner", count="toy.calls"),
                     Hook("no_such_module_for_bench:f", "toy.other")])
    assert tracer.missing == ["bench_toy:renamed_away", "no_such_module_for_bench:f"]
    assert tracer.missing_names == {"toy.inner", "toy.calls", "toy.other"}
    tracer.install()
    try:
        toy_module.outer(1)
    finally:
        tracer.uninstall()
    table = [("outer_s", "s", ["toy.outer"], lambda t, r0, n, n0: t["toy.outer.time"] / n),
             ("inner_s", "s", ["toy.inner"], lambda t, r0, n, n0: 0.0),
             ("both_s", "s", ["toy.outer", "toy.other"], lambda t, r0, n, n0: 0.0)]
    metrics, missing = layer_metrics(table, tracer.missing_names, tracer.totals, {}, 1, 1)
    assert list(metrics) == ["outer_s"] and metrics["outer_s"]["value"] > 0.0
    assert missing == ["inner_s", "both_s"]


def test_traced_rounds_pair_with_untraced_ones(toy_module):
    class Toy:
        item_span = "toy.item"
        tail_q = 1.0 / 6.0

        def __init__(self):
            self.log = []

        def round(self, seed, k):
            return [(seed, k, j) for j in range(6)]

        def run(self, item):
            traced = toy_module.inner is not self.plain
            self.log.append((item[1], traced))
            return Outcome((item, toy_module.inner(item[2])))

    toy = Toy()
    toy.plain = toy_module.inner
    tracer = Tracer([Hook("bench_toy:inner", "toy.inner")])
    untraced, traced, round0 = run_rounds(toy, 7, 1e-9, tracer)
    # Two rounds (the tail rule needs ten samples beyond tail_q), each
    # run untraced and traced on the same items, alternating which goes first.
    assert [o.values for o in untraced.outcomes] == [o.values for o in traced.outcomes]
    assert len(untraced.outcomes) == 12 and len(untraced.round_rates) == 2
    assert untraced.throughput > 0.0
    assert [t for k, t in toy.log[::6]] == [False, True, True, False]
    assert round0["toy.item.calls"] == 6 and tracer.totals["toy.item.calls"] == 12
    assert toy_module.inner is toy.plain
