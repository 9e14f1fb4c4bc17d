"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from stats import (REF_PROBE_S, ReferenceTime, SpeedClock, pass_estimate,  # noqa: E402
                   per_input_min, quartiles, spread)
from tracing import Tracer, self_times  # noqa: E402


# ------------------------------------------------------------ estimator


def test_pass_estimate_sums_each_inputs_fastest_time():
    times = [[1.0, 5.0, 2.0],
             [0.8, 6.0, 2.5],
             [1.2, 4.5, 3.0]]
    assert per_input_min(times) == [0.8, 4.5, 2.0]
    pass_s, worst = pass_estimate(times)
    assert pass_s == pytest.approx(7.3)
    assert worst == 4.5


def test_pass_estimate_of_one_pass_is_that_pass():
    assert pass_estimate([[0.5, 0.25]]) == (0.75, 0.5)


def test_pass_estimate_rejects_no_passes_and_ragged_passes():
    with pytest.raises(ValueError):
        pass_estimate([])
    with pytest.raises(ValueError):
        pass_estimate([[1.0, 2.0], [1.0]])


def test_one_slow_pass_does_not_move_the_estimate():
    steady = [[1.0, 2.0]] * 3
    assert pass_estimate(steady + [[3.0, 6.0]]) == pass_estimate(steady)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 12.0, 9.7]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert spread([2.0, 2.0, 2.0]) == 0.0


def probes(*pairs):
    """Flat ``ReferenceTime`` stamps from ``(start, duration in REF_PROBE_S)``."""
    return [t for start, d in pairs for t in (start, start + d * REF_PROBE_S)]


def test_reference_time_at_reference_speed_is_wall_time_without_probes():
    ref = ReferenceTime(probes((1.0, 1), (2.0, 1), (3.0, 1)))
    end_of_first = 1.0 + REF_PROBE_S
    assert ref.duration(end_of_first, 2.0) == pytest.approx(2.0 - end_of_first)
    # a stretch over a probe leaves the probe out
    assert ref.duration(1.5, 2.5) == pytest.approx(1.0 - REF_PROBE_S)
    # inside a probe the clock stands still
    assert ref.duration(2.0, 2.0 + REF_PROBE_S / 2) == 0.0


def test_reference_time_runs_slower_where_the_probes_are_slower():
    ref = ReferenceTime(probes((0.0, 1), (1.0, 1), (2.0, 1), (3.0, 2), (4.0, 2), (5.0, 2),
                               (6.0, 2), (7.0, 2)), window=1)
    assert ref.duration(1.5, 1.75) == pytest.approx(0.25)  # before a fast probe
    assert ref.duration(5.5, 5.75) == pytest.approx(0.125)  # before a slow probe
    assert ref.duration(8.0, 9.0) == pytest.approx(0.5)  # after the last, at its rate
    assert ref.duration(-1.0, 0.0) == pytest.approx(1.0)  # before the first, at its rate


def test_reference_time_window_ignores_one_outlying_probe():
    stamps = probes(*[(float(j), 50 if j == 3 else 1) for j in range(8)])
    ref = ReferenceTime(stamps, window=5)
    assert ref.duration(2.5, 2.75) == pytest.approx(0.25)


def test_reference_time_without_probes_is_wall_time():
    ref = ReferenceTime([])
    assert ref.duration(1.0, 3.5) == 2.5
    assert ref.probe_median_s is None
    with pytest.raises(ValueError):
        ReferenceTime([1.0, 2.0, 3.0])


def test_speed_clock_probes_while_started_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = SpeedClock(capacity_s=0.05, interval=0.005)
    clock.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        pass
    ref = clock.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 1 <= len(ref._a) <= 11  # the buffer holds ten probes, and one spare
    assert ref.probe_median_s > 0
    assert ref.duration(t0, t0 + 0.1) > 0


# ------------------------------------------------------ self-time arithmetic


def test_root_span_without_children_keeps_its_whole_duration():
    assert self_times([(1.0, 3.5, -1)]) == [2.5]


def test_nested_spans_subtract_only_direct_children():
    spans = [(0.0, 10.0, -1),  # root
             (1.0, 4.0, 0),    # child
             (2.0, 3.0, 1),    # grandchild
             (6.0, 8.0, 0)]    # second child
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_child_ending_at_its_parents_end():
    assert self_times([(0.0, 5.0, -1), (2.0, 5.0, 0)]) == pytest.approx([2.0, 3.0])
    assert self_times([(0.0, 5.0, -1), (0.0, 5.0, 0)]) == pytest.approx([0.0, 5.0])


def test_children_are_clipped_and_overlaps_counted_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (9.0, 12.0, 0)]
    # covered: [1, 7] and [9, 10]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_times_add_up_to_the_root_duration():
    spans = [(0.0, 9.0, -1), (1.0, 2.0, 0), (2.0, 6.0, 0), (3.0, 4.0, 2), (4.0, 6.0, 2)]
    assert sum(self_times(spans)) == pytest.approx(9.0)


# ---------------------------------------------------------------- tracing


@pytest.fixture
def modules():
    return run.fresh_modules()


def test_tracer_wraps_names_imported_into_other_modules(modules):
    tracer = Tracer()
    tracer.install(modules)
    try:
        g = modules["corpus"].family_graph("upath", 5)
        tracer.start_verdict((0, 0))
        modules["harness"].run_equivalence_suite([("upath-5", g)], jobs=1)
    finally:
        tracer.uninstall()
    calls = tracer.calls_by()
    assert calls["harness.run_equivalence_suite", (0, 0)] == 1
    assert calls["rank.rank", (0, 0)] == 1  # harness's own binding of rank
    assert calls["entgames.solve_pursuit", (0, 0)] == 3 * (g.n + 1)
    assert tracer.counts["entgames.positions_expanded", (0, 0)] > 0
    assert not tracer.missing
    # uninstalling restores every binding
    assert not hasattr(modules["harness"].rank, "__wrapped__")
    assert not hasattr(modules["entgames"].PursuitGame.thief_targets, "__wrapped__")


def test_repeated_decomposition_counted_per_verdict(modules):
    tracer = Tracer()
    tracer.install(modules)
    try:
        g = modules["corpus"].family_graph("clique", 4)
        for verdict in ("a", "b"):
            tracer.start_verdict(verdict)
            modules["digraph"].scc_decompose(g, 0b0111)
            modules["digraph"].scc_decompose(g, 0b0111)
            modules["digraph"].scc_decompose(g)
    finally:
        tracer.uninstall()
    assert tracer.counts["digraph.scc_decompose.repeats", "a"] == 1
    assert tracer.counts["digraph.scc_decompose.repeats", "b"] == 1
    assert tracer.calls_by()["digraph.scc_decompose", "a"] == 3


def test_span_self_times_split_a_rank_call(modules):
    tracer = Tracer()
    tracer.install(modules)
    try:
        tracer.start_verdict("v")
        modules["rank"].rank(modules["corpus"].family_graph("upath", 12))
    finally:
        tracer.uninstall()
    (root,) = [s for s in tracer.spans if s[3] == -1]
    selfs = tracer.self_time_by()
    total = selfs["rank.rank", "v"] + selfs["digraph.scc_decompose", "v"]
    assert total == pytest.approx(root[2] - root[1])


def test_missing_targets_are_reported_not_fatal(modules):
    trimmed = dict(modules)
    trimmed["digraph"] = types.SimpleNamespace()  # no scc_decompose
    del trimmed["muterm"]
    tracer = Tracer()
    tracer.install(trimmed)
    tracer.uninstall()
    assert "digraph.scc_decompose" in tracer.missing
    assert {"muterm.parse", "muterm.term_graph", "muterm.analyze"} <= tracer.missing
    metrics = run.per_layer_metrics(tracer, [None], [None], range(0, 1), ReferenceTime([]), 0.5)
    assert metrics["digraph.scc_decompose.calls"] == {
        "value": None, "unit": "count", "missing": True}
    assert metrics["muterm.analyze.self_s"]["missing"]
    assert metrics["rank.rank.calls"] == {"value": 0, "unit": "count"}
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.5)


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
