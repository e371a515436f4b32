"""Tests for the benchmark's own statistics and span bookkeeping.

    python3 -m pytest perfbench
"""

import json
import math
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import (  # noqa: E402
    covered,
    merge,
    percentile,
    pooled,
    samples_beyond,
    self_intervals,
    self_time,
    summarize,
    uncovered,
)
from tracing import Tracer, spanned  # noqa: E402
from workloads import UNEXERCISED, WORKLOADS  # noqa: E402


# -- percentile rule ---------------------------------------------------------


def test_samples_beyond_counts_ranks_above_the_interpolated_percentile():
    for n, pct in ((100, 90), (96, 90), (91, 90), (64, 50), (21, 50), (20, 50)):
        values = list(range(n))
        p = percentile(values, pct)
        assert samples_beyond(n, pct) == sum(v > p for v in values), (n, pct)


def test_tail_is_p90_only_with_ten_samples_beyond():
    assert summarize(range(91)).tail_pct == 50
    s = summarize(range(92))
    assert (s.n, s.tail_pct) == (92, 90)
    assert s.tail == percentile(list(range(92)), 90)


def test_short_runs_fall_back_to_the_median():
    s = summarize([5.0, 1.0, 3.0])
    assert (s.n, s.p50, s.tail_pct, s.tail) == (3, 3.0, 50, 3.0)


def test_empty_sample_set_reports_zero_with_n_zero():
    s = summarize([])
    assert (s.n, s.p50, s.tail_pct, s.tail) == (0, 0.0, 50, 0.0)


def test_pooled_takes_medians_over_runs_and_sums_counts():
    runs = [summarize(range(100)), summarize(range(10, 110)), summarize(range(20, 120))]
    s = pooled(runs)
    assert (s.n, s.p50, s.tail_pct) == (300, runs[1].p50, 90)
    assert s.tail == runs[1].tail


def test_pooled_tail_falls_back_to_median_when_one_run_is_short():
    long_run, short_run = summarize(range(200)), summarize([1.0, 2.0, 3.0])
    s = pooled([long_run, short_run])
    assert (s.n, s.tail_pct) == (203, 50)
    assert s.tail == s.p50 == (long_run.p50 + short_run.p50) / 2
    assert pooled([]) == summarize([])


def test_percentile_matches_inclusive_quantiles():
    values = sorted([3.5, 1.0, 8.25, 2.0, 13.0, 5.5, 21.0, 0.5])
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    assert math.isclose(percentile(values, 90), cuts[8], rel_tol=1e-12)
    assert percentile(values, 50) == statistics.median(values)


# -- intervals and self time ---------------------------------------------------


def test_merge_joins_overlapping_and_touching_intervals():
    assert merge([(5, 7), (0, 2), (1, 3), (3, 4), (9, 9)]) == [(0, 4), (5, 7)]


def test_covered_clips_to_the_window():
    assert covered([(0, 10), (5, 20)], 8, 12) == 4
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    # two threads' children overlap on [30, 40): counted once
    children = [(20, 40), (30, 60), (90, 120)]
    assert uncovered(10, 100, children) == [(10, 20), (60, 90)]
    assert self_time(10, 100, children) == 40


def test_self_intervals_over_a_span_tree():
    spans = [
        (0, 0, 100, -1),  # root
        (1, 10, 50, 0),
        (2, 20, 30, 1),  # grandchild: covered by 1, not subtracted from 0 again
        (3, 40, 70, 0),  # overlaps 1
    ]
    intervals = self_intervals(spans)
    assert {sid: sum(e - s for s, e in iv) for sid, iv in intervals.items()} == {
        0: 40, 1: 30, 2: 10, 3: 30}
    assert intervals[0] == [(0, 10), (70, 100)]


# -- tracer --------------------------------------------------------------------


def test_spans_on_other_threads_join_the_open_case():
    tr = Tracer()
    tr.enabled = True
    work = spanned(tr, "leaf", lambda: None)
    tr.case_start()
    root = tr.begin(tr.name_id("root"))
    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()
    work()  # same thread: nested under the root through the stack
    tr.finish(root)
    tr.case_attempted()
    tr.case_start()
    work()  # next case, root closed: no parent
    spans = {s[0]: s for s in tr.spans()}
    assert [(s[1], s[4], s[5]) for s in spans.values()] == [
        ("root", -1, 0),
        ("leaf", root, 0),
        ("leaf", root, 0),
        ("leaf", -1, 1),
    ]


def test_disabled_tracer_records_nothing():
    tr = Tracer()
    assert spanned(tr, "x", lambda v: v + 1)(1) == 2
    assert list(tr.spans()) == []


# -- benchmark definition -------------------------------------------------------


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [m["metric"] for entries in layers["layers"].values() for m in entries]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = set(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} == workloads == set(UNEXERCISED)
    for entries in layers["layers"].values():
        for m in entries:
            for metric, workload in m["moves"] + m.get("unchanged", []):
                assert metric in e2e and workload in workloads, (m["metric"], metric, workload)


def test_unexercised_names_match_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    for workload, unused in UNEXERCISED.items():
        for u in unused:
            hits = [n for n in names if n == u or u.endswith(".") and n.startswith(u)]
            assert hits, (workload, u)
