"""Tests of the harness's own arithmetic.  Run: python3 -m pytest -q perfbench"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import stats  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def span(start, end, parent):
    return ("s", start, end, parent, 0, True)


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(0, 100, -1),   # root
        span(10, 40, 0),    # child
        span(15, 25, 1),    # grandchild: counts against the child only
        span(50, 60, 0),    # second child
    ]
    assert stats.self_times(spans) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [span(0, 100, -1), span(10, 50, 0), span(30, 70, 0), span(90, 130, 0)]
    # children cover 10..70 and 90..100 of the parent
    assert stats.self_times(spans)[0] == 100 - 60 - 10


def test_tail_needs_twenty_ops():
    assert stats.tail_percentile(list(range(19))) is None


def test_tail_keeps_ten_ops_beyond_the_percentile():
    p, value, n = stats.tail_percentile([float(i) for i in range(1, 41)])
    # p90 of 40 ops is rank 36 with 4 beyond; p75 is rank 30 with 10 beyond
    assert (p, value, n) == (75.0, 30.0, 40)
    p, value, n = stats.tail_percentile([float(i) for i in range(1, 1001)])
    # p99 is rank 990 with 10 beyond; p99.9 would leave 1
    assert (p, value, n) == (99.0, 990.0, 1000)


@pytest.mark.parametrize("n, expected", [(20, 50.0), (100, 90.0), (200, 95.0), (999, 95.0)])
def test_tail_percentile_ladder(n, expected):
    p, value, _ = stats.tail_percentile(list(range(n)))
    assert p == expected
    assert sum(1 for x in range(n) if x > value) >= 10


def test_fail_counts_counts_raises_and_failed_checks():
    outcomes = [None, "raised NotMDS: x", None, "report says d=3", None]
    assert stats.fail_counts(outcomes) == (5, 2)
    assert stats.fail_counts([None] * 7) == (7, 0)


def test_quartile_spread_is_relative_to_the_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # exclusive quartiles 2.75 and 8.25 around the median 5.5
    assert stats.quartile_spread(xs) == pytest.approx(5.5 / 5.5)


def test_tracer_records_nested_spans_and_restores_agmds():
    import agmds
    from agmds import code, linalg
    from agmds.field import FieldSpec

    original_rank, original_mul = linalg.rank, FieldSpec.mul
    F = agmds.field_make(7)
    tracer = Tracer()
    tracer.install()
    try:
        assert code.rank is linalg.rank is not original_rank
        tracer.op = 3
        C = agmds.LinearCode(F, linalg.FFMatrix(F, [[1, 2, 3], [0, 1, 4]]))
        assert agmds.is_mds_by_minors(C) is True
    finally:
        tracer.uninstall()
    assert linalg.rank is original_rank and code.rank is original_rank
    assert FieldSpec.mul is original_mul
    m = tracer.metrics()
    assert m["linalg.rank.calls"] == 1
    assert m["linalg.minor.calls"] == 3
    assert m["code.is_mds_by_minors.calls"] == 1
    assert m["code.is_mds_by_minors.true_ratio"] == 1.0
    assert m["field.mul.calls"] > 0
    assert {s[4] for s in tracer.spans} == {3}
    minors = [s for s in tracer.spans if s[0] == "linalg.minor"]
    parent = tracer.spans[minors[0][3]]
    assert parent[0] == "code.is_mds_by_minors"
    assert m["code.is_mds_by_minors.self_s"] < m["code.is_mds_by_minors.total_s"]


def test_host_correction_removes_probe_time_and_scales_by_probe_speed():
    from perfbench import hostspeed

    sampler = hostspeed.SpeedSampler()
    ref = hostspeed.REFERENCE_S
    # probes at 9.5 (in the window only), 12 and 15 (inside the interval)
    sampler.starts = [9.5, 12.0, 15.0, 30.0]
    sampler.handler_s = [0.1, 0.1, 0.1, 0.1]
    sampler.probe_s = [ref, 2 * ref, 2 * ref, 9 * ref]
    # 10 s minus 0.2 s of probing, run at half the reference speed
    assert sampler.correct(10.0, 20.0) == pytest.approx(9.8 / 2)
    # no probe near the interval: the raw length stands
    assert sampler.correct(50.0, 51.0) == 1.0
