"""Tests of the benchmark's own arithmetic: the percentile rule, span nesting
and self-time subtraction, the per-layer ratios built on them, and the speed
adjustment."""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import orderstats  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... so span boundaries are known exactly."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


def make_spans(rows):
    """rows of (name, start, end, parent) -> list of Span."""
    out = []
    for name, start, end, parent in rows:
        s = spans.Span(name, start, parent, 0)
        s.end = end
        out.append(s)
    return out


@pytest.mark.parametrize("p", [0, 5, 25, 50, 75, 90, 95, 99, 99.9, 100])
def test_percentile_matches_numpy_linear(p):
    xs = np.random.default_rng(3).exponential(size=137)
    assert orderstats.percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        orderstats.percentile([], 50)
    with pytest.raises(ValueError):
        orderstats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert orderstats.tail_percentile(count) == expected
    if expected is not None:
        assert orderstats.samples_beyond(count, expected) >= orderstats.MIN_TAIL


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert spans.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_children():
    s = make_spans(
        [("outer", 0, 10, -1), ("child", 1, 3, 0), ("child", 5, 6, 0), ("grand", 1, 2, 1)]
    )
    kids = spans.children(s)
    assert kids == [[1, 2], [3], [], []]
    assert spans.self_time(s, 0, kids) == 7.0
    assert spans.self_time(s, 1, kids) == 1.0
    assert spans.self_time(s, 3, kids) == 1.0


def test_self_time_clips_children_to_parent_and_counts_overlap_once():
    s = make_spans([("p", 0, 10, -1), ("c", 2, 6, 0), ("c", 4, 12, 0)])
    assert spans.self_time(s, 0, spans.children(s)) == 2.0


def test_tracer_records_nesting_ops_and_results():
    tracer = spans.Tracer(clock=FakeClock())

    def inner(x):
        return x + 1

    inner_t = tracer.wrap("inner", inner, describe=lambda a, k, r: {"r": r})

    def outer(x):
        return inner_t(x) + inner_t(x)

    outer_t = tracer.wrap("outer", outer)
    tracer.op = 7
    assert outer_t(1) == 4
    s = tracer.spans
    assert [x.name for x in s] == ["outer", "inner", "inner"]
    assert [x.parent for x in s] == [-1, 0, 0]
    assert {x.op for x in s} == {7}
    assert s[1].info == {"r": 2}
    # clock ticks: outer 0..5, inner 1..2 and 3..4
    assert (s[0].start, s[0].end) == (0.0, 5.0)
    assert spans.self_time(s, 0, spans.children(s)) == 3.0


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom, describe=lambda a, k, r: 1)()
    assert tracer.spans[0].duration == 1.0
    assert tracer.spans[0].info is None
    assert tracer._open == []


def test_busy_time_counts_recursive_spans_once():
    tracer = spans.Tracer(clock=FakeClock())

    def rec(k):
        return 0 if k == 0 else rec_t(k - 1)

    rec_t = tracer.wrap("rec", rec)
    rec_t(3)
    outer = tracer.spans[0]
    assert spans.busy_time(tracer.spans, "rec") == outer.duration
    assert spans.nearest_ancestor(tracer.spans, 3, lambda p: tracer.spans[p].name == "rec") == 2


def test_rebind_and_uninstall_restore_every_binding():
    import types

    def f():
        return 1

    a = types.ModuleType("fakepkg")
    b = types.ModuleType("fakepkg.sub")
    a.f, b.g = f, f
    sys.modules["fakepkg"], sys.modules["fakepkg.sub"] = a, b
    try:
        changed = spans.rebind("fakepkg", f, lambda: 2)
        assert sorted(name for _, name in changed) == ["f", "g"]
        assert a.f() == 2 and b.g() == 2
        layers.uninstall([(mod, name, f) for mod, name in changed])
        assert a.f is f and b.g is f
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


def test_layer_ratios_from_synthetic_spans():
    rows = [
        ("quasistates.maslov_eval", 0, 10, -1),             # 0: spectral route
        ("williamson.classify_eigenstructure", 1, 2, 0),
        ("maslov.maslov_spectral", 3, 9, 0),
        ("williamson.classify_eigenstructure", 4, 5, 2),
        ("quasistates.maslov_eval", 20, 40, -1),            # 4: limit route
        ("williamson.classify_eigenstructure", 21, 22, 4),
        ("maslov.limit", 23, 39, 4),
        ("maslov.limit_batch", 24, 38, 6),                  # 7
        ("kernels.complex_blocks", 25, 26, 7),
        ("kernels.lift_argument", 30, 32, 7),
        ("williamson.classify_eigenstructure", 50, 51, -1),  # outside any evaluation
    ]
    s = make_spans(rows)
    s[6].info = {"steps": 4}
    s[7].info = {"m": 1, "n": 2, "steps": 4}
    m = layers.layer_metrics(s)
    assert m["quasistates.maslov_evals"] == 2
    assert m["williamson.classify_per_maslov_eval"] == 1.5
    assert m["quasistates.route_limit_share"] == 0.5
    assert m["maslov.limit_batch.self_s"] == 14 - 1 - 2
    assert m["maslov.limit_batch.elem_steps"] == 4
    assert m["maslov.limit_batch.us_per_elem_step.n2"] == 1e6 * 11 / 4
    assert m["maslov.limit_batch.us_per_elem_step.n1"] == 0.0
    assert m["maslov.limit_batch.attempts_per_call"] == 1.0
    assert m["maslov.limit.us_per_step"] == 1e6 * 16 / 4
    assert m["kernels.lift_argument.share_of_sweep"] == 2 / 14
    assert m["williamson.classify_eigenstructure.calls"] == 4
    assert set(m) == set(layers.METRICS) - {"trace.overhead_s", "trace.overhead_share"}


def probe_timeline(intervals):
    tl = speed.Timeline()
    tl.starts = [a for a, _ in intervals]
    tl.ends = [b for _, b in intervals]
    return tl


def test_net_time_excludes_probes_inside_the_operation():
    tl = probe_timeline([(0, 1), (10, 11), (20, 22), (30, 31), (40, 41), (50, 51)])
    assert tl.net(15, 35) == 20 - 2 - 1
    assert tl.net(12, 13) == 1
    assert tl.net(21, 30.5) == 9.5 - 1 - 0.5


def test_factor_is_the_median_of_nearby_probes():
    # one slow probe among the six around [15, 35] does not move the median
    tl = probe_timeline([(0, 1), (10, 11), (20, 24), (30, 31), (40, 41), (50, 51)])
    assert tl.factor(15, 35) == speed.REF_PROBE_S / 1.0
    assert tl.adjusted(15, 35) == (20 - 4 - 1) * speed.REF_PROBE_S
    # a short operation sees PAD_PROBES probes on either side: 1, 1, 4, 1
    assert tl.factor(12, 13) == speed.REF_PROBE_S / 1.0
    # far from the edges, a slow stretch counts fully: probes 2, 2, 2, 2
    slow = probe_timeline([(0, 2), (10, 12), (20, 22), (30, 32), (40, 41)])
    assert slow.factor(15, 16) == speed.REF_PROBE_S / 2.0
    # before the first probe only the probes after it count
    assert slow.factor(-5, -4) == speed.REF_PROBE_S / 2.0
    with pytest.raises(RuntimeError):
        speed.Timeline().factor(0, 1)


def test_sampling_probes_on_a_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    tl = speed.Timeline()
    with tl.sampling():
        t_end = time.perf_counter() + 3.5 * speed.PROBE_EVERY_S
        while time.perf_counter() < t_end:
            pass
    assert len(tl.starts) >= 2
    assert all(a < b for a, b in zip(tl.starts, tl.ends))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", layers.METRICS)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == [
            (name, unit, better) for name, (unit, better) in table.items()
        ]
