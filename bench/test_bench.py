"""Tests of the benchmark's own code: self-time arithmetic, identity patching,
derived counts, and the metric lists in BENCHMARK.json.

Run with: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from layers import METRICS, percentile, prefix_repeat_share
from run import END_TO_END
from tracer import Span, Target, Tracer, count_calls, self_times, trace
from workloads import WORKLOADS


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.child", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "x", 1.0, 5.0),
        Span(2, 0, "y", 3.0, 6.0),  # overlaps x on [3, 5]
        Span(3, 0, "z", 4.0, 5.5),  # inside the union of x and y
        Span(4, 0, "w", 9.0, 12.0),  # runs past the parent's end
    ]
    # Children cover [1, 6] and [9, 10]: 6 of the root's 10 seconds.
    assert self_times(spans)[0] == pytest.approx(4.0)


def _fake_package(monkeypatch):
    """modeloco.core defines f; modeloco.user imports it by name."""
    core = types.ModuleType("modeloco.core")
    user = types.ModuleType("modeloco.user")

    def f(x):
        return x + 1

    class Box:
        def get(self):
            return core.f(1)  # a module-global lookup, as in a real module

    core.f, core.Box = f, Box
    user.f = f
    user.call = lambda x: user.f(x)
    for mod in (core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_trace_patches_every_binding_and_restores(monkeypatch):
    core, user = _fake_package(monkeypatch)
    original = core.f
    tracer = Tracer()
    targets = [
        Target("core.f", "modeloco.core", "f", lambda a, k, r: {"out": r}),
        Target("core.box_get", "modeloco.core", "Box.get"),
        Target("core.gone", "modeloco.core", "removed_function"),
    ]
    restore, absent = trace(tracer, targets)
    try:
        assert tracer.span("root", user.call, 2) == 3
        assert core.Box().get() == 2
    finally:
        restore()
    assert absent == ["core.gone"]
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("root", -1), ("core.f", 0), ("core.box_get", -1), ("core.f", 2)]
    assert tracer.spans[1].attrs == {"out": 3}
    assert core.f is original and user.f is original
    assert core.Box.__dict__["get"].__name__ == "get"


def test_count_calls(monkeypatch):
    core, user = _fake_package(monkeypatch)
    counts, restore, absent = count_calls([Target("core.f", "modeloco.core", "f")])
    try:
        for i in range(5):
            user.call(i)
    finally:
        restore()
    user.call(0)
    assert counts == {"core.f": 5} and absent == []


def test_prefix_repeat_share_counts_executed_knots_only():
    plans = [((0, 1, 2), 3), ((0, 1, 3), 3), ((0, 2, 2), 1)]
    # Prefixes run: (0) (0,1) (0,1,2) | (0)r (0,1)r (0,1,3) | (0)r
    assert prefix_repeat_share(plans) == pytest.approx(3 / 7)
    assert prefix_repeat_share([]) == 0.0


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.5) == 50.0
    assert percentile(values, 0.99) == 99.0
    assert percentile([], 0.5) == 0.0


def test_benchmark_json_matches_what_runs_report():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == METRICS
