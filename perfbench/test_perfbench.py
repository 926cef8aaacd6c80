"""Unit tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/`` from the repository root.
"""

import asyncio
import math

import pytest

import probes
from stats import (
    covered_length,
    fingerprint_mismatch,
    highest_supported_percentile,
    lateness_grows,
    max_rate_search,
    quantile,
    self_time,
)


# -- the "highest percentile with >= 10 samples beyond it" rule --------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 0.5),
        (99, 0.5),
        (100, 0.9),
        (999, 0.9),
        (1000, 0.99),
        (9999, 0.99),
        (10000, 0.999),
        (100000, 0.9999),
        (10**7, 0.9999),
    ],
)
def test_highest_supported_percentile(n, expected):
    assert highest_supported_percentile(n) == expected


def test_quantile_interpolates_like_numpy():
    values = [1.0, 2.0, 3.0, 4.0]
    assert quantile(values, 0.0) == 1.0
    assert quantile(values, 1.0) == 4.0
    assert quantile(values, 0.5) == 2.5
    assert quantile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


# -- the max_rps_at_slo search ------------------------------------------------


def _search(capacity, start=1000.0, **kw):
    """Drive the search generator against a fleet that passes every rate
    up to ``capacity``; returns ``(best, [(rate, passed), ...])``."""
    opts = dict(factor=1.4, ceiling=20000.0, floor=100.0, bisections=2)
    opts.update(kw)
    tried = []
    search = max_rate_search(start, **opts)
    try:
        rate = next(search)
        while True:
            tried.append((rate, rate <= capacity))
            rate = search.send(tried[-1][1])
    except StopIteration as stop:
        return stop.value, tried


def test_search_climbs_then_bisects_below_capacity():
    best, tried = _search(2500.0)
    rates = [r for r, _ in tried]
    assert rates[:3] == pytest.approx([1000.0, 1400.0, 1960.0])
    assert tried[3] == (pytest.approx(2744.0), False)
    assert len(tried) == 6  # 3 passing climbs, 1 failure, 2 bisections
    assert best <= 2500.0
    assert best > 1960.0  # bisection improved on the last climbing pass
    assert all(ok == (rate <= 2500.0) for rate, ok in tried)


def test_search_walks_down_when_the_start_fails():
    best, tried = _search(600.0)
    assert tried[0] == (1000.0, False)
    assert best is not None and best <= 600.0
    assert tried[1] == (pytest.approx(1000.0 / 1.4), False)
    assert tried[2][1] is True


def test_search_stops_at_the_ceiling_and_the_floor():
    best, tried = _search(math.inf, ceiling=3000.0)
    assert best == pytest.approx(2744.0)  # the next climb, 3841.6, is past it
    assert all(ok for _, ok in tried)
    best, tried = _search(0.0, floor=500.0)
    assert best is None
    assert min(r for r, _ in tried) >= 500.0


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_covered_child_time_once():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # Overlapping children (concurrent attempts) cover their union once.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    # Children are clipped to the parent's interval.
    assert self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)
    assert covered_length([(0.0, 1.0)], 5.0, 6.0) == 0.0


def test_layers_self_time_per_layer_from_nested_spans():
    layers = probes.Layers()

    def inner():
        return sum(range(20000))

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = layers.wrap(inner, "inner", "low")
    wrapped_outer = layers.wrap(outer, "outer", "high")
    with layers.root("job", "bench"):
        wrapped_outer()
    by_layer = layers.self_seconds()
    total = next(end - start for _, parent, name, _, start, end in layers.spans if name == "job")
    assert set(by_layer) == {"bench", "high", "low"}
    assert sum(by_layer.values()) == pytest.approx(total)
    assert by_layer["low"] == pytest.approx(layers.seconds["inner"])
    assert layers.calls["inner"] == 2


def test_async_spans_nest_per_request():
    layers = probes.Layers()

    async def child(delay):
        await asyncio.sleep(delay)

    async def parent(delay):
        await wrapped_child(delay)

    wrapped_child = layers.wrap(child, "child", "low")
    wrapped_parent = layers.wrap(parent, "parent", "high")

    async def main():
        await asyncio.gather(wrapped_parent(0.02), wrapped_parent(0.01))

    asyncio.run(main())
    ids = {span[0]: span for span in layers.spans}
    children = [s for s in layers.spans if s[2] == "child"]
    assert len(children) == 2
    for span in children:
        assert ids[span[1]][2] == "parent"
    # Each parent's self time excludes only its own child.
    assert all(t < 0.005 for t in layers.span_self_times("parent"))


def test_patch_and_restore_module_class_and_instance():
    class Thing:
        def value(self):
            return 1

        @property
        def flag(self):
            return True

    thing = Thing()
    layers = probes.Layers()
    layers.patch(Thing, "flag", "flag", mode="count")
    layers.patch(thing, "value", "value", mode="timed")
    assert thing.flag and thing.flag and thing.value() == 1
    assert layers.count("flag") == 2
    assert layers.calls["value"] == 1
    layers.restore()
    assert "value" not in vars(thing)
    assert isinstance(vars(Thing)["flag"], property)
    assert thing.flag and layers.count("flag") == 2


# -- backlog growth ----------------------------------------------------------


def test_lateness_growth_detection():
    assert not lateness_grows([])
    assert not lateness_grows([50.0])
    assert not lateness_grows([1.2, 1.3, 1.1, 1.4])  # flat
    assert not lateness_grows([1.2, 45.0, 1.3])  # one stall that recovered
    assert lateness_grows([1.0, 40.0, 90.0, 160.0])  # a backlog building
    assert lateness_grows([2.0, 14.0])
    assert not lateness_grows([2.0, 9.0])  # below the minimum rise
    assert not lateness_grows([1.0, 40.0, 30.0, 90.0])  # fell in between


# -- fingerprint matching ----------------------------------------------------


BASE = {
    "nproc": 2,
    "cpu_model": "Example CPU",
    "python": "3.11.7",
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "numba": False,
    "fastsim_default_tier": "numpy",
    "seed": 1,
}


def test_fingerprints_match_across_seeds():
    assert fingerprint_mismatch(BASE, dict(BASE, seed=2)) == []


@pytest.mark.parametrize(
    "key, value",
    [("nproc", 1), ("cpu_model", "Other"), ("numpy", "1.26.4"),
     ("numba", True), ("fastsim_default_tier", "compiled")],
)
def test_fingerprint_difference_is_named(key, value):
    assert fingerprint_mismatch(BASE, dict(BASE, **{key: value})) == [key]


def test_missing_fingerprint_field_is_a_difference():
    partial = {k: v for k, v in BASE.items() if k != "scipy"}
    assert fingerprint_mismatch(BASE, partial) == ["scipy"]


def test_compare_refuses_records_from_different_machines(tmp_path, capsys):
    import json

    import run

    def record(name, **fingerprint):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "serve-loop",
            "trace": 0,
            "fingerprint": dict(BASE, **fingerprint),
            "result": {"metrics": {"p50_ms": {"value": 2.0, "unit": "ms"}}},
        }))
        return str(path)

    same = record("a.json"), record("b.json", seed=7)
    assert run.compare(same) == 0
    assert "p50_ms" in capsys.readouterr().out
    other = record("a.json"), record("c.json", nproc=1)
    assert run.compare(other) == 2
    assert "nproc" in capsys.readouterr().err
