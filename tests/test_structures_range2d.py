"""DominanceSweep vs brute-force counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures import DominanceSweep

pts = st.lists(
    st.tuples(
        st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
    ),
    min_size=1,
    max_size=100,
)


def brute_dominance(xs, ys, t, y_lt):
    return int(np.count_nonzero((xs > t) & (ys < y_lt)))


class TestDominanceSweep:
    def test_small_exact(self):
        sweep = DominanceSweep([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
        assert sweep.count_x_above(4.0) == 0
        # x > 2, y < 2.5  ->  points (3,2) and (4,1).
        assert sweep.count(2.0, 2.5) == 2
        assert sweep.count_x_above(0.0) == 4

    def test_duplicates(self):
        xs = [5.0, 5.0, 5.0]
        ys = [1.0, 2.0, 2.0]
        sweep = DominanceSweep(xs, ys)
        assert sweep.count(5.0, 2.5) == 0
        assert sweep.count(4.9, 2.5) == 3
        assert sweep.count(4.9, 2.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DominanceSweep([], [])
        with pytest.raises(ValueError):
            DominanceSweep([1.0], [1.0, 2.0])

    def test_matches_bruteforce_on_monotone_queries(self, rng):
        xs = rng.exponential(5.0, 400)
        ys = rng.exponential(5.0, 400)
        sweep = DominanceSweep(xs, ys)
        ts = np.sort(rng.uniform(0, 30, 100))[::-1]
        for t in ts:
            y_q = t * 0.7
            assert sweep.count(t, y_q) == brute_dominance(xs, ys, t, y_q)

    def test_count_x_above(self, rng):
        xs = rng.uniform(0, 10, 200)
        ys = rng.uniform(0, 10, 200)
        sweep = DominanceSweep(xs, ys)
        for t in (8.0, 5.0, 1.0, 0.0):
            assert sweep.count_x_above(t) == int(np.sum(xs > t))

    def test_repeated_t_with_varying_y(self, rng):
        xs = rng.uniform(0, 10, 200)
        ys = rng.uniform(0, 10, 200)
        sweep = DominanceSweep(xs, ys)
        for y_q in (7.5, -1.0, 11.0, 3.0):
            assert sweep.count(6.0, y_q) == brute_dominance(xs, ys, 6.0, y_q)

    def test_non_monotone_rejected(self):
        sweep = DominanceSweep([1.0, 2.0], [1.0, 2.0])
        sweep.count(1.5, 1.0)
        with pytest.raises(ValueError):
            sweep.count(1.6, 1.0)
        with pytest.raises(ValueError):
            sweep.count_x_above(1.6)

    @given(pts)
    @settings(max_examples=50, deadline=None)
    def test_property_full_sweep(self, points):
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        sweep = DominanceSweep(xs, ys)
        for t in sorted({p[0] for p in points} | {50.0}, reverse=True):
            assert sweep.count(t, t) == brute_dominance(xs, ys, t, t)

    @given(pts, st.lists(st.floats(-1, 101), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_arbitrary_y_queries(self, points, ys_q):
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        sweep = DominanceSweep(xs, ys)
        ts = sorted((p[0] for p in points), reverse=True)
        for t, y_q in zip(ts, ys_q):
            assert sweep.count(t, y_q) == brute_dominance(xs, ys, t, y_q)
