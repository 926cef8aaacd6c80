"""Tests for the correlation-aware optimizer (paper §4.2)."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.correlated as correlated
from repro.core.correlated import (
    ConditionalReissueCdf,
    compute_optimal_singler_correlated,
)
from repro.core.optimizer import SingleRFit, compute_optimal_singler
from repro.store import EmpiricalStore, TraceWriter
from repro.structures.range2d import DominanceSweep


def correlated_pairs(n=3000, r=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.pareto(1.1, n) * 2.0 + 2.0
    z = rng.pareto(1.1, n) * 2.0 + 2.0
    return x, r * x + z


class TestConditionalCdf:
    def test_matches_naive_count(self):
        x, y = correlated_pairs(500)
        cond = ConditionalReissueCdf(x, y)
        for t, yy in [(5.0, 3.0), (10.0, 8.0), (2.0, 50.0)]:
            above = x > t
            if above.sum() == 0:
                expected = 0.0
            else:
                expected = float((y[above] <= yy).sum() / above.sum())
            assert cond(t, yy) == pytest.approx(expected)

    def test_no_mass_above_t(self):
        x = np.array([1.0, 2.0])
        y = np.array([1.0, 2.0])
        cond = ConditionalReissueCdf(x, y)
        assert cond(5.0, 100.0) == 0.0

    def test_positive_correlation_lowers_conditional(self):
        # Under positive correlation, conditioning on a slow primary makes
        # a fast reissue less likely than unconditionally.
        x, y = correlated_pairs(20_000, r=1.0, seed=2)
        cond = ConditionalReissueCdf(x, y)
        t = float(np.quantile(x, 0.95))
        yy = float(np.quantile(y, 0.5))
        unconditional = float((y <= yy).mean())
        assert cond(t, yy) < unconditional


class TestCorrelatedFit:
    def test_feasible_and_on_budget(self):
        x, y = correlated_pairs()
        fit = compute_optimal_singler_correlated(x, x, y, 0.95, 0.1)
        assert 0.0 <= fit.prob <= 1.0
        surv = float((x >= fit.delay).mean())
        assert fit.prob * surv <= 0.1 + 1 / x.size + 1e-9
        assert fit.predicted_tail <= fit.baseline_tail + 1e-9

    def test_independent_pairs_agree_with_independent_optimizer(self):
        # With r=0 the conditional CDF estimator should land near the
        # unconditional fit.
        rng = np.random.default_rng(5)
        x = rng.lognormal(1.0, 1.0, 8000)
        y = rng.lognormal(1.0, 1.0, 8000)
        fit_c = compute_optimal_singler_correlated(x, x, y, 0.95, 0.15)
        fit_i = compute_optimal_singler(x, y, 0.95, 0.15)
        assert fit_c.predicted_tail == pytest.approx(
            fit_i.predicted_tail, rel=0.15
        )

    def test_correlation_makes_optimizer_reissue_earlier(self):
        # §5.3: under service-time correlation the optimal SingleR reissues
        # earlier (larger outstanding fraction) with smaller q.
        x_i, y_i = correlated_pairs(20_000, r=0.0, seed=3)
        x_c, y_c = correlated_pairs(20_000, r=0.9, seed=3)
        fit_i = compute_optimal_singler_correlated(x_i, x_i, y_i, 0.95, 0.1)
        fit_c = compute_optimal_singler_correlated(x_c, x_c, y_c, 0.95, 0.1)
        out_i = float((x_i > fit_i.delay).mean())
        out_c = float((x_c > fit_c.delay).mean())
        assert out_c >= out_i
        assert fit_c.prob <= fit_i.prob + 1e-9

    def test_correlated_fit_predicts_no_better_than_independent_assumption(self):
        # Ignoring positive correlation overestimates reissue value: the
        # correlation-aware predicted tail must be >= the naive one.
        x, y = correlated_pairs(10_000, r=0.8, seed=4)
        naive = compute_optimal_singler(x, y, 0.95, 0.1)
        aware = compute_optimal_singler_correlated(x, x, y, 0.95, 0.1)
        assert aware.predicted_tail >= naive.predicted_tail - 1e-9

    def test_validation(self):
        x, y = correlated_pairs(100)
        with pytest.raises(ValueError):
            compute_optimal_singler_correlated([], x, y, 0.9, 0.1)
        with pytest.raises(ValueError):
            compute_optimal_singler_correlated(x, x[:10], y[:5], 0.9, 0.1)
        with pytest.raises(ValueError):
            compute_optimal_singler_correlated(x, x, y, 1.5, 0.1)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    r=st.floats(0.0, 1.0),
    budget=st.floats(0.05, 0.5),
)
def test_property_correlated_fit_invariants(seed, r, budget):
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.5, 1.0, 500)
    y = r * x + rng.lognormal(0.5, 1.0, 500)
    fit = compute_optimal_singler_correlated(x, x, y, 0.9, budget)
    assert 0.0 <= fit.prob <= 1.0
    assert fit.predicted_tail <= fit.baseline_tail + 1e-9
    assert 0.0 <= fit.predicted_success <= 1.0


# -- bit-for-bit equivalence with the per-probe formulation -------------------


def oracle_fit(rx, pair_x, pair_y, percentile, budget, *, presorted=False):
    """Frozen reference for the correlated Figure-1 sweep.

    The per-probe formulation the windowed/list-backed sweep replaced:
    ``DiscreteCDF`` by a ``searchsorted`` per probe and the conditional
    counts by brute-force ``np.count_nonzero``. Shares no code with
    :mod:`repro.core.correlated`. Returns the fit and the ``t`` of every
    success-rate evaluation, in order.
    """
    rx = (
        np.asarray(rx, dtype=np.float64)
        if presorted
        else np.sort(np.asarray(rx, dtype=np.float64))
    )
    pair_x = np.asarray(pair_x, dtype=np.float64)
    pair_y = np.asarray(pair_y, dtype=np.float64)
    n = rx.size
    probes = []

    def discrete_cdf(v):
        return float(np.searchsorted(rx, v, side="left")) / n

    def conditional(t, y):
        x_above = pair_x > t
        above = int(np.count_nonzero(x_above))
        if above == 0:
            return 0.0
        return int(np.count_nonzero(x_above & (pair_y < y))) / above

    def success_rate(t, d):
        probes.append(float(t))
        p_x_le_t = discrete_cdf(t)
        p_x_gt_d = 1.0 - discrete_cdf(d)
        if p_x_gt_d <= 0.0:
            return p_x_le_t
        q = min(1.0, budget / p_x_gt_d)
        return p_x_le_t + q * (1.0 - p_x_le_t) * conditional(t, t - d)

    i = 0
    j = n - 1
    d_star = rx[0]
    t = rx[j]
    i_max = max(int(np.ceil(n * (1.0 - budget))) - 1, 0)
    while i <= min(j, i_max):
        d = rx[i]
        i += 1
        while j > 0 and rx[j - 1] >= d:
            t_next = rx[j - 1]
            if success_rate(t_next, d) < percentile:
                break
            j -= 1
            t = t_next
            d_star = d

    p_x_ge_d = 1.0 - discrete_cdf(d_star)
    q = 1.0 if p_x_ge_d <= budget else budget / p_x_ge_d
    p_x_le_t = discrete_cdf(t)
    success = p_x_le_t + min(1.0, budget / max(p_x_ge_d, 1e-300)) * (
        1.0 - p_x_le_t
    ) * conditional(t, t - d_star)
    fit = SingleRFit(
        delay=float(d_star),
        prob=float(q),
        predicted_tail=float(t),
        predicted_success=float(success),
        baseline_tail=float(np.quantile(rx, percentile, method="higher")),
        budget=float(budget),
        percentile=float(percentile),
    )
    return fit, probes


def bits(fit):
    return repr(dataclasses.astuple(fit))


def assert_matches_oracle(rx, pair_x, pair_y, percentile, budget, **kwargs):
    want, probes = oracle_fit(rx, pair_x, pair_y, percentile, budget, **kwargs)
    original = DominanceSweep.count_x_above
    calls = []

    def counted(self, t):
        calls.append(t)
        return original(self, t)

    DominanceSweep.count_x_above = counted
    try:
        got = compute_optimal_singler_correlated(
            rx, pair_x, pair_y, percentile, budget, **kwargs
        )
    finally:
        DominanceSweep.count_x_above = original
    assert bits(got) == bits(want)
    # Same probe sequence: one count_x_above per success-rate evaluation.
    assert calls == probes
    return got


PERCENTILES = (0.5, 0.95, 0.999)
BUDGETS = (0.02, 0.1, 0.35, 1.0)


def integer_log(rng, size, high):
    """Integer-valued latencies: ties and duplicates everywhere."""
    return rng.integers(1, high, size).astype(np.float64)


class TestOracleEquivalence:
    @pytest.mark.parametrize("percentile", PERCENTILES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_continuous_correlated_pairs(self, percentile, budget):
        x, y = correlated_pairs(3000, r=0.6, seed=11)
        assert_matches_oracle(x, x[::3], y[::3], percentile, budget)

    @pytest.mark.parametrize("percentile", PERCENTILES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_integer_samples_with_ties(self, percentile, budget):
        rng = np.random.default_rng(7)
        rx = integer_log(rng, 2000, 40)
        px = integer_log(rng, 300, 40)
        py = integer_log(rng, 300, 25)
        assert_matches_oracle(rx, px, py, percentile, budget)

    @pytest.mark.parametrize("percentile", PERCENTILES)
    def test_single_pair(self, percentile):
        x, _ = correlated_pairs(1500, seed=3)
        for pair in ((8.0, 1.0), (float(x.max()) + 1.0, 0.5), (2.0, 100.0)):
            assert_matches_oracle(x, [pair[0]], [pair[1]], percentile, 0.1)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_pairs_below_every_t(self, budget):
        # Every pair's primary is below the smallest sample, so no probe
        # ever sees X > t: the conditional term is 0 throughout.
        x, _ = correlated_pairs(1500, seed=4)
        px = np.full(40, float(x.min()) - 1.0)
        py = np.linspace(0.1, 5.0, 40)
        fit = assert_matches_oracle(x, px, py, 0.95, budget)
        assert fit.predicted_tail == fit.baseline_tail

    def test_budget_one_sweeps_from_the_minimum(self):
        x, y = correlated_pairs(2500, r=0.3, seed=5)
        fit = assert_matches_oracle(x, x, y, 0.95, 1.0)
        assert fit.delay == float(np.min(x))

    def test_tiny_logs(self):
        for rx in ([3.0], [2.0, 2.0], [1.0, 5.0, 5.0, 9.0]):
            assert_matches_oracle(rx, [4.0, 6.0], [1.0, 2.0], 0.5, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        n_pairs=st.integers(1, 120),
        integer_valued=st.booleans(),
        percentile=st.sampled_from(PERCENTILES),
        budget=st.one_of(st.sampled_from(BUDGETS), st.floats(0.01, 1.0)),
    )
    def test_property_matches_oracle(
        self, seed, n, n_pairs, integer_valued, percentile, budget
    ):
        rng = np.random.default_rng(seed)
        if integer_valued:
            rx = integer_log(rng, n, 12)
            px = integer_log(rng, n_pairs, 12)
            py = integer_log(rng, n_pairs, 8)
        else:
            rx = rng.lognormal(1.0, 0.8, n)
            px = rng.lognormal(1.0, 0.8, n_pairs)
            py = 0.5 * px + rng.lognormal(0.5, 0.5, n_pairs)
        assert_matches_oracle(rx, px, py, percentile, budget)


def write_sorted_store(path, samples, *, block_records=256):
    with TraceWriter(path, block_records=block_records, sorted=True) as w:
        w.append(np.sort(np.asarray(samples, dtype=np.float64)))
    return EmpiricalStore(path)


class TestStoreBackedWindows:
    @pytest.mark.parametrize("window", [1, 2, 7, 64])
    @pytest.mark.parametrize("percentile", PERCENTILES)
    def test_presorted_mmap_refills_windows(
        self, tmp_path, monkeypatch, window, percentile
    ):
        rng = np.random.default_rng(21)
        # Tenths: many ties, and duplicates straddling window edges.
        tenths = np.round(rng.uniform(0, 1, 1200), 1)
        samples = integer_log(rng, 1200, 300) + tenths
        px = rng.choice(samples, 200)
        py = 0.4 * px + rng.lognormal(1.0, 0.5, 200)
        store = write_sorted_store(tmp_path / "s.store", samples)
        monkeypatch.setattr(correlated, "_WINDOW", window)
        for budget in (0.05, 0.3, 1.0):
            got = assert_matches_oracle(
                store.sorted_samples, px, py, percentile, budget,
                presorted=True,
            )
            in_memory = compute_optimal_singler_correlated(
                samples, px, py, percentile, budget
            )
            assert bits(got) == bits(in_memory)
        store.close()

    def test_fit_memory_bounded_on_large_store(self, tmp_path):
        # A 2M-sample log must stay in the mmap: the fit's Python-object
        # footprint is two windows plus the pair log, far below the
        # n * 32 bytes a per-sample float list would take. Reissues that
        # never help (y huge) and B = 1 make the sweep a single descent of
        # t from the maximum to the p99 — ~20k probes across several
        # window refills, cheap enough under tracemalloc.
        n = 2_000_000
        rng = np.random.default_rng(0x5EED)
        store = write_sorted_store(
            tmp_path / "big.store", rng.lognormal(2.0, 0.6, n),
            block_records=1 << 18,
        )
        px = rng.lognormal(2.0, 0.6, 2000)
        py = px + 1e6
        rx = store.sorted_samples
        tracemalloc.start()
        try:
            fit = compute_optimal_singler_correlated(
                rx, px, py, 0.99, 1.0, presorted=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit.predicted_tail == fit.baseline_tail
        assert peak < n * 32 / 16, f"peak {peak} B for n={n}"
        store.close()
