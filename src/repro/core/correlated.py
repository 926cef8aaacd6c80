"""Correlation-aware SingleR parameter search (paper §4.2).

Replaces the unconditional reissue CDF ``Pr(Y <= t - d)`` in the success
rate with the conditional ``Pr(Y <= t - d | X > t)`` estimated from a log
of (primary, reissue) response-time *pairs*. The Figure-1 sweep queries
``t`` in non-increasing order, so a
:class:`~repro.structures.range2d.DominanceSweep` answers each conditional
query with one ``bisect`` and a Fenwick prefix walk over Python lists —
O(log N), keeping the whole search at O(N log N).

The remaining per-probe terms are table lookups. ``DiscreteCDF(RX, x)`` of
each sample ``x`` comes from one vectorized ``searchsorted`` per block of
the sorted log. Both pointers of the sweep move monotonically (``d`` up,
``t`` down), so those tables are materialized in windows of ``_WINDOW``
samples and refilled when a pointer leaves its window: a 10M-sample store
mmap never becomes 10M Python objects. The probes and their floating-point
operations are exactly the pseudocode's, so a fit is bit-for-bit the one a
per-probe ``searchsorted`` evaluation gives.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..structures.range2d import DominanceSweep
from .optimizer import SingleRFit, discrete_cdf, quantile_higher_sorted

# Samples per materialized window of the sorted log (values and CDFs).
_WINDOW = 4096


class ConditionalReissueCdf:
    """Estimator of ``Pr(Y < y | X > t)`` from paired samples.

    Random-access variant: each query counts the pair arrays directly.
    The optimizer's monotone access pattern uses
    :class:`~repro.structures.range2d.DominanceSweep` instead.
    """

    def __init__(self, pair_x, pair_y):
        self._x = np.asarray(pair_x, dtype=np.float64)
        self._y = np.asarray(pair_y, dtype=np.float64)
        if self._x.shape != self._y.shape or self._x.ndim != 1:
            raise ValueError(
                "pair_x and pair_y must be equal-length 1-D arrays"
            )
        if self._x.size == 0:
            raise ValueError("need at least one pair")

    def __call__(self, t: float, y: float) -> float:
        x_above = self._x > t
        above = int(np.count_nonzero(x_above))
        if above == 0:
            return 0.0
        return int(np.count_nonzero(x_above & (self._y < y))) / above


def _window(rx: np.ndarray, lo: int, hi: int) -> tuple[list, list]:
    """``rx[lo:hi]`` and ``DiscreteCDF(rx, .)`` of each, as Python lists."""
    values = rx[lo:hi]
    cdf = np.searchsorted(rx, values, side="left") / rx.size
    return values.tolist(), cdf.tolist()


def compute_optimal_singler_correlated(
    rx,
    pair_x,
    pair_y,
    percentile: float,
    budget: float,
    *,
    presorted: bool = False,
) -> SingleRFit:
    """Fit the optimal SingleR policy accounting for X/Y correlation.

    Parameters
    ----------
    rx:
        Log of primary response times (all queries).
    pair_x, pair_y:
        Paired logs: for each query that issued a reissue, the primary
        response time and the reissue response time (measured from the
        reissue's own dispatch). Used to estimate the conditional CDF.
    percentile, budget:
        As in :func:`repro.core.optimizer.compute_optimal_singler`.

    The search is the Figure-1 sweep with line 19's ``Pr(Y <= t-d)``
    replaced by ``Pr(Y <= t-d | X > t)``. ``presorted=True`` skips the
    sort *copy* of ``rx`` — the store-backed path hands in the sorted
    mmap of an :class:`repro.store.EmpiricalStore` directly, so only the
    (small) pair log and two windows of ``rx`` live in RAM.
    """
    rx = (
        np.asarray(rx, dtype=np.float64)
        if presorted
        else np.sort(np.asarray(rx, dtype=np.float64))
    )
    pair_x = np.asarray(pair_x, dtype=np.float64)
    pair_y = np.asarray(pair_y, dtype=np.float64)
    if rx.size == 0:
        raise ValueError("rx must be non-empty")
    if pair_x.size == 0 or pair_x.shape != pair_y.shape:
        raise ValueError("pair_x and pair_y must be non-empty and equal length")
    if not 0.0 < percentile < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"budget must be in (0, 1], got {budget}")

    sweep = DominanceSweep(pair_x, pair_y)
    count_x_above = sweep.count_x_above
    y_sorted = sweep.y_sorted
    tree = sweep.tree

    n = rx.size
    i = 0
    j = n - 1
    d_star = float(rx[0])
    t = float(rx[j])
    # Eq. 5: only delays with Pr(X > d) >= B can spend the budget.
    i_max = max(int(np.ceil(n * (1.0 - budget))) - 1, 0)
    # Window of d = rx[i] starts at lo; window of t = rx[j - 1] at hi.
    lo = 0
    lo_x, lo_cdf = _window(rx, lo, _WINDOW)
    hi = max(n - _WINDOW, 0)
    hi_x, hi_cdf = _window(rx, hi, n)

    # As in the independent optimizer: commit a smaller t only after
    # verifying feasibility at (t_next, d) — see the DESIGN.md note on the
    # Figure 1 inner-loop discrepancy.
    while i <= min(j, i_max):
        if i - lo >= len(lo_x):
            lo = i
            lo_x, lo_cdf = _window(rx, lo, lo + _WINDOW)
        d = lo_x[i - lo]
        # d is a sample, so DiscreteCDF(RX, d) <= (n - 1) / n < 1 and
        # Pr(X > d) is positive.
        p_x_gt_d = 1.0 - lo_cdf[i - lo]
        q = min(1.0, budget / p_x_gt_d)
        i += 1
        while j > 0:
            if j <= hi:
                hi = max(j - _WINDOW, 0)
                hi_x, hi_cdf = _window(rx, hi, j)
            t_next = hi_x[j - 1 - hi]
            if not t_next >= d:
                break
            # success_rate(t_next, d) =
            #     Pr(X <= t) + q Pr(X > t) Pr(Y <= t - d | X > t).
            p_x_le_t = hi_cdf[j - 1 - hi]
            above = count_x_above(t_next)
            if above:
                k = bisect_left(y_sorted, t_next - d)
                below = 0
                while k:
                    below += tree[k]
                    k &= k - 1
                p_y_cond = below / above
            else:
                p_y_cond = 0.0
            success = p_x_le_t + q * (1.0 - p_x_le_t) * p_y_cond
            if success < percentile:
                break
            j -= 1
            t = t_next
            d_star = d

    p_x_ge_d = 1.0 - discrete_cdf(rx, d_star)
    q = 1.0 if p_x_ge_d <= budget else budget / p_x_ge_d
    p_x_le_t = discrete_cdf(rx, t)
    cond = ConditionalReissueCdf(pair_x, pair_y)
    success = p_x_le_t + min(1.0, budget / max(p_x_ge_d, 1e-300)) * (
        1.0 - p_x_le_t
    ) * cond(t, t - d_star)
    # Bit-identical to np.quantile(..., method="higher") on sorted data,
    # without copying a potentially memory-mapped rx.
    baseline = (
        quantile_higher_sorted(rx, percentile)
        if presorted
        else float(np.quantile(rx, percentile, method="higher"))
    )
    return SingleRFit(
        delay=float(d_star),
        prob=float(q),
        predicted_tail=float(t),
        predicted_success=float(success),
        baseline_tail=baseline,
        budget=float(budget),
        percentile=float(percentile),
    )
