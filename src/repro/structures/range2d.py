"""2-D dominance counting for monotone sweeps.

Section 4.2 estimates the conditional CDF ``Pr(Y <= t - d | X > t)`` from a
log of (primary, reissue) response-time pairs. The optimizer only ever
asks for ``|{X > t, Y < y}|`` with ``t`` non-increasing, so
:class:`DominanceSweep` answers it with a list-backed Fenwick tree keyed by
y-rank: points enter the tree as ``t`` falls below their x, and each query
is one ``bisect`` plus a prefix walk. Random-access counts need no index at
all — a vectorized ``np.count_nonzero`` over the pair arrays is exact and
cheap at pair-log sizes.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


class DominanceSweep:
    """Amortized dominance counting for monotone (t, y) query sequences.

    The optimizer queries ``|{X > t, Y < y}|`` with ``t`` non-increasing.
    Construction sorts the points by x descending and ranks their y-values
    with array calls; after that everything lives in Python lists. As
    ``t`` decreases, :meth:`count_x_above` inserts the newly qualifying
    points (``x > t``) into a Fenwick tree over 1-based y-rank slots
    (:attr:`tree`), and :meth:`count` adds a ``bisect_left`` on
    :attr:`y_sorted` and a prefix walk. Total cost O(N log N) for any
    sweep, O(log N) per query. The correlated optimizer inlines that walk
    over :attr:`tree` and :attr:`y_sorted` in its probe loop.
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be equal-length 1-D arrays")
        if xs.size == 0:
            raise ValueError("need at least one point")
        self._n = xs.size
        desc = np.argsort(-xs, kind="stable")
        self._x_desc = xs[desc].tolist()
        y_sorted = np.sort(ys)
        # Fenwick slot of each point: 1 + |{ys < y}|, so ties share a slot
        # and a prefix walk from bisect_left(y_sorted, y) counts ``Y < y``.
        self._slot_desc = (
            np.searchsorted(y_sorted, ys[desc], side="left") + 1
        ).tolist()
        self.y_sorted: list[float] = y_sorted.tolist()
        self.tree: list[int] = [0] * (self._n + 1)
        self._inserted = 0
        self._last_t = np.inf

    @property
    def n(self) -> int:
        return self._n

    def count_x_above(self, t: float) -> int:
        """``|{X > t}|``; advances the sweep, so ``t`` must not increase."""
        if t > self._last_t:
            raise ValueError(
                f"non-monotone sweep: t={t} after t={self._last_t}"
            )
        self._last_t = t
        k = self._inserted
        n = self._n
        x_desc = self._x_desc
        if k < n and x_desc[k] > t:
            tree = self.tree
            slots = self._slot_desc
            while k < n and x_desc[k] > t:
                i = slots[k]
                while i <= n:
                    tree[i] += 1
                    i += i & -i
                k += 1
            self._inserted = k
        return k

    def count(self, t: float, y_lt: float) -> int:
        """``|{X > t, Y < y_lt}|``; successive ``t`` must be non-increasing."""
        self.count_x_above(t)
        tree = self.tree
        i = bisect_left(self.y_sorted, y_lt)
        total = 0
        while i:
            total += tree[i]
            i &= i - 1
        return total
