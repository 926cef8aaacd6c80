"""Pure helpers behind the benchmark's numbers (stdlib only, unit-tested).

Nothing here imports ``repro`` or numpy: the set-up timing in ``run.py``
must see the program's own import cost, not ours.
"""

from __future__ import annotations

import math

#: Percentiles a latency sample may be summarised at, lowest first.
CANDIDATE_PERCENTILES = (0.5, 0.9, 0.99, 0.999, 0.9999)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def highest_supported_percentile(n: int, candidates=CANDIDATE_PERCENTILES):
    """The highest candidate percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it, or ``None`` when even the lowest has fewer.

    1,000 samples support p99 (ten beyond it); 999 do not.
    """
    best = None
    for p in sorted(candidates):
        # Round before flooring so 1000 * (1 - 0.99) = 9.999... counts as 10.
        if math.floor(round(n * (1.0 - p), 9)) >= MIN_BEYOND:
            best = p
    return best


def quantile(sorted_values, p: float) -> float:
    """Linear-interpolation quantile (numpy's default) of sorted values."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of an empty sample")
    pos = p * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def covered_length(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's self time: its duration minus the part of its interval
    covered by its child spans (overlapping children count once)."""
    return (end - start) - covered_length(children, start, end)


def lateness_grows(
    per_second_ms, *, min_rise_ms: float = 10.0, step_ms: float = 1.0
) -> bool:
    """True when generator lateness keeps growing across a rung.

    ``per_second_ms`` is the rung's lateness (ms) per one-second window.
    It "keeps growing" when no window falls more than ``step_ms`` below
    the one before it and the last window is at least ``min_rise_ms``
    above the first — the signature of a backlog the system is not
    draining. A single late spike that recovers is not growth.
    """
    series = list(per_second_ms)
    if len(series) < 2:
        return False
    if any(b < a - step_ms for a, b in zip(series, series[1:])):
        return False
    return series[-1] - series[0] >= min_rise_ms


def max_rate_search(start: float, *, factor: float, ceiling: float,
                    floor: float, bisections: int):
    """Search for the highest rate that passes, as a generator.

    Yields each rate to try; send back whether it passed. Climbs from
    ``start`` by ``factor`` until a rate fails or the next would pass
    ``ceiling``, then bisects (geometrically) between the last pass and
    the first failure ``bisections`` times. If ``start`` fails, walks
    down by ``factor`` until a rate passes or ``floor`` is reached.
    Returns (as ``StopIteration.value``) the best passing rate, or
    ``None`` if none passed.
    """
    lo = hi = None
    rate = start
    if (yield rate):
        lo = rate
        while rate * factor <= ceiling:
            rate *= factor
            if (yield rate):
                lo = rate
            else:
                hi = rate
                break
    else:
        hi = rate
        while rate / factor >= floor:
            rate /= factor
            if (yield rate):
                lo = rate
                break
            hi = rate
    if lo is not None and hi is not None:
        for _ in range(bisections):
            mid = math.sqrt(lo * hi)
            if (yield mid):
                lo = mid
            else:
                hi = mid
    return lo


#: Fingerprint keys that must agree before two results may be compared.
FINGERPRINT_KEYS = (
    "nproc",
    "cpu_model",
    "python",
    "numpy",
    "scipy",
    "numba",
    "fastsim_default_tier",
)


def fingerprint_mismatch(a: dict, b: dict) -> list[str]:
    """Names of the fingerprint fields on which two results differ.

    The workload seed is recorded but deliberately not compared: runs on
    different seeds are how the benchmark measures its own spread.
    A field missing on either side counts as a difference.
    """
    return [
        key
        for key in FINGERPRINT_KEYS
        if key not in a or key not in b or a[key] != b[key]
    ]
