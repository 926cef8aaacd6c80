"""Data structures: CDF cursors, dominance counting, sketches."""

from .ecdf import EmpiricalCdf, MonotoneCdfCursor
from .range2d import DominanceSweep
from .tdigest import TDigest

__all__ = [
    "EmpiricalCdf",
    "MonotoneCdfCursor",
    "DominanceSweep",
    "TDigest",
]
