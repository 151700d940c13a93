"""Deterministic 1-D maximization by golden-section search, many rows at once.

Objectives here are unimodal up to kinks (participation cutoffs), so
derivative-free bracketing is the safe choice.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["golden_rows"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b, tol: float, group=None
) -> np.ndarray:
    """Golden-section maximizers of one objective per row on [a, b].

    ``f(rows, points)`` returns the objective of each listed row (indices
    into ``a`` and ``b``) at its point. The rows of one group (every row,
    without ``group``) take the step count of their widest bracket, or
    the bracket midpoints when it is within ``tol``; rows with equal
    counts share each call of ``f``, so a row's result does not depend on
    the other groups in the call.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    group = np.zeros(a.size, dtype=int) if group is None else np.asarray(group)
    widest = np.zeros(group.max() + 1)
    np.maximum.at(widest, group, b - a)
    counts = [math.ceil(math.log(tol / w) / math.log(_INV_PHI)) if w > tol else 0 for w in widest]
    steps = np.array(counts)[group]
    x = 0.5 * (a + b)
    for n in sorted(set(counts) - {0}):
        rows = np.flatnonzero(steps == n)
        lo, hi = a[rows], b[rows]
        dist = hi - lo
        c = lo + _INV_PHI_SQ * dist
        d = lo + _INV_PHI * dist
        fc, fd = f(rows, c), f(rows, d)
        for _ in range(n - 1):
            left = fc > fd  # maximum bracketed in [lo, d] where true, [c, hi] where false
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            dist = dist * _INV_PHI
            c = lo + _INV_PHI_SQ * dist  # equals the surviving old point on one side
            d = lo + _INV_PHI * dist
            fp = f(rows, np.where(left, c, d))
            fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        x[rows] = np.where(fc > fd, 0.5 * (lo + d), 0.5 * (c + hi))
    return x
