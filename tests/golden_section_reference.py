"""Golden-section search over many rows, frozen from the solver as it was
before Brent's method replaced it: the reference that the solver's
kink-aware inner search is checked against in ``test_solver_single.py``."""

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_rows_reference(f, a, b, tol, group=None):
    """Golden-section maximizers of one objective per row on [a, b], one
    pass per distinct step count: the rows of a group take the step count
    of their widest bracket, or return their midpoints when it is within
    ``tol``. A tie steps right, except a tie at 0, which steps left."""
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
            left = (fc > fd) | ((fc == 0.0) & (fd == 0.0))
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            dist = dist * _INV_PHI
            c = lo + _INV_PHI_SQ * dist
            d = lo + _INV_PHI * dist
            fp = f(rows, np.where(left, c, d))
            fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        x[rows] = np.where((fc > fd) | ((fc == 0.0) & (fd == 0.0)), 0.5 * (lo + d), 0.5 * (c + hi))
    return x
