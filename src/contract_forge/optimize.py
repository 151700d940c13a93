"""Deterministic 1-D searches, many rows at once: golden-section maxima
and bracketed roots.

Objectives here are unimodal up to kinks (participation cutoffs), so
derivative-free bracketing is the safe choice; a kink itself is a root.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["golden_rows", "root_rows"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
_ROOT_MAX_STEPS = 100  # a safeguard: smooth rows close in 4-6 steps, a kink at the root in 13-48


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


def root_rows(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b, ga, gb, tol: float
) -> np.ndarray:
    """Bracketed roots of one function per row, by vectorized Chandrupatla
    steps (Chandrupatla 1997, Adv. Eng. Softw. 28(3)).

    ``g(rows, points)`` evaluates the listed rows (indices into ``a``) at
    their points; ``ga`` and ``gb`` are g at the ends, exactly one of them
    >= 0, whichever way g slopes. Each row keeps a bracket [x1, x2] (x1
    the newest probe) and the point x3 it last discarded. The next probe
    is the inverse quadratic interpolant through the three where
    Chandrupatla's test finds it well placed and the midpoint otherwise,
    kept tol/2 inside the bracket so the bracket closes. A row ends when
    its bracket is narrower than ``tol`` or its newest probe is an exact
    zero, and returns the bracket's end where g >= 0. A row's root does
    not depend on the other rows.
    """
    out = np.empty_like(a)
    rows = np.arange(a.size)
    x1, f1, x2, f2 = a, ga, b, gb
    x3 = f3 = np.full_like(a, np.nan)  # no discarded point yet: bisect first
    for _ in range(_ROOT_MAX_STEPS):
        done = (f1 == 0.0) | (np.abs(x2 - x1) < tol)
        out[rows[done]] = np.where(f1[done] >= 0.0, x1[done], x2[done])
        rows, x1, f1, x2, f2, x3, f3 = (v[~done] for v in (rows, x1, f1, x2, f2, x3, f3))
        if not rows.size:
            return out
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            t = np.where(
                (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                f1 / (f2 - f1) * f3 / (f2 - f3)
                + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2),
                0.5,
            )
        t_min = 0.5 * tol / np.abs(x2 - x1)
        xt = x1 + np.clip(t, t_min, 1.0 - t_min) * (x2 - x1)
        ft = g(rows, xt)
        same = (ft >= 0.0) == (f1 >= 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
    out[rows] = np.where(f1 >= 0.0, x1, x2)
    return out
