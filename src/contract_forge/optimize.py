"""Deterministic 1-D searches, many rows at once: maxima by Brent's
method and bracketed roots.

Objectives here are unimodal up to kinks (participation cutoffs), so
derivative-free bracketing is the safe choice; a kink itself is a root.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["line_max_rows", "root_rows"]

_GOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden-section fraction of a bracket
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_ROOT_MAX_STEPS = 100  # a safeguard: smooth rows close in 4-6 steps, a kink at the root in 13-48


def line_max_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b, tol: float) -> np.ndarray:
    """Maximizers of one objective per row on [a, b], by Brent's method
    (Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 5;
    the stopping rule of netlib's ``fmin``), turned to maxima.

    ``f(rows, points)`` returns the objective of each listed row (indices
    into ``a`` and ``b``) at its point, always inside the row's bracket.
    Each row keeps Brent's state: its bracket, its best point x, the
    points w and v before it, and its last two steps d and e. A step goes
    to the vertex of the parabola through x, w and v where that lies
    inside the bracket and moves less than half the step before last;
    otherwise it is a golden-section step into the larger side. No probe
    lies within tol1 = sqrt(eps)*|x| + tol/3 of x or within 2*tol1 of
    the bracket's ends. A row leaves with x once
    |x - m| <= 2*tol1 - (b - a)/2, m the bracket's midpoint: x is then
    within 2*tol1 of a unimodal row's maximum (near a smooth maximum f is
    flat to rounding within about sqrt(eps)*|x| anyway). A bracket within
    ``tol`` (``tol`` > 0) returns its midpoint without a call of ``f``.
    All rows still stepping share one call of ``f`` per step, so a row's
    result does not depend on the other rows. A probe at least as good as
    x replaces it, except on a tie at 0: both then sit on a participation
    objective's no-trade plateau, which lies past its bump (no type stays
    at larger y), so the left one is kept.
    """
    a, b = (np.array(v, dtype=float, ndmin=1) for v in (a, b))
    out = 0.5 * (a + b)
    rows = np.flatnonzero(b - a > tol)
    a, b = a[rows], b[rows]
    x = w = v = a + _GOLD * (b - a)
    fx = fw = fv = f(rows, x) if rows.size else x  # no call of f without rows
    d = e = np.zeros(rows.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            m, tol1 = 0.5 * (a + b), _SQRT_EPS * np.abs(x) + tol / 3.0
            if np.count_nonzero(done := ~(np.abs(x - m) > 2.0 * tol1 - 0.5 * (b - a))):  # NaN leaves too
                out[rows[done]] = x[done]
                keep = ~done
                rows, a, b, x, w, v, fx, fw, fv, d, e, m, tol1 = (
                    t[keep] for t in (rows, a, b, x, w, v, fx, fw, fv, d, e, m, tol1)
                )
                if not rows.size:
                    break
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = np.where(q > 0.0, -p, p), np.abs(q)
            r = np.where(np.abs(e) > tol1, e, 0.0)  # the step before last, where a parabola is tried
            para = (np.abs(p) < np.abs(0.5 * q * r)) & (q * (a - x) < p) & (p < q * (b - x))
            step, golden = p / q, np.where(x < m, b, a) - x
            near_end = (x + step - a < 2.0 * tol1) | (b - (x + step) < 2.0 * tol1)  # step tol1 inward instead
            step = np.where(near_end, np.where(x < m, tol1, -tol1), step)
            d, e = np.where(para, step, _GOLD * golden), np.where(para, d, golden)
            u = np.where(np.abs(d) >= tol1, x + d, x + np.where(d > 0.0, tol1, -tol1))
            fu = f(rows, u)
            better = (fu > fx) | ((fu == fx) & ((fx != 0.0) | (u < x)))
            lower = better == (u >= x)  # the bracket's lower end moves, to x or u
            end = np.where(better, x, u)
            a, b = np.where(lower, end, a), np.where(lower, b, end)
            to_w = better | (fu >= fw) | (w == x)  # w moves to v
            to_v = ~to_w & ((fu >= fv) | (v == x) | (v == w))  # u replaces v
            v, fv = np.where(to_w, w, np.where(to_v, u, v)), np.where(to_w, fw, np.where(to_v, fu, fv))
            w, fw = np.where(better, x, np.where(to_w, u, w)), np.where(better, fx, np.where(to_w, fu, fw))
            x, fx = np.where(better, u, x), np.where(better, fu, fx)
    return out


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
    kept tol/2 inside the bracket so the bracket closes; the first step,
    with no x3 yet, takes the midpoint without the test. A row leaves at
    the step its bracket gets narrower than ``tol`` or its newest probe is
    an exact zero, returning the bracket's end where g >= 0. A row's root
    does not depend on the other rows; without rows g is not called.
    """
    out = np.empty_like(a)
    if not a.size:  # no call of g without rows
        return out
    rows = np.arange(a.size)
    x1, f1, x2, f2 = a, ga, b, gb
    x3 = f3 = np.full_like(a, np.nan)  # set by the first step
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_ROOT_MAX_STEPS):
            dx, pos = x2 - x1, f1 >= 0.0
            done = (f1 == 0.0) | (np.abs(dx) < tol)
            if np.count_nonzero(done):
                out[rows[done]] = np.where(pos, x1, x2)[done]
                keep = ~done
                rows, x1, f1, x2, f2, x3, f3, dx, pos = (v[keep] for v in (rows, x1, f1, x2, f2, x3, f3, dx, pos))
                if not rows.size:
                    return out
            t = 0.5  # the first step bisects: no point discarded yet
            if step:
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (df := f3 - f2)
                iqi = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / dx * f1 / (f3 - f1) * f2 / df
                t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), iqi, 0.5)
            t_min = 0.5 * tol / np.abs(dx)
            xt = x1 + np.minimum(np.maximum(t, t_min), 1.0 - t_min) * dx
            ft = g(rows, xt)
            same = (ft >= 0.0) == pos
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = xt, ft
    out[rows] = np.where(f1 >= 0.0, x1, x2)
    return out
