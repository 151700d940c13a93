"""Deterministic 1-D maximization by golden-section search.

Objectives here are unimodal up to kinks (participation cutoffs), so
derivative-free bracketing is the safe choice. The golden ratios are
shared with the vectorized row search in ``solver_single``.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["golden_max"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8
) -> tuple[float, float]:
    """Golden-section maximization of ``f`` on [lo, hi] to interval width ``tol``."""
    a, b = float(lo), float(hi)
    dist = b - a
    if dist <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / dist) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * dist
    d = a + _INV_PHI * dist
    yc = f(c)
    yd = f(d)
    for _ in range(max(n - 1, 0)):
        if yc > yd:
            b, d, yd = d, c, yc
            dist *= _INV_PHI
            c = a + _INV_PHI_SQ * dist
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            dist *= _INV_PHI
            d = a + _INV_PHI * dist
            yd = f(d)
    x = 0.5 * (a + d) if yc > yd else 0.5 * (c + b)
    return x, f(x)

