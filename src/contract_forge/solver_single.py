"""Optimal single contractible-action offers with discretionary follow-up and exit.

The principal commits to one contractible action x, later chooses a
discretionary action y, and the agent walks away (both sides get zero
from the relationship) whenever her utility at (x, y) is negative. When
u is strictly increasing in theta (the kernel's audit) and single
crossing holds, richer communication adds nothing, so the optimum solves

    max over x of  max over y of  E[ 1{u(x,y,theta) >= 0} * v(x,y,theta) ]

evaluated here by a kink-safe search in each variable: grid (strided in
y with interval types: every (y_grid // 16)-th point, then every point
within that stride of the best), then (y with interval types) the
participation kink as a root, then golden section. One vectorized kernel
(``_profit``) gives the value, the stay probability and the
participation cutoff of many (x, y) pairs at once: the cutoff by the
bracketed root finder on the rows where it is interior, the expectation
by composite Simpson quadrature split exactly at the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import exprlang
from .env_core import TypeSpace, simpson_coefficients
from .optimize import golden_rows, root_rows

_EPS = float(np.finfo(float).eps)
_ROOT_TOL = 4e-15  # root bracket width: about 48 halvings of a unit span
OPT_TOL = 1e-8  # golden-section bracket width of both searches, and the kink's probe step
_X_GRID = 256  # x-grid points of ``solve``
# ``zoom_solve``: zoom stages and x-grid points per stage
_ZOOM_STAGES = 4
_ZOOM_GRID = 48

__all__ = [
    "SingleProblem",
    "SolveResult",
    "CutoffResult",
    "MonotonicityError",
    "cutoff",
    "expected_profit",
    "solve",
    "zoom_solve",
]


class MonotonicityError(ValueError):
    """A payoff monotonicity audit failed at the probed point."""


def _as_fn(expr, names: Sequence[str] = ("x", "y", "theta")) -> Callable:
    if callable(expr):
        return expr
    if isinstance(expr, str):
        expr = exprlang.parse(expr)
    return exprlang.compile_fn(expr, list(names))


@dataclass
class SingleProblem:
    """Payoffs, type distribution, and search configuration.

    ``u`` and ``v`` may be expression text, parsed expressions, or plain
    callables of (x, y, theta) accepting numpy broadcasting. The type
    space is an interval (quadrature) or finite (weighted sum). With
    ``rivals``, u and v take a fourth argument, each row's index into that
    many rival offers bound by the caller
    (``solver_agency.bilateral_reduce``); ``zoom_solve`` then answers
    every rival offer in one pass per stage. ``y_grid`` (y-grid points)
    and ``panels`` (Simpson panels, even) set the kernel's resolution; the
    coarse slice that agency best responses search lowers both.
    """

    u: object
    v: object
    types: TypeSpace = field(default_factory=lambda: TypeSpace.interval(3.0, 4.0))
    x_box: tuple[float, float] = (0.0, 5.0)
    y_box: tuple[float, float] = (0.0, 5.0)
    y_grid: int = 256
    panels: int = 256
    rivals: int | None = None

    def __post_init__(self):
        self.u_fn = _as_fn(self.u)
        self.v_fn = _as_fn(self.v)
        if self.x_box[0] >= self.x_box[1] or self.y_box[0] >= self.y_box[1]:
            raise ValueError("empty search box")
        if self.panels % 2 != 0:
            raise ValueError("Simpson quadrature needs an even panel count")
        if self.types.kind == "interval":  # the kernel's quadrature must give the density mass 1
            self.types.grid(self.panels + 1)


@dataclass(frozen=True, slots=True)
class CutoffResult:
    kind: str  # "interior" | "all-stay" | "none-stay"
    theta: float | None


@dataclass(frozen=True, slots=True)
class SolveResult:
    x: float | None
    y: float | None
    cutoff: CutoffResult | None
    value: float
    stay_prob: float
    no_trade: bool
    x_trace: tuple[tuple[float, float], ...]  # (x, best inner value)


def _root_width(scale: float) -> float:
    """Root-bracket width at roots of magnitude up to ``scale``: ``_ROOT_TOL`` plus four ulps."""
    return _ROOT_TOL + 4.0 * _EPS * scale


def _theta_span(types: TypeSpace) -> tuple[float, float]:
    if types.kind == "interval":
        return types.lo, types.hi
    vals = types.values
    return float(vals.min()), float(vals.max())


def _rows(values, shape: tuple[int, ...]) -> np.ndarray:
    """A payoff evaluation as a float array of ``shape``; payoffs that
    ignore some of their arguments come back smaller and are broadcast."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _at(r, rows):
    """The rival indices of ``rows``; None for a problem without rivals."""
    return None if r is None else r[rows]


def _profit(
    problem: SingleProblem, X, Y, audit: bool = True, r=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected profit, stay probability and cutoff for paired (x, y) arrays.

    The one participation kernel. u is swept over the type span (33
    points with the audit, the two ends without); rows whose highest type
    refuses retain no one (profit 0, cutoff nan), rows whose lowest type
    accepts retain everyone (cutoff lo), and the rest get their cutoff
    from :func:`optimize.root_rows`, bracketed by the sweep. Interval types
    integrate v and the density by Simpson's rule from the cutoff up;
    finite types sum over the stayers. With ``audit``, entries failing
    the strict-increase audit are -inf unless the sweep certifies that
    no type stays; refinement probes inside audited brackets skip it.
    ``r``, when given, holds each row's index into the rival offers the
    problem binds, passed to u and v as a fourth argument. A row's
    results depend on that row alone.
    """
    X = np.asarray(X, dtype=float).ravel()
    Y = np.asarray(Y, dtype=float).ravel()
    n = X.size
    lo, hi = _theta_span(problem.types)

    def pay(fn, rows, th):  # fn at the listed rows; th has one row or one per row
        args = (X[rows, None], Y[rows, None], th) + (() if r is None else (r[rows, None],))
        return _rows(fn(*args), (rows.size, th.shape[1]))

    grid = np.linspace(lo, hi, 33) if audit else np.array([lo, hi])
    sweep = pay(problem.u_fn, np.arange(n), grid[None, :])
    none = sweep[:, -1] < 0.0
    if audit:  # a non-finite sweep (inf - inf) fails the audit
        with np.errstate(invalid="ignore"):
            valid = np.all(np.diff(sweep, axis=1) > 0.0, axis=1) | np.all(sweep < 0.0, axis=1)
    else:
        valid = np.ones(n, dtype=bool)
    cut = np.where(none | ~valid, np.nan, lo)
    inner = np.flatnonzero(valid & ~none & (sweep[:, 0] < 0.0))
    if inner.size:
        k = np.argmax(sweep[inner] >= 0.0, axis=1)  # first staying grid point
        cut[inner] = root_rows(
            lambda rows, th: pay(problem.u_fn, inner[rows], th[:, None])[:, 0],
            grid[k - 1], grid[k], sweep[inner, k - 1], sweep[inner, k],
            _root_width(max(abs(lo), abs(hi))),
        )

    value = np.zeros(n)
    stay = np.zeros(n)
    live = np.flatnonzero(~np.isnan(cut))
    if live.size:
        if problem.types.kind == "finite":
            th, w = problem.types.values[None, :], problem.types.weights[None, :]
            stays = pay(problem.u_fn, live, th) >= 0.0
            value[live] = np.sum(w * pay(problem.v_fn, live, th) * stays, axis=1)
            stay[live] = np.sum(w * stays, axis=1)
        else:
            frac = np.linspace(0.0, 1.0, problem.panels + 1)
            coef = simpson_coefficients(problem.panels + 1)
            span = hi - cut[live]
            nodes = cut[live, None] + span[:, None] * frac[None, :]
            vv = pay(problem.v_fn, live, nodes)
            dens = problem.types.density_at(nodes)
            value[live] = np.sum(coef[None, :] * vv * dens, axis=1) * span / problem.panels / 3.0
            stay[live] = np.sum(coef[None, :] * dens, axis=1) * span / problem.panels / 3.0
    if audit:
        value[~valid] = -np.inf
        stay[~valid] = np.nan
    return value, stay, cut


def _point(problem: SingleProblem, x: float, y: float) -> tuple[float, float, float]:
    """Audited (value, stay probability, cutoff) at one offer pair."""
    value, stay, cut = _profit(problem, [x], [y])
    if value[0] == -np.inf:
        raise MonotonicityError(
            f"agent utility is not strictly increasing in theta at (x, y) = ({x}, {y})"
        )
    return float(value[0]), float(stay[0]), float(cut[0])


def _cutoff_result(problem: SingleProblem, cut: float) -> CutoffResult:
    if math.isnan(cut):
        return CutoffResult("none-stay", None)
    if cut == _theta_span(problem.types)[0]:
        return CutoffResult("all-stay", None)
    return CutoffResult("interior", cut)


def cutoff(problem: SingleProblem, x: float, y: float) -> CutoffResult:
    """Participation threshold: the root of u(x, y, .) on the type span.

    Flags "all-stay" when the lowest type already accepts and "none-stay"
    when even the highest type refuses; otherwise the kernel brackets the
    root to ``_ROOT_TOL``, indifferent types staying. An everywhere-negative
    sweep certifies "none-stay" before the monotonicity audit.
    """
    return _cutoff_result(problem, _point(problem, x, y)[2])


def expected_profit(problem: SingleProblem, x: float, y: float) -> float:
    """Expected principal payoff with exit: v integrated over stayers.

    Raises :class:`MonotonicityError` where the kernel's audit fails.
    """
    return _point(problem, x, y)[0]


def _profit_grid(problem: SingleProblem, xs: np.ndarray, ys: np.ndarray, r=None) -> np.ndarray:
    """Expected profit on an (x, y) mesh, ``ys`` one vector or a row per x; -inf if invalid.

    ``r`` gives each x its rival index. Evaluated in blocks of whole
    x-rows, at most one rival's, so the quadrature workspace stays
    cache-sized and no mesh-sized copy of the offers is made.
    """
    m = np.shape(ys)[-1]
    ys = np.broadcast_to(ys, (len(xs), m))
    block = max(1, 2_000_000 // max(problem.panels + 1, 1) // m)
    if r is not None:
        block = min(block, int(np.bincount(r).max()))
    out = np.empty((len(xs), m))
    for i in range(0, len(xs), block):
        rows = np.arange(i, min(i + block, len(xs)))
        values = _profit(problem, np.repeat(xs[rows], m), ys[rows], r=_at(r, np.repeat(rows, m)))[0]
        out[rows] = values.reshape(rows.size, m)
    return out


def _y_scan(problem: SingleProblem, xs: np.ndarray, ys: np.ndarray, r=None):
    """Each row's best (index, value) on the y-grid ``ys``, lowest index on ties.

    With interval types every s-th point, s = max(1, len(ys) // 16), and the
    last are scanned, then [c - s, c + s] (shifted inside the grid) around
    each coarse best c: rows are assumed unimodal at spacing s, as golden
    section assumes on its bracket. Rows whose coarse samples all fail the
    audit, finite types and s = 1 get the full grid."""
    m = ys.size
    def scan(rows, cols):  # each row's best (grid index, value) over its columns
        grid = _profit_grid(problem, xs[rows], ys[cols], _at(r, rows))
        k = (np.arange(rows.size), np.argmax(grid, axis=1))
        return np.broadcast_to(cols, grid.shape)[k], grid[k]
    s = max(1, m // 16) if problem.types.kind == "interval" else 1
    idx, value = scan(np.arange(len(xs)), np.unique(np.r_[0:m:s, m - 1]))
    if s > 1:
        full = value == -np.inf  # every coarse sample failed the audit
        win = np.clip(idx - s, 0, m - 2 * s - 1)[:, None] + np.arange(2 * s + 1)
        for rows, cols in ((np.flatnonzero(~full), win[~full]), (np.flatnonzero(full), np.arange(m))):
            if rows.size:
                idx[rows], value[rows] = scan(rows, cols)
    return idx, value


def _inner_rows(
    problem: SingleProblem, xs: np.ndarray, r=None
) -> tuple[np.ndarray, np.ndarray]:
    """Best (value, y) per contractible offer, vectorized across offers.

    A y-grid scan (:func:`_y_scan`) brackets each row's optimum in [a, b],
    the grid neighbours of its best point.
    With interval types, where u(x, ., lo) changes sign on [a, b],
    :func:`optimize.root_rows` finds the kink y_k at which the lowest type
    is just indifferent (and stays), and one unaudited kernel pass
    evaluates y_k and y_k -/+ :data:`OPT_TOL`, clipped to the bracket. Golden
    section assumes the objective unimodal on the bracket; so does this
    rule: if f(y_k) is at least both neighbours, y_k is the bracket's
    maximizer. Otherwise golden section runs on the rising side, [a, y_k]
    or [y_k, b], toward the larger neighbour. Other rows run it on [a, b],
    finite types always: their f drops at every type's indifference y, so
    another type's drop in the bracket can beat y_k. Golden section
    refines its rows at once, one group per rival (a taken y_k is a
    zero-width bracket, not evaluated). The refined value honors the audit
    and is kept only when it beats the grid value. ``r`` gives each offer
    its rival index (see :func:`_profit`).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.linspace(problem.y_box[0], problem.y_box[1], problem.y_grid)
    idx, value = _y_scan(problem, xs, ys, r)
    y = ys[idx]
    rows = np.flatnonzero(np.isfinite(value))
    if rows.size:
        X, rr, tol = xs[rows], _at(r, rows), OPT_TOL
        lo = _theta_span(problem.types)[0]
        a = ys[np.maximum(idx[rows] - 1, 0)]
        b = ys[np.minimum(idx[rows] + 1, problem.y_grid - 1)]

        def u_lo(k, yk):  # the lowest type's utility at rows k
            args = (X[k], yk, lo) + (() if rr is None else (rr[k],))
            return _rows(problem.u_fn(*args), (k.size,))

        def f(k, yk):
            return _profit(problem, X[k], yk, audit=False, r=_at(rr, k))[0]

        ua, ub = u_lo(np.arange(rows.size), a), u_lo(np.arange(rows.size), b)
        kink = np.flatnonzero(((ua >= 0.0) != (ub >= 0.0)) & (problem.types.kind == "interval"))
        if kink.size:
            ak, bk = a[kink], b[kink]
            yk = root_rows(
                lambda k, yk: u_lo(kink[k], yk),
                ak, bk, ua[kink], ub[kink],
                _root_width(max(abs(problem.y_box[0]), abs(problem.y_box[1]))),
            )
            probes = np.clip(yk + np.array([[0.0], [-tol], [tol]]), ak, bk)
            fk, fm, fp = f(np.tile(kink, 3), probes.ravel()).reshape(3, kink.size)
            peak, left = (fk >= fm) & (fk >= fp), fm > fp  # left: rising toward a
            a[kink] = np.where(left & ~peak, ak, yk)  # a peak's bracket is [y_k, y_k]
            b[kink] = np.where(left | peak, yk, bk)
        group = (b > a) + (0 if rr is None else 2 * rr)
        yr = golden_rows(f, a, b, tol, group)
        vr = _profit(problem, X, yr, r=rr)[0]
        better = vr > value[rows]
        value[rows[better]] = vr[better]
        y[rows[better]] = yr[better]
    return value, y


def solve(problem: SingleProblem) -> SolveResult:
    """Two-step optimum: outer search over x, inner search over y.

    Both loops scan an even grid and refine around the best bracket, the
    inner one by kink root or golden section (:func:`_inner_rows`), the
    outer one by golden section: the objective has kinks where the
    participation cutoff meets the type-space boundary, so derivative-free
    search is used throughout. Offers retaining no type score zero; when
    nothing beats zero the result is the no-trade outcome.
    """
    xs = np.linspace(problem.x_box[0], problem.x_box[1], _X_GRID)
    values, inner_y = _inner_rows(problem, xs)
    trace = tuple((float(x), float(v)) for x, v in zip(xs, values))

    i = int(np.argmax(values))
    if not np.isfinite(values[i]):
        return SolveResult(None, None, None, 0.0, 0.0, True, trace)
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, _X_GRID - 1)])
    x_ref = float(golden_rows(lambda _, x: _inner_rows(problem, x)[0], a, b, OPT_TOL)[0])
    v_ref, y_ref = (float(v[0]) for v in _inner_rows(problem, np.array([x_ref])))
    if v_ref >= values[i]:
        x_star, value, y_star = x_ref, v_ref, y_ref
    else:
        x_star, value, y_star = float(xs[i]), float(values[i]), float(inner_y[i])

    if value <= 0.0:
        return SolveResult(None, None, None, 0.0, 0.0, True, trace)
    _, stay, cut = _point(problem, x_star, y_star)
    return SolveResult(
        x_star, y_star, _cutoff_result(problem, cut), float(value), stay, False, trace
    )


def zoom_solve(problem: SingleProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fast (x, y) optimizer for iterative callers (best-response dynamics).

    Each of ``_ZOOM_STAGES`` stages scans an x-grid of ``_ZOOM_GRID``
    points with the vectorized inner-row search (grid, kink root, golden
    fallback; see :func:`_inner_rows`), then zooms the x-box around the
    incumbent row. Same unimodality assumption as the full solve. Every
    row is refined, not only the incumbent and its neighbours: on the
    worked agency family (beta in linspace(0.3, 0.9, 13) and 17/21, fixed
    point and curve), 632 of 828 stages refined a winner more than one row
    away from the grid argmax.

    Returns arrays (value, x, y) with one entry per rival offer the
    problem binds (one entry without ``rivals``). One pass per stage
    serves every rival, each with its own box and its own stop at a stage
    without a finite value.
    """
    rivals = problem.rivals
    k = 1 if rivals is None else rivals
    xlo, xhi = np.full(k, float(problem.x_box[0])), np.full(k, float(problem.x_box[1]))
    value, x, y = np.full(k, -math.inf), xlo.copy(), np.full(k, float(problem.y_box[0]))
    todo = np.arange(k)
    for _ in range(_ZOOM_STAGES):
        xs = np.array([np.linspace(xlo[j], xhi[j], _ZOOM_GRID) for j in todo])
        r = None if rivals is None else np.repeat(todo, _ZOOM_GRID)
        values, inner_y = (v.reshape(xs.shape) for v in _inner_rows(problem, xs.ravel(), r))
        i = np.argmax(values, axis=1)
        vi, xi, yi = (v[np.arange(todo.size), i] for v in (values, xs, inner_y))
        stop = ~np.isfinite(vi)
        win = stop | (vi > value[todo])
        value[todo[win]] = np.where(stop, -math.inf, vi)[win]
        x[todo[win]], y[todo[win]] = xi[win], yi[win]
        dx = (xhi[todo] - xlo[todo]) / (_ZOOM_GRID - 1)
        xlo[todo] = np.maximum(problem.x_box[0], xi - 1.5 * dx)
        xhi[todo] = np.minimum(problem.x_box[1], xi + 1.5 * dx)
        todo = todo[~stop]
        if not todo.size:
            break
    return value, x, y
