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
participation kink as a root, then Brent's method
(:func:`optimize.line_max_rows`). One vectorized kernel
(``_profit``) gives the value and the participation cutoff of many
(x, y) pairs at once: the cutoff by the bracketed root finder on the
rows where it is interior, the expectation from exactly the cutoff up,
by Gauss-Legendre where v is smooth in theta and by composite Simpson
elsewhere (see :class:`SingleProblem`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import exprlang
from .env_core import DENSITY_TOL, TypeSpace, simpson_coefficients
from .optimize import line_max_rows, root_rows

_EPS = float(np.finfo(float).eps)
_ROOT_TOL = 4e-15  # root bracket width: about 48 halvings of a unit span
OPT_TOL = 1e-8  # tol of both line searches (Brent stops within 2*(sqrt(eps)*|x| + tol/3)), and the kink's probe step
_X_GRID = 256  # x-grid points of ``solve``
_WORKSPACE = 65_536  # elements of one (rows x nodes) kernel temporary: 512 KiB of floats
_GL_NODES = 16  # Gauss-Legendre nodes of the stay integral where v is smooth in theta
_CHECK_TOL = 1e-12  # relative change at twice the Gauss nodes that sends a solve back to Simpson's rule
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
    "with_gauss",
    "zoom_solve",
]


class MonotonicityError(ValueError):
    """A payoff monotonicity audit failed at the probed point."""


def _as_fn(expr, names: Sequence[str] = ("x", "y", "theta")) -> Callable:
    return expr if callable(expr) else exprlang.compile_fn(exprlang.as_expr(expr), list(names))


@dataclass
class SingleProblem:
    """Payoffs, type distribution, and search configuration.

    ``u`` and ``v`` may be expression text, parsed expressions, or plain
    callables of (x, y, theta, r) accepting numpy broadcasting, where r
    is each row's index into the ``rivals`` rival offers bound by the
    caller (``solver_agency.bilateral_reduce``; a plain problem has one
    and its compiled expressions ignore r). ``zoom_solve`` answers every
    rival offer in one pass per stage. ``y_grid`` (y-grid points)
    and ``panels`` (Simpson panels, even) set the kernel's resolution; the
    coarse slice that agency best responses search lowers both. ``gauss``
    (:func:`_gauss_nodes`) is the stay integral's Gauss-Legendre node count,
    exact to degree 2 * ``_GL_NODES`` - 1 (Davis & Rabinowitz 1984), or 0 for
    Simpson's rule; ``panels`` must integrate the density to 1 either way.
    """

    u: object
    v: object
    types: TypeSpace = field(default_factory=lambda: TypeSpace.interval(3.0, 4.0))
    x_box: tuple[float, float] = (0.0, 5.0)
    y_box: tuple[float, float] = (0.0, 5.0)
    y_grid: int = 256
    panels: int = 256
    rivals: int = 1

    def __post_init__(self):
        self.u_fn = _as_fn(self.u)
        self.v_fn = _as_fn(self.v)
        if self.x_box[0] >= self.x_box[1] or self.y_box[0] >= self.y_box[1]:
            raise ValueError("empty search box")
        if self.panels % 2 != 0:
            raise ValueError("Simpson quadrature needs an even panel count")
        if self.types.kind == "interval":  # the kernel's quadrature must give the density mass 1
            self.types.grid(self.panels + 1)
        self.gauss = _gauss_nodes(self.v, self.types)


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
    gauss: int  # Gauss-Legendre nodes of the stay integral; 0: Simpson's rule


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


@lru_cache(maxsize=16)
def _fixed_nodes(lo: float, hi: float, panels: int, gauss: int = 0) -> tuple:
    """The audit's 33 sweep points on [lo, hi], and the stay integral's node
    fractions, coefficients and sum divisors: Simpson's rule of ``panels``
    panels or ``gauss`` Gauss-Legendre nodes by Golub & Welsch (1969, Math.
    Comp. 23), made symmetric and scaled to integrate 1 exactly."""
    if gauss:
        b = (k := np.arange(1.0, gauss)) / np.sqrt(4.0 * k * k - 1.0)
        t, vec = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
        w = vec[0] ** 2 + vec[0, ::-1] ** 2
        frac, coef, div = (1.0 + (t - t[::-1]) / 2.0) / 2.0, 2.0 * w / w.sum(), (2.0, 1.0)
    else:
        frac, coef, div = np.linspace(0.0, 1.0, panels + 1), simpson_coefficients(panels + 1), (panels, 3.0)
    nodes = np.linspace(lo, hi, 33), frac, coef
    return (*(np.broadcast_to(v, v.shape) for v in nodes), div)  # read-only views: every caller shares them


def _gauss_nodes(v, types: TypeSpace) -> int:
    """``_GL_NODES`` where the stay integral of ``v`` may take Gauss-Legendre
    nodes, else 0: ``v`` is an expression smooth in theta and the interval's
    uniform or normal density has Gauss mass 1 within ``DENSITY_TOL``."""
    smooth = not callable(v) and types.kind == "interval" and exprlang.smooth_in(exprlang.as_expr(v), "theta")
    if not smooth or types.density not in ("uniform", "normal"):
        return 0
    _, frac, w, _ = _fixed_nodes(types.lo, types.hi, 0, _GL_NODES)
    mass = float(np.sum(w * types.density_at(types.lo + (types.hi - types.lo) * frac))) * (types.hi - types.lo) / 2.0
    return _GL_NODES if abs(mass - 1.0) <= DENSITY_TOL else 0


def with_gauss(problem, gauss):
    """A copy of a single or agency ``problem`` with Gauss nodes ``gauss`` (0: Simpson's rule)."""
    (out := copy.copy(problem)).gauss = gauss
    return out


def _chunks(n: int, nodes: int):
    """Row slices covering ``n`` rows (one slice without rows), each of at
    most ``_WORKSPACE // nodes`` rows and at least one."""
    step = max(1, _WORKSPACE // nodes)
    return (slice(i, i + step) for i in range(0, max(n, 1), step))


def _profit(
    problem: SingleProblem, X, Y, r=0, audit: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Expected profit and cutoff for paired (x, y) arrays.

    The one participation kernel. u is swept over the type span (33
    points with the audit, the two ends without); rows whose highest type
    refuses retain no one (profit 0, cutoff nan), rows whose lowest type
    accepts retain everyone (cutoff lo), and the rest get their cutoff
    from :func:`optimize.root_rows`, bracketed by the sweep. The profit is
    v integrated over the stayers by :func:`_stay`. With ``audit``,
    entries failing the strict-increase audit are -inf unless the sweep
    certifies that no type stays; refinement probes inside audited
    brackets skip it. ``r`` holds each row's index into the rival offers
    the problem binds (one index for every row), passed to u and v as
    their fourth argument. A row's results depend on that row alone, so
    any number of rows, every rival's at once, is one call: the sweep
    and audit run in chunks of at most ``_WORKSPACE`` elements per
    (rows x nodes) temporary, each chunk recording its interior rows'
    root brackets, and one root call solves every interior row. The
    stay probability, which only :func:`_point` reports, is :func:`_stay`
    of 1 at the cutoff.
    """
    X = np.asarray(X, dtype=float).ravel()
    Y = np.asarray(Y, dtype=float).ravel()
    n = X.size
    R = np.zeros(n, int) + r
    lo, hi = _theta_span(problem.types)

    grid = _fixed_nodes(lo, hi, problem.panels, problem.gauss)[0] if audit else np.array([lo, hi])
    valid, cut, brackets = np.ones(n, dtype=bool), np.full(n, lo), []
    for s in _chunks(n, grid.size):
        sweep = _rows(problem.u_fn(X[s, None], Y[s, None], grid[None, :], R[s, None]), (cut[s].size, grid.size))
        if audit:  # a non-finite sweep fails the audit: inf > inf and every nan comparison are false
            # u is vacuously increasing over a one-point span (finite types of one value)
            rising = np.all(sweep[:, 1:] > sweep[:, :-1], axis=1) if lo < hi else np.all(np.isfinite(sweep), axis=1)
            valid[s] = rising | np.all(sweep < 0.0, axis=1)
        cut[s][(sweep[:, -1] < 0.0) | ~valid[s]] = np.nan
        inner = np.flatnonzero(~np.isnan(cut[s]) & (sweep[:, 0] < 0.0))
        k = np.argmax(sweep[inner] >= 0.0, axis=1)  # first staying grid point
        brackets.append((inner + s.start, grid[k - 1], grid[k], sweep[inner, k - 1], sweep[inner, k]))
    inner, a, b, ua, ub = (np.concatenate(v) for v in zip(*brackets))
    if inner.size:
        Xi, Yi, Ri = X[inner], Y[inner], R[inner]
        cut[inner] = root_rows(
            lambda rows, th: _rows(problem.u_fn(Xi[rows], Yi[rows], th, Ri[rows]), (rows.size,)),
            a, b, ua, ub, _root_width(max(abs(lo), abs(hi))),
        )

    value = _stay(problem, X, Y, cut, R, problem.v_fn)
    if audit:
        value[~valid] = -np.inf
    return value, cut


def _stay(problem: SingleProblem, X, Y, cut, r=0, fn=None) -> np.ndarray:
    """The integral of ``fn`` over the types that stay, for paired (x, y)
    arrays at their kernel cutoffs ``cut``; ``fn`` None integrates 1, the
    stay probability.

    0 where no type stays (cutoff nan); otherwise, with interval types,
    the problem's rule (``gauss`` nodes, else ``panels``) for fn times the
    density from the cutoff up, and with finite types the weighted sum of
    fn over the types whose u is at least 0. Rows run in chunks of at
    most ``_WORKSPACE`` elements per (rows x nodes) temporary. Rows whose
    cutoff is lo share one node row, a uniform density is the scalar
    1/(hi - lo), and every row sums (coef * fn) * density, so sharing
    changes no bit. ``r`` is each row's rival index, as in :func:`_profit`.
    """
    X, Y = np.asarray(X, dtype=float).ravel(), np.asarray(Y, dtype=float).ravel()
    R = np.zeros(X.size, int) + r
    out = np.zeros(X.size)
    types = problem.types

    def pay(f, rows, th):  # f at ``rows``; th has one row or one per row
        return _rows(f(X[rows, None], Y[rows, None], th, R[rows, None]), (rows.size, th.shape[1]))

    if types.kind == "finite":
        th, w = types.values[None, :], types.weights[None, :]
        for s in _chunks(X.size, th.shape[1]):
            if (rows := s.start + np.flatnonzero(~np.isnan(cut[s]))).size:
                stays = pay(problem.u_fn, rows, th) >= 0.0
                out[rows] = np.sum(w * (1.0 if fn is None else pay(fn, rows, th)) * stays, axis=1)
        return out
    lo, hi = _theta_span(types)
    _, frac, coef, div = _fixed_nodes(lo, hi, problem.panels, problem.gauss)
    shared = lo + (hi - lo) * frac[None, :]  # the nodes of every row whose cutoff is lo
    for s in _chunks(X.size, frac.size):
        c = cut[s]
        for rows, at_lo in ((np.flatnonzero(c == lo), True), (np.flatnonzero((c != lo) & ~np.isnan(c)), False)):
            if not rows.size:
                continue
            span = hi - c[rows]
            nodes = shared if at_lo else c[rows, None] + span[:, None] * frac[None, :]
            dens = 1.0 / (hi - lo) if types.density == "uniform" else types.density_at(nodes)
            integrand = coef[None, :] * (1.0 if fn is None else pay(fn, rows + s.start, nodes)) * dens
            out[rows + s.start] = np.sum(integrand, axis=1) * span / div[0] / div[1]
    return out


def _point(problem: SingleProblem, x: float, y: float) -> tuple[float, float, float]:
    """Audited (value, stay probability, cutoff) at one offer pair; the
    stay probability by :func:`_stay` at the kernel's cutoff."""
    value, cut = _profit(problem, [x], [y])
    if value[0] == -np.inf:
        raise MonotonicityError(
            f"agent utility is not strictly increasing in theta at (x, y) = ({x}, {y})"
        )
    return float(value[0]), float(_stay(problem, [x], [y], cut)[0]), float(cut[0])


def _checked_point(problem: SingleProblem, x: float, y: float) -> tuple[float, float, float] | None:
    """:func:`_point` at a reported pair, or None where the stay integral
    takes Gauss nodes and twice as many move its value or stay probability
    q by more than ``_CHECK_TOL`` * max(1, |q|)."""
    point = _point(problem, x, y)
    if problem.gauss:
        fine, cut = with_gauss(problem, 2 * problem.gauss), np.array(point[2:])
        for fn, q in ((problem.v_fn, point[0]), (None, point[1])):
            if not abs(_stay(fine, [x], [y], cut, fn=fn)[0] - q) <= _CHECK_TOL * max(1.0, abs(q)):
                return None
    return point


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


def _profit_grid(problem: SingleProblem, xs: np.ndarray, ys: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Expected profit on an (x, y) mesh, ``ys`` one vector or a row per x; -inf if invalid.

    ``r`` gives each x its rival index. The whole mesh, every rival's
    rows, is one :func:`_profit` call, which bounds its own workspace.
    """
    m = np.shape(ys)[-1]
    ys = np.broadcast_to(ys, (len(xs), m))
    return _profit(problem, np.repeat(xs, m), ys, np.repeat(r, m))[0].reshape(len(xs), m)


def _y_scan(problem: SingleProblem, xs: np.ndarray, ys: np.ndarray, r: np.ndarray):
    """Each row's best (index, value) on the y-grid ``ys``, lowest index on ties.

    With interval types every s-th point, s = max(1, len(ys) // 16), and the
    last are scanned, then [c - s, c + s] (shifted inside the grid) around
    each coarse best c: rows are assumed unimodal at spacing s, as the
    line search assumes on its bracket. Each window holds three coarse points,
    read from the kept coarse samples, so the window pass evaluates its
    other 2s - 2 points only. Rows whose coarse samples all fail the
    audit, finite types and s = 1 get the full grid."""
    m = ys.size
    def best(cols, grid):  # each row's best (grid index, value) over its columns
        k = (np.arange(len(grid)), np.argmax(grid, axis=1))
        return np.broadcast_to(cols, grid.shape)[k], grid[k]
    s = max(1, m // 16) if problem.types.kind == "interval" else 1
    coarse = np.unique(np.r_[0:m:s, m - 1])
    grid = _profit_grid(problem, xs, ys[coarse], r)
    idx, value = best(coarse, grid)
    if s > 1:
        full = value == -np.inf  # every coarse sample failed the audit
        if (rows := np.flatnonzero(~full)).size:
            win = np.clip(idx[rows] - s, 0, m - 2 * s - 1)[:, None] + np.arange(2 * s + 1)
            old = np.isin(win, coarse)
            wgrid = np.empty(win.shape)
            wgrid[old] = grid[rows[np.nonzero(old)[0]], np.searchsorted(coarse, win[old])]
            wgrid[~old] = _profit_grid(problem, xs[rows], ys[win[~old].reshape(rows.size, -1)], r[rows]).ravel()
            idx[rows], value[rows] = best(win, wgrid)
        if (rows := np.flatnonzero(full)).size:
            idx[rows], value[rows] = best(np.arange(m), _profit_grid(problem, xs[rows], ys, r[rows]))
    return idx, value


def _type_drops(problem: SingleProblem, X, r, a, b, y, value) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best of (``y``, ``value``) and the drops of finite types
    in its bracket [a, b], ``y`` on ties.

    With finite types f jumps where a type leaves and rises up to the jump,
    so a line search stops short of that peak. Each type whose
    u(x, ., theta) changes sign on a row's bracket has its indifference y
    solved by :func:`optimize.root_rows` (the end where it stays), as the
    kink is, and valued by one audited kernel pass.
    """
    th = problem.types.values
    ua, ub = (_rows(problem.u_fn(X[:, None], e[:, None], th, r[:, None]), (X.size, th.size)) for e in (a, b))
    k, j = np.nonzero((ua >= 0.0) != (ub >= 0.0))
    if not k.size:
        return y, value
    yd = root_rows(
        lambda i, yi: _rows(problem.u_fn(X[k[i]], yi, th[j[i]], r[k[i]]), (i.size,)),
        a[k], b[k], ua[k, j], ub[k, j],
        _root_width(max(abs(problem.y_box[0]), abs(problem.y_box[1]))),
    )
    at, ys = np.r_[np.arange(X.size), k], np.r_[y, yd]
    vs = np.r_[value, _profit(problem, X[k], yd, r[k])[0]]
    order = np.lexsort((-vs, at))  # by row, best first; stable, so ``y`` first on ties
    first = order[np.r_[True, at[order][1:] != at[order][:-1]]]
    return ys[first], vs[first]


def _inner_rows(
    problem: SingleProblem, xs: np.ndarray, r=0
) -> tuple[np.ndarray, np.ndarray]:
    """Best (value, y) per contractible offer, vectorized across offers.

    A y-grid scan (:func:`_y_scan`) brackets each row's optimum in [a, b],
    the grid neighbours of its best point.
    With interval types, where u(x, ., lo) changes sign on [a, b],
    :func:`optimize.root_rows` finds the kink y_k at which the lowest type
    is just indifferent (and stays), and one unaudited kernel pass
    evaluates y_k and y_k -/+ :data:`OPT_TOL`, clipped to the bracket. The
    line search (Brent's method, :func:`optimize.line_max_rows`) assumes
    the objective unimodal on the bracket; so does this rule: if f(y_k) is
    at least both neighbours, y_k is the bracket's maximizer. Otherwise the
    search runs on the rising side, [a, y_k] or [y_k, b], toward the larger
    neighbour. Other rows run it on [a, b], finite types always: their f
    drops at every type's indifference y, so another type's drop in the
    bracket can beat y_k. The search refines all rows at once, each
    stopping within 2*(sqrt(eps)*|y| + OPT_TOL/3) of its maximum (a taken
    y_k is a zero-width bracket, not evaluated). With finite types each
    drop in the bracket is also solved as a root (:func:`_type_drops`),
    and kept where it beats the search. The refined value honors the audit
    and is kept only when it beats the grid value. ``r`` gives
    each offer its rival index (see :func:`_profit`).
    """
    xs = np.asarray(xs, dtype=float)
    r = np.zeros(xs.shape, int) + r
    ys = np.linspace(problem.y_box[0], problem.y_box[1], problem.y_grid)
    idx, value = _y_scan(problem, xs, ys, r)
    y = ys[idx]
    rows = np.flatnonzero(np.isfinite(value))
    if rows.size:
        X, rr, tol = xs[rows], r[rows], OPT_TOL
        lo = _theta_span(problem.types)[0]
        a = ys[np.maximum(idx[rows] - 1, 0)]
        b = ys[np.minimum(idx[rows] + 1, problem.y_grid - 1)]

        def u_lo(k, yk):  # the lowest type's utility at rows k
            return _rows(problem.u_fn(X[k], yk, lo, rr[k]), (k.size,))

        def f(k, yk):
            return _profit(problem, X[k], yk, rr[k], audit=False)[0]

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
        yr = line_max_rows(f, a, b, tol)
        vr = _profit(problem, X, yr, rr)[0]
        if problem.types.kind == "finite":
            yr, vr = _type_drops(problem, X, rr, a, b, yr, vr)
        better = vr > value[rows]
        value[rows[better]] = vr[better]
        y[rows[better]] = yr[better]
    return value, y


def _no_trade(problem: SingleProblem, xs: np.ndarray, trace) -> SolveResult:
    """The no-trade result, certified on the ``xs`` x y-grid mesh: where an
    offer the audit rejects is worth more than 0 unaudited, the audit, not
    the payoffs, ruled trade out, and MonotonicityError names the best one."""
    ys = np.linspace(problem.y_box[0], problem.y_box[1], problem.y_grid)
    X, Y = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    rejected = np.flatnonzero(_profit(problem, X, Y)[0] == -np.inf)
    value = _profit(problem, X[rejected], Y[rejected], audit=False)[0]
    if rejected.size and value.max() > 0.0:
        k = int(np.argmax(value))
        raise MonotonicityError(
            f"no trade is not certified: (x, y) = ({X[rejected[k]]}, {Y[rejected[k]]}) is worth {float(value[k])!r} "
            "but agent utility is not strictly increasing in theta there"
        )
    return SolveResult(None, None, None, 0.0, 0.0, True, trace, problem.gauss)


def solve(problem: SingleProblem) -> SolveResult:
    """Two-step optimum: outer search over x, inner search over y.

    Both loops scan an even grid and refine around the best bracket, the
    inner one by kink root or Brent's method (:func:`_inner_rows`), the
    outer one by Brent's method (:func:`optimize.line_max_rows`, about 8
    steps on the worked labor problem), each stopping within
    2*(sqrt(eps)*|x| + OPT_TOL/3) of its maximum: the objective has kinks
    where the participation cutoff meets the type-space boundary, so
    derivative-free search is used throughout. Offers retaining no type
    score zero; when nothing beats zero the result is the no-trade outcome,
    unless an offer the audit rejects would trade (:func:`_no_trade`).
    A Gauss answer that fails :func:`_checked_point` is solved again by Simpson.
    """
    xs = np.linspace(problem.x_box[0], problem.x_box[1], _X_GRID)
    values, inner_y = _inner_rows(problem, xs)
    trace = tuple((float(x), float(v)) for x, v in zip(xs, values))

    i = int(np.argmax(values))
    if not np.isfinite(values[i]):
        return _no_trade(problem, xs, trace)
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, _X_GRID - 1)])
    x_ref = float(line_max_rows(lambda _, x: _inner_rows(problem, x)[0], a, b, OPT_TOL)[0])
    v_ref, y_ref = (float(v[0]) for v in _inner_rows(problem, np.array([x_ref])))
    if v_ref >= values[i]:
        x_star, value, y_star = x_ref, v_ref, y_ref
    else:
        x_star, value, y_star = float(xs[i]), float(values[i]), float(inner_y[i])

    if value <= 0.0:
        return _no_trade(problem, xs, trace)
    if (point := _checked_point(problem, x_star, y_star)) is None:
        return solve(with_gauss(problem, 0))
    _, stay, cut = point
    return SolveResult(
        x_star, y_star, _cutoff_result(problem, cut), float(value), stay, False, trace, problem.gauss
    )


def zoom_solve(problem: SingleProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fast (x, y) optimizer for iterative callers (best-response dynamics).

    Each of ``_ZOOM_STAGES`` stages scans an x-grid of ``_ZOOM_GRID``
    points with the vectorized inner-row search (grid, kink root, Brent
    fallback; see :func:`_inner_rows`), then zooms the x-box around the
    incumbent row. Same unimodality assumption as the full solve. Every
    row is refined, not only the incumbent and its neighbours: on the
    worked agency family (beta in linspace(0.3, 0.9, 13) and 17/21, fixed
    point and curve), 632 of 828 stages refined a winner more than one row
    away from the grid argmax.

    Returns arrays (value, x, y) with one entry per rival offer the
    problem binds. One pass per stage serves every rival, each with its
    own box and its own stop at a stage without a finite value.
    """
    k = problem.rivals
    xlo, xhi = np.full(k, float(problem.x_box[0])), np.full(k, float(problem.x_box[1]))
    value, x, y = np.full(k, -math.inf), xlo.copy(), np.full(k, float(problem.y_box[0]))
    todo = np.arange(k)
    for _ in range(_ZOOM_STAGES):
        xs = np.array([np.linspace(xlo[j], xhi[j], _ZOOM_GRID) for j in todo])
        values, inner_y = (v.reshape(xs.shape) for v in _inner_rows(problem, xs.ravel(), np.repeat(todo, _ZOOM_GRID)))
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
