"""The participation kernel frozen as it was before it bounded its own
workspace: one sweep, one ``np.diff`` audit and per-row Simpson nodes for
every live row, all in one pass over the rows. The reference that the
chunked kernel ``solver_single._profit`` and ``_stay`` are checked against
bit for bit in ``test_solver_single.py``."""

import numpy as np

from contract_forge.env_core import simpson_coefficients
from contract_forge.optimize import root_rows

_ROOT_TOL = 4e-15
_EPS = float(np.finfo(float).eps)


def _span(types):
    return (types.lo, types.hi) if types.kind == "interval" else (float(types.values.min()), float(types.values.max()))


def _rows(values, shape):
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def profit_reference(problem, X, Y, r=0, audit=True):
    """(value, cutoff) per (x, y) row, as the one-pass kernel gave them."""
    X = np.asarray(X, dtype=float).ravel()
    Y = np.asarray(Y, dtype=float).ravel()
    n = X.size
    R = np.zeros(n, int) + r
    lo, hi = _span(problem.types)
    grid = np.linspace(lo, hi, 33) if audit else np.array([lo, hi])
    sweep = _rows(problem.u_fn(X[:, None], Y[:, None], grid[None, :], R[:, None]), (n, grid.size))
    none = sweep[:, -1] < 0.0
    if audit:
        with np.errstate(invalid="ignore"):
            valid = np.all(np.diff(sweep, axis=1) > 0.0, axis=1) | np.all(sweep < 0.0, axis=1)
    else:
        valid = np.ones(n, dtype=bool)
    cut = np.where(none | ~valid, np.nan, lo)
    inner = np.flatnonzero(valid & ~none & (sweep[:, 0] < 0.0))
    if inner.size:
        k = np.argmax(sweep[inner] >= 0.0, axis=1)
        Xi, Yi, Ri = X[inner], Y[inner], R[inner]
        cut[inner] = root_rows(
            lambda rows, th: _rows(problem.u_fn(Xi[rows], Yi[rows], th, Ri[rows]), (rows.size,)),
            grid[k - 1], grid[k], sweep[inner, k - 1], sweep[inner, k],
            _ROOT_TOL + 4.0 * _EPS * max(abs(lo), abs(hi)),
        )
    value = stay_reference(problem, X, Y, cut, R, problem.v_fn)
    if audit:
        value[~valid] = -np.inf
    return value, cut


def stay_reference(problem, X, Y, cut, r=0, fn=None):
    """The integral of ``fn`` (None: 1) over the stayers, every live row on
    its own Simpson nodes from its cutoff up."""
    X, Y = np.asarray(X, dtype=float).ravel(), np.asarray(Y, dtype=float).ravel()
    R = np.zeros(X.size, int) + r
    out = np.zeros(X.size)
    live = np.flatnonzero(~np.isnan(cut))

    def pay(f, th):
        return _rows(f(X[live, None], Y[live, None], th, R[live, None]), (live.size, th.shape[1]))

    if live.size and problem.types.kind == "finite":
        th, w = problem.types.values[None, :], problem.types.weights[None, :]
        stays = pay(problem.u_fn, th) >= 0.0
        out[live] = np.sum(w * (1.0 if fn is None else pay(fn, th)) * stays, axis=1)
    elif live.size:
        lo, hi = _span(problem.types)
        frac, coef = np.linspace(0.0, 1.0, problem.panels + 1), simpson_coefficients(problem.panels + 1)
        span = hi - cut[live]
        nodes = cut[live, None] + span[:, None] * frac[None, :]
        integrand = coef[None, :] * (1.0 if fn is None else pay(fn, nodes)) * problem.types.density_at(nodes)
        out[live] = np.sum(integrand, axis=1) * span / problem.panels / 3.0
    return out
