"""Two-principal common agency with bilateral exit and simple offers.

The agent's utility separates across principals and each principal's
payoff depends on the rival only through the rival's contractible offer,
so for a fixed rival offer the deviation problem of either principal is a
single-principal problem. The simple-offer equilibrium is a fixed point
of the induced best responses, located by simultaneous iteration with
Anderson acceleration and a damped-step guard; its robustness against
menu deviations is certified by bounding any menu's value with the best
single offer it contains against the frozen rival offer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .env_core import TypeSpace, beats
from .solver_single import SingleProblem, _as_fn, _gauss_nodes, _inner_rows, _point, zoom_solve

__all__ = [
    "AgencyProblem",
    "AgencyEquilibrium",
    "RobustnessFinding",
    "bilateral_reduce",
    "best_response",
    "fixed_point",
    "robustness_check",
]


# The fixed point: the damped step's weight, the residual that ends the
# iteration, and the most steps taken.
_DAMPING = 0.5
_FP_TOL = 2e-4
_MAX_ITER = 200
_ANDERSON_DEPTH = 2
# The coarse slice that best responses search: y-grid points and
# quadrature panels.
_ITER_Y_GRID = 64
_ITER_PANELS = 96
# A menu is flagged when its bound beats the equilibrium value by more than
# this: the two come from separate inner searches, each resolving y only to
# a tolerance, so a menu holding the equilibrium offer must not be flagged
# by their difference.
_SAFE_TOL = 1e-6


@dataclass(frozen=True)
class AgencyProblem:
    """Bilateral payoffs, interaction strength, type space and search boxes.

    ``agent_utilities[j]`` is u_j over (x, y, theta); ``principal_payoffs[j]``
    is v_j over (x, y, x_other, theta). Expression text may reference the
    interaction coefficient as the variable ``beta``; it is bound from the
    ``beta`` field at compile time. ``gauss[j]`` is ``SingleProblem.gauss``
    of principal j's slices, set from ``principal_payoffs[j]``. The
    problem is frozen, as :func:`best_response` keeps its answers on it; a
    changed problem is a ``dataclasses.replace`` copy, which starts
    without them.
    """

    beta: float
    agent_utilities: tuple[object, object]
    principal_payoffs: tuple[object, object]
    types: TypeSpace = field(default_factory=lambda: TypeSpace.interval(3.0, 4.0))
    x_box: tuple[float, float] = (0.0, 5.0)
    y_box: tuple[float, float] = (0.0, 5.0)
    _responses: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "u_fns", tuple(_as_fn(u, ["x", "y", "theta", "beta"]) for u in self.agent_utilities))
        object.__setattr__(
            self, "v_fns", tuple(_as_fn(v, ["x", "y", "x_other", "theta", "beta"]) for v in self.principal_payoffs)
        )
        object.__setattr__(self, "gauss", tuple(_gauss_nodes(v, self.types) for v in self.principal_payoffs))
        bilateral_reduce(self, 0, 0.0)  # a slice's kernel must integrate the type density

    @property
    def symmetric(self) -> bool:
        """Both principals share payoffs, so best responses coincide."""

        def same(a, b):
            return a is b or (not callable(a) and not callable(b) and a == b)

        return same(*self.agent_utilities) and same(*self.principal_payoffs)


@dataclass(frozen=True, slots=True)
class AgencyEquilibrium:
    x: tuple[float, float]
    y: tuple[float, float]
    cutoffs: tuple[float | None, float | None]
    values: tuple[float, float]
    residual: float
    iterations: int
    converged: bool
    trajectory: tuple[tuple[float, float], ...]


@dataclass(frozen=True, slots=True)
class RobustnessFinding:
    principal: int
    menu: tuple[float, ...]
    best_offer: float
    deviation_value: float
    equilibrium_value: float
    safe_profitable: bool


def bilateral_reduce(
    problem: AgencyProblem, j: int, x_other, fast: bool = False
) -> SingleProblem:
    """Single-principal slice of principal ``j`` at frozen rival offers.

    ``x_other`` is one offer or an array of them. The slice records their
    count as ``rivals``, and its payoffs take a fourth argument, each
    row's index into the offers, so ``zoom_solve`` answers every offer at
    once.
    ``fast`` gives the coarse slice that best responses search; the
    default is the full-resolution one of the reported pairs and menus.
    """
    beta = problem.beta
    u_fn = problem.u_fns[j]
    v_fn = problem.v_fns[j]
    xo = np.atleast_1d(np.asarray(x_other, dtype=float))

    def u(x, y, theta, r):
        return u_fn(x, y, theta, beta)

    def v(x, y, theta, r):
        return v_fn(x, y, xo[r], theta, beta)

    single = SingleProblem(
        u=u,
        v=v,
        types=problem.types,
        x_box=problem.x_box,
        y_box=problem.y_box,
        rivals=xo.size,
    )
    # set after construction, so the density is checked at full resolution
    # only: the coarse slice steers the search, reported values never use it
    if fast:
        single.y_grid, single.panels = _ITER_Y_GRID, _ITER_PANELS
    single.gauss = problem.gauss[j]
    return single


def best_response(problem: AgencyProblem, j: int, x_other) -> float | np.ndarray:
    """Principal ``j``'s optimal simple offer against a frozen rival offer.

    The zoomed search of ``zoom_solve`` on the coarse slice. ``x_other``
    is one offer, answered with a float, or an array of offers, answered
    with an array whose entries equal their own calls. An offer worth no
    more than zero is answered with 0 (no trade). Answers are kept on the
    frozen ``problem`` by principal (one set when the problem is
    symmetric) and by offer; the offers not answered yet are solved in
    one pass.
    """
    known = problem._responses.setdefault(0 if problem.symmetric else j, {})
    offers = np.atleast_1d(np.asarray(x_other, dtype=float)).tolist()
    if new := [xo for xo in dict.fromkeys(offers) if xo not in known]:
        value, x, _ = zoom_solve(bilateral_reduce(problem, j, new, fast=True))
        known.update(zip(new, np.where(value <= 0.0, 0.0, x).tolist()))
    return np.array([known[xo] for xo in offers]) if np.ndim(x_other) else known[offers[0]]


def fixed_point(
    problem: AgencyProblem,
    start: tuple[float, float] | None = None,
) -> AgencyEquilibrium:
    """Accelerated simultaneous best-response iteration to a simple-offer equilibrium.

    With residual f(x) = BR(x) - x, the damped step is x + lambda f(x),
    lambda = ``_DAMPING``, from ``start``, by default 0 clipped into
    ``x_box`` for both offers. From the second step on, Anderson acceleration (Walker & Ni 2011,
    SIAM J. Numer. Anal. 49(4)) with the last ``_ANDERSON_DEPTH`` iterates
    replaces it, unless the accelerated point leaves ``x_box`` or the
    residual grew since the previous step. Iterates until the residual
    drops below ``_FP_TOL``, at most ``_MAX_ITER`` steps; raises on
    non-convergence, attaching the trajectory. The best responses search
    the coarse slice (see :func:`best_response`, which solves no rival
    offer twice); when the problem is symmetric, both principals'
    responses come from one call. The reported y, cutoff and
    value of each principal come from one full-resolution inner solve at
    the reported own offer against the rival's, shared when the problem
    is symmetric and the offers are equal. At a kink optimum that y is
    the kink's root, so the lowest type stays (cutoff exactly lo).
    """
    box_lo, box_hi = problem.x_box
    x = np.array(start if start is not None else [min(max(0.0, box_lo), box_hi)] * 2, dtype=float)
    trajectory: list[tuple[float, float]] = [(float(x[0]), float(x[1]))]
    symmetric = problem.symmetric

    history: list[tuple[np.ndarray, np.ndarray]] = []
    residual = prev_residual = math.inf
    iterations = 0
    for iterations in range(_MAX_ITER + 1):
        if symmetric:
            br = best_response(problem, 0, x[::-1])
        else:
            br = np.array([best_response(problem, 0, x[1]), best_response(problem, 1, x[0])])
        f = br - x
        residual = float(np.max(np.abs(f)))
        if residual <= _FP_TOL:
            break
        step = x + _DAMPING * f
        if history and residual <= prev_residual:
            dX = np.column_stack([x - hx for hx, _ in history])
            dF = np.column_stack([f - hf for _, hf in history])
            gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
            accelerated = step - (dX + _DAMPING * dF) @ gamma
            if np.all((accelerated >= box_lo) & (accelerated <= box_hi)):
                step = accelerated
        history = (history + [(x, f)])[-_ANDERSON_DEPTH:]
        prev_residual = residual
        x = step
        trajectory.append((float(x[0]), float(x[1])))
    converged = residual <= _FP_TOL
    if not converged:
        raise RuntimeError(
            f"best-response iteration did not converge in {_MAX_ITER} steps; "
            f"residual {residual!r}, trajectory tail {trajectory[-5:]!r}"
        )

    ys, cuts, vals = [0.0, 0.0], [None, None], [0.0, 0.0]
    same = symmetric and x[0] == x[1]  # then principal 2's pair is principal 1's
    for j in range(1 if same else 2):
        single = bilateral_reduce(problem, j, x[1 - j])
        value, y = (float(v[0]) for v in _inner_rows(single, np.array([x[j]])))
        if value > 0.0:  # otherwise no trade: y 0, no cutoff, value 0
            cut = _point(single, x[j], y)[2]  # the lowest type when all stay
            ys[j], cuts[j], vals[j] = y, (None if math.isnan(cut) else cut), value
    if same:
        ys[1], cuts[1], vals[1] = ys[0], cuts[0], vals[0]
    return AgencyEquilibrium(
        x=(float(x[0]), float(x[1])),
        y=(ys[0], ys[1]),
        cutoffs=(cuts[0], cuts[1]),
        values=(vals[0], vals[1]),
        residual=float(residual),
        iterations=iterations,
        converged=converged,
        trajectory=tuple(trajectory),
    )


def _best_offer_value(
    problem: AgencyProblem, j: int, x_other: float, offers: Sequence[float]
) -> tuple[float, float]:
    """Best value over fixed contractible offers against a frozen rival.

    One inner-row search over all offers; an offer worth no more than
    zero scores the no-trade value 0.
    """
    single = bilateral_reduce(problem, j, x_other)
    values, _ = _inner_rows(single, np.asarray(offers, dtype=float))
    values = np.where(values > 0.0, values, 0.0)
    i = int(np.argmax(values))
    return float(offers[i]), float(values[i])


def robustness_check(
    problem: AgencyProblem,
    equilibrium: AgencyEquilibrium,
    deviation_menus: Mapping[int, Sequence[Sequence[float]]],
) -> tuple[bool, tuple[RobustnessFinding, ...]]:
    """Certify a simple-offer equilibrium against menu deviations.

    For each principal and deviation menu, builds the principal-separable
    continuation (the rival's offer and the agent's rival-relationship
    payoff frozen), reduces the deviation to the bilateral single-offer
    problem, and bounds the menu's best atomic continuation value by the
    best single offer it contains. A menu is flagged only if that bound
    strictly exceeds the equilibrium value plus ``_SAFE_TOL``.
    """
    findings: list[RobustnessFinding] = []
    for j, menus in deviation_menus.items():
        x_other = equilibrium.x[1 - j]
        for menu in menus:
            offers = tuple(float(x) for x in menu)
            bx, bv = _best_offer_value(problem, j, x_other, offers)
            safe = beats(bv, equilibrium.values[j], _SAFE_TOL)
            findings.append(
                RobustnessFinding(
                    principal=j,
                    menu=offers,
                    best_offer=bx,
                    deviation_value=bv,
                    equilibrium_value=equilibrium.values[j],
                    safe_profitable=safe,
                )
            )
    return (not any(f.safe_profitable for f in findings)), tuple(findings)
