"""Two-principal common agency with bilateral exit and simple offers.

The agent's utility separates across principals and each principal's
payoff depends on the rival only through the rival's contractible offer,
so for a fixed rival offer the deviation problem of either principal is a
single-principal problem. The simple-offer equilibrium is a fixed point
of the induced best responses, located by damped simultaneous iteration;
its robustness against menu deviations is certified by bounding any
menu's value with the best single offer it contains against the frozen
rival offer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from . import exprlang
from .env_core import TypeSpace
from .solver_single import SingleProblem, solve, zoom_solve

__all__ = [
    "AgencyProblem",
    "AgencyEquilibrium",
    "RobustnessFinding",
    "bilateral_reduce",
    "best_response",
    "worked_family_best_response",
    "fixed_point",
    "cutoff_value_shape",
    "robustness_check",
]


def _as_fn(expr, names) -> Callable:
    if callable(expr):
        return expr
    if isinstance(expr, str):
        expr = exprlang.parse(expr)
    return exprlang.compile_fn(expr, names)


@dataclass
class AgencyProblem:
    """Bilateral payoffs, interaction strength, and search configuration.

    ``agent_utilities[j]`` is u_j over (x, y, theta); ``principal_payoffs[j]``
    is v_j over (x, y, x_other, theta). Expression text may reference the
    interaction coefficient as the variable ``beta``; it is bound from the
    ``beta`` field at compile time.
    """

    beta: float
    agent_utilities: tuple[object, object]
    principal_payoffs: tuple[object, object]
    types: TypeSpace = field(default_factory=lambda: TypeSpace.interval(3.0, 4.0))
    x_box: tuple[float, float] = (0.0, 5.0)
    y_box: tuple[float, float] = (0.0, 5.0)
    x_grid: int = 256
    y_grid: int = 256
    panels: int = 256
    iter_panels: int = 96
    iter_stages: int = 4
    iter_grid: int = 48
    damping: float = 0.5
    max_iter: int = 200
    fp_tol: float = 2e-4

    def __post_init__(self):
        self.u_fns = tuple(
            _as_fn(u, ["x", "y", "theta", "beta"]) for u in self.agent_utilities
        )
        self.v_fns = tuple(
            _as_fn(v, ["x", "y", "x_other", "theta", "beta"])
            for v in self.principal_payoffs
        )

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
    problem: AgencyProblem, j: int, x_other: float, fast: bool = False
) -> SingleProblem:
    """Single-principal slice of principal ``j`` at a frozen rival offer."""
    beta = problem.beta
    u_fn = problem.u_fns[j]
    v_fn = problem.v_fns[j]
    xo = float(x_other)

    def u(x, y, theta):
        return u_fn(x, y, theta, beta)

    def v(x, y, theta):
        return v_fn(x, y, xo, theta, beta)

    return SingleProblem(
        u=u,
        v=v,
        types=problem.types,
        x_box=problem.x_box,
        y_box=problem.y_box,
        x_grid=problem.x_grid,
        y_grid=64 if fast else problem.y_grid,
        panels=problem.iter_panels if fast else problem.panels,
    )


def best_response(
    problem: AgencyProblem, j: int, x_other: float, fast: bool = False
) -> tuple[float, object]:
    """Principal ``j``'s optimal simple offer against a frozen rival offer.

    ``fast`` switches to the zoomed grid scan used inside best-response
    iteration; the default path is the full grid-plus-golden solve.
    """
    single = bilateral_reduce(problem, j, x_other, fast=fast)
    if fast:
        value, x, _y = zoom_solve(single, problem.iter_stages, problem.iter_grid)
        return (0.0 if value <= 0.0 else float(x)), None
    result = solve(single)
    if result.no_trade or result.x is None:
        return 0.0, result
    return float(result.x), result


def _final_bilateral(problem: AgencyProblem, j: int, x_other: float):
    """Full-precision bilateral solve summary used for the reported equilibrium."""
    from .solver_single import cutoff

    single = bilateral_reduce(problem, j, x_other, fast=False)
    value, x, y = zoom_solve(single, stages=problem.iter_stages + 2, grid=problem.iter_grid)
    if not math.isfinite(value) or value <= 0.0:
        return 0.0, None, None, 0.0
    return float(x), float(y), cutoff(single, x, y), float(value)


def worked_family_best_response(beta: float, x_other: float) -> float:
    """Closed-form best response of the worked employment family.

    BR(x_other) = ((1 + beta * x_other) * 7 * sqrt(3) / 8) ** (2/3):
    the rival's support scales the match surplus by 1 + beta * x_other and
    the optimal cutoff stays at the lowest type.
    """
    return float(((1.0 + beta * x_other) * 7.0 * math.sqrt(3.0) / 8.0) ** (2.0 / 3.0))


def fixed_point(
    problem: AgencyProblem,
    start: tuple[float, float] = (0.0, 0.0),
    damping: float | None = None,
    tol: float | None = None,
    max_iter: int | None = None,
) -> AgencyEquilibrium:
    """Damped simultaneous best-response iteration to a simple-offer equilibrium.

    Iterates x <- (1 - lambda) x + lambda BR(x) until the best-response
    residual drops below ``tol``; raises on non-convergence, attaching the
    trajectory. The coarse zoomed search is used on the way and the
    reported equilibrium is re-solved at full resolution.
    """
    lam = problem.damping if damping is None else damping
    tol = problem.fp_tol if tol is None else tol
    max_iter = problem.max_iter if max_iter is None else max_iter
    x = [float(start[0]), float(start[1])]
    trajectory: list[tuple[float, float]] = [tuple(x)]
    cache: dict[tuple, float] = {}
    symmetric = problem.symmetric

    def br(j: int, xo: float) -> float:
        key = (xo,) if symmetric else (j, xo)
        if key not in cache:
            cache[key] = best_response(problem, j, xo, fast=True)[0]
        return cache[key]

    residual = math.inf
    iterations = 0
    for iterations in range(max_iter + 1):
        targets = [br(0, x[1]), br(1, x[0])]
        residual = max(abs(targets[0] - x[0]), abs(targets[1] - x[1]))
        if residual <= tol:
            break
        x = [(1.0 - lam) * x[j] + lam * targets[j] for j in range(2)]
        trajectory.append(tuple(x))
    converged = residual <= tol
    if not converged:
        raise RuntimeError(
            f"best-response iteration did not converge in {max_iter} steps; "
            f"residual {residual!r}, trajectory tail {trajectory[-5:]!r}"
        )

    ys = []
    cuts = []
    vals = []
    for j in range(2):
        bx, by, cut, value = _final_bilateral(problem, j, x[1 - j])
        ys.append(by if by is not None else 0.0)
        if cut is None:
            cuts.append(None)
        elif cut.kind == "interior":
            cuts.append(float(cut.theta))
        elif cut.kind == "all-stay":
            # boundary cutoff: the lowest type is the marginal stayer
            cuts.append(float(problem.types.lo))
        else:
            cuts.append(None)
        vals.append(value)
    return AgencyEquilibrium(
        x=(x[0], x[1]),
        y=(float(ys[0]), float(ys[1])),
        cutoffs=(cuts[0], cuts[1]),
        values=(float(vals[0]), float(vals[1])),
        residual=float(residual),
        iterations=iterations,
        converged=converged,
        trajectory=tuple(trajectory),
    )


def cutoff_value_shape(t: float) -> tuple[float, float]:
    """Cutoff-dependence of the bilateral value and its log-derivative numerator.

    Returns ((4 - t) t^(2/3) (t + 4)^(4/3), 32 + 4t - 9t^2) for t in
    [3, 4). The numerator is negative on the whole band, so the value
    factor is maximized at the lowest cutoff t = 3.
    """
    if not 3.0 <= t < 4.0:
        raise ValueError("cutoff out of range [3, 4)")
    factor = (4.0 - t) * t ** (2.0 / 3.0) * (t + 4.0) ** (4.0 / 3.0)
    numerator = 32.0 + 4.0 * t - 9.0 * t * t
    assert numerator < 0.0
    return factor, numerator


def _best_offer_value(
    problem: AgencyProblem, j: int, x_other: float, offers: Sequence[float]
) -> tuple[float, float]:
    """Best value over fixed contractible offers against a frozen rival."""
    single = bilateral_reduce(problem, j, x_other)
    best_v = -math.inf
    best_x = offers[0]
    for x in offers:
        narrowed = replace(
            single,
            x_box=(float(x), float(x) + 1e-9),
            x_grid=2,
        )
        res = solve(narrowed)
        v = res.value
        if v > best_v + 1e-15:
            best_v = v
            best_x = float(x)
    return best_x, best_v


def robustness_check(
    problem: AgencyProblem,
    equilibrium: AgencyEquilibrium,
    deviation_menus: Mapping[int, Sequence[Sequence[float]]],
    tol: float = 1e-6,
) -> tuple[bool, tuple[RobustnessFinding, ...]]:
    """Certify a simple-offer equilibrium against menu deviations.

    For each principal and deviation menu, builds the principal-separable
    continuation (the rival's offer and the agent's rival-relationship
    payoff frozen), reduces the deviation to the bilateral single-offer
    problem, and bounds the menu's best atomic continuation value by the
    best single offer it contains. A menu is flagged only if that bound
    strictly exceeds the equilibrium value plus ``tol``.
    """
    findings: list[RobustnessFinding] = []
    for j, menus in deviation_menus.items():
        x_other = equilibrium.x[1 - j]
        for menu in menus:
            offers = tuple(float(x) for x in menu)
            bx, bv = _best_offer_value(problem, j, x_other, offers)
            safe = bv > equilibrium.values[j] + tol
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
