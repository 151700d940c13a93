"""Closed forms and paper audits, kept apart from the code they check.

Each function here is either a closed form of a worked example (the
labor profile, the common-agency best response and its cutoff shape, the
quadratic-delegation thresholds) or a paper audit that only tests run
(the rent-extraction probe of criterion 6, the single-crossing sign
scan). No command and no library function calls them; the tests compare
the solvers against them, as they compare the equilibrium engine against
``oracle_bruteforce``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from contract_forge import exprlang
from contract_forge.env_core import Belief, TypeSpace, simpson_coefficients
from contract_forge.revisable import RevisableModel, _placement
from contract_forge.solver_single import MonotonicityError, SingleProblem

_MASS_TOL = 1e-9  # ``rent_probe``: the stay set's mass may move this much
_CROSSING_TOL = 1e-12  # ``single_crossing_audit``: zero band, relative to max(1, max |d|)


# ---------------------------------------------------------------------------
# Worked single-principal and common-agency examples
# ---------------------------------------------------------------------------


def labor_profile(t: float) -> tuple[float, float, float]:
    """Closed-form profile of the worked employment example by cutoff type.

    For a cutoff t in [3, 4): the conditional-productivity factor
    K(t) = sqrt(t)(t+4)/2, the profit-maximizing offer x*(t) = (K(t)/4)^(2/3),
    and the resulting expected profit (4-t)(K(t) sqrt(x*) - x*^2).
    """
    if not 3.0 <= t < 4.0:
        raise ValueError("cutoff out of range [3, 4)")
    K = math.sqrt(t) * (t + 4.0) / 2.0
    x = (K / 4.0) ** (2.0 / 3.0)
    value = (4.0 - t) * (K * math.sqrt(x) - x * x)
    return K, x, value


def worked_family_best_response(beta: float, x_other: float) -> float:
    """Closed-form best response of the worked employment family.

    BR(x_other) = ((1 + beta * x_other) * 7 * sqrt(3) / 8) ** (2/3):
    the rival's support scales the match surplus by 1 + beta * x_other and
    the optimal cutoff stays at the lowest type.
    """
    return float(((1.0 + beta * x_other) * 7.0 * math.sqrt(3.0) / 8.0) ** (2.0 / 3.0))


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


# ---------------------------------------------------------------------------
# Quadratic-delegation closed forms
# ---------------------------------------------------------------------------


def ms_thresholds(k: float, a: float) -> tuple[float, float, bool]:
    """Ceiling/floor thresholds of the sender-optimal quadratic rule.

    Sender wants z = theta on [0, 1]; receiver wants z = k + a*theta with
    a in (0, 1). Returns (theta1, theta2, valid) where ``valid`` records
    the bias condition k in (-a/2, 1 - a/2) under which the rule below is
    the sender-optimal one.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("slope parameter must lie in (0, 1)")
    theta1 = max(0.0, 2.0 * k / (2.0 - a))
    theta2 = min((2.0 * k + a) / (2.0 - a), 1.0)
    valid = -a / 2.0 < k < 1.0 - a / 2.0
    return theta1, theta2, valid


def ms_allocation(k: float, a: float, theta: float) -> float:
    """Sender-optimal final action: the type clamped to the threshold band."""
    theta1, theta2, _ = ms_thresholds(k, a)
    return min(max(theta, theta1), theta2)


def ms_model(k: float, a: float) -> RevisableModel:
    """Quadratic delegation model on uniform [0, 1] types, on the default 1025-point grid."""
    sender = "-(z-theta)^2"
    receiver = f"-(z-({k!r})-({a!r})*theta)^2"
    return RevisableModel.additive(
        sender, receiver,
        TypeSpace.interval(0.0, 1.0),
        alpha=0.0,
        z_range=(-2.0, 3.0),
        ideal_form=("affine", float(k), float(a)),
    )


def ms_lift_check(
    k: float, a: float, alpha: float, theta_grid: int = 101
) -> dict[str, float]:
    """Endpoint-placement audit of the quadratic sender-optimal rule.

    For each grid type, lifts the target final action with revision bound
    ``alpha`` at the belief its message carries (point mass on the
    separating band, the pooled interval at the edges) and verifies that
    the constrained receiver optimum over the feasible interval recovers
    the target within the 101-point scan resolution. Returns the worst
    absolute deviation and the scan step.
    """
    theta1, theta2, valid = ms_thresholds(k, a)
    if not valid:
        raise ValueError("bias outside the validity band of the closed form")
    model = replace(ms_model(k, a), alpha=alpha)

    def pooled_belief(lo: float, hi: float) -> Belief:
        pts = np.linspace(lo, hi, 201)
        h = (hi - lo) / 200.0
        w = simpson_coefficients(201) * h / 3.0
        return Belief(tuple(map(float, pts)), tuple(map(float, w / w.sum())))

    worst = 0.0
    for theta in np.linspace(0.0, 1.0, theta_grid):
        z = ms_allocation(k, a, float(theta))
        if theta < theta1 and theta1 > 0.0:
            belief = pooled_belief(0.0, theta1)
        elif theta > theta2 and theta2 < 1.0:
            belief = pooled_belief(theta2, 1.0)
        else:
            belief = Belief.point_mass(float(theta))
        _x, _rev, z_best, _step = _placement(model, z, belief)
        worst = max(worst, abs(z_best - z))
    return {"worst_deviation": worst, "scan_step": (2.0 * alpha) / 100.0}


# ---------------------------------------------------------------------------
# Audits: rent extraction (criterion 6) and single crossing
# ---------------------------------------------------------------------------


def interval_belief(lo: float, hi: float, points: int) -> Belief:
    """The uniform belief on [lo, hi], weighted at ``points`` Simpson nodes."""
    pts, w = TypeSpace.interval(lo, hi).grid(points)
    return Belief(tuple(float(p) for p in pts), tuple(float(x) for x in w))


@dataclass(frozen=True, slots=True)
class RentProbeResult:
    success: bool
    kappa: float
    step: float | None
    improvement: float | None


def rent_probe(
    problem: SingleProblem,
    x: float,
    y: float,
    belief: Belief,
    steps: Sequence[float] = (0.025, 0.05, 0.1, 0.2, 0.4),
) -> RentProbeResult:
    """Extract rent from common slack by nudging the discretionary action.

    Requires every staying type's utility to sit strictly above zero
    (common slack kappa > 0) and opposite monotonicity in y (agent down,
    principal up). Scans increasing steps and succeeds at the first one
    keeping the stay set's mass unchanged while strictly raising the
    posterior expected principal payoff.
    """
    th = np.array(belief.points)
    w = np.array(belief.weights)
    uv = np.asarray(problem.u_fn(x, y, th), dtype=float)
    stay = uv >= 0.0
    stay_mass = float(np.sum(w[stay]))
    if stay_mass <= 0.0:
        raise ValueError("stay set has no belief mass")
    kappa = float(np.min(uv[stay & (w > 0)]))
    if kappa <= 1e-12:
        raise ValueError("no common slack: the cutoff type is binding")

    probe = min(steps)
    u_probe = np.asarray(problem.u_fn(x, y + probe, th), dtype=float)
    v_now = np.asarray(problem.v_fn(x, y, th), dtype=float)
    v_probe = np.asarray(problem.v_fn(x, y + probe, th), dtype=float)
    mask = w > 0
    if np.any(u_probe[mask] > uv[mask]) or np.any(v_probe[mask] <= v_now[mask]):
        raise MonotonicityError(
            "opposite-monotonicity audit failed: need u decreasing and v increasing in y"
        )

    base_value = float(np.sum(w * v_now * stay))
    for t in sorted(steps):
        u_t = np.asarray(problem.u_fn(x, y + t, th), dtype=float)
        stay_t = u_t >= 0.0
        if abs(float(np.sum(w[stay_t])) - stay_mass) > _MASS_TOL:
            continue
        v_t = np.asarray(problem.v_fn(x, y + t, th), dtype=float)
        value_t = float(np.sum(w * v_t * stay_t))
        if value_t > base_value:
            return RentProbeResult(True, kappa, float(t), value_t - base_value)
    return RentProbeResult(False, kappa, None, None)


@dataclass(frozen=True, slots=True)
class AuditReport:
    passed: bool
    sign_changes: int
    zero_runs: int
    degenerate_equal: bool


def single_crossing_audit(
    u: object,
    a: tuple[float, float],
    b: tuple[float, float],
    theta_grid: np.ndarray | Sequence[float],
) -> AuditReport:
    """Sign-scan of u(a, theta) - u(b, theta) over a type grid.

    Passes when the difference changes sign at most once and has at most
    one (grid-tolerance) zero run; an identically zero difference is
    flagged as degenerate-equal.
    """
    fn = u if callable(u) else exprlang.compile_fn(exprlang.parse(u), ["x", "y", "theta"])
    th = np.asarray(theta_grid, dtype=float)
    d = np.asarray(fn(a[0], a[1], th), dtype=float) - np.asarray(
        fn(b[0], b[1], th), dtype=float
    )
    scale = max(1.0, float(np.max(np.abs(d))))
    signs = np.where(d > _CROSSING_TOL * scale, 1, np.where(d < -_CROSSING_TOL * scale, -1, 0))
    nonzero = signs[signs != 0]
    sign_changes = int(np.sum(nonzero[1:] != nonzero[:-1])) if nonzero.size else 0
    zero = np.r_[False, signs == 0]
    zero_runs = int(np.sum(zero[1:] & ~zero[:-1]))  # the starts of zero runs
    degenerate = bool(np.all(signs == 0))
    passed = degenerate or (sign_changes <= 1 and zero_runs <= 1)
    return AuditReport(passed, sign_changes, zero_runs, degenerate)
