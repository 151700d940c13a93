"""Revisable-action model: bounded revisions of a committed baseline.

Both players care only about the final action ``z``. A contract fixes a
baseline ``x``; after messages the receiver revises it within a bounded
range (additive: z = x + y with |y| <= alpha; proportional: z = x * eta
with 0 < eta_lo <= eta <= eta_hi and positive baselines).

The module provides the receiver's posterior ideal point, the endpoint
placement that makes a target final action the receiver's constrained
optimum, conversions between the full-commitment (alpha = 0) and limited
models, and an exhaustive desk-scale check that the two models induce the
same set of final-action allocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import exprlang
from .contracts import _table_env, menu_rec, pair_label, split_pair_label
from .env_core import (
    DEFAULT_TOL,
    OPT_OUT,
    ActionValue,
    Allocation,
    Belief,
    Environment,
    PrincipalSpec,
    TypeSpace,
    beats,
    expect,
)
from .equilibrium import Assessment, BeliefSystem, check_continuation, posteriors
from .optimize import line_max_rows

__all__ = [
    "RevisableModel",
    "ConcavityError",
    "audit_concavity",
    "IdealFormError",
    "audit_ideal_form",
    "IdealBracketError",
    "posterior_ideal",
    "feasible_final_interval",
    "endpoint_baseline",
    "GridGame",
    "grid_step",
    "zero_weight_type",
    "build_grid_game",
    "final_allocation_of",
    "collapse_to_full",
    "lift_to_limited",
    "enumerate_final_allocations",
    "check_gamma_equal",
    "GammaReport",
]


# Absolute tolerance at which two grid values are the same: a baseline or
# revision matched to its grid action, the steps of an evenly spaced grid,
# the revision bound, and the constrained optimum a lift places. A grid
# step must exceed twice it, so a value matches at most one grid action.
GRID_TOL = 1e-9


class ConcavityError(ValueError):
    """The receiver payoff failed the strict-concavity audit."""


class IdealFormError(ValueError):
    """A declared ``ideal_form`` is not the receiver's ideal under every belief."""


class IdealBracketError(ValueError):
    """The scan of ``z_range`` found no interior bracket of a posterior ideal."""


@dataclass(frozen=True, slots=True)
class RevisableModel:
    """Revision mode, payoffs over (z, theta), and the type space.

    ``ideal_form`` may declare the closed-form posterior ideal for the
    quadratic receiver family: ("affine", k, a) means the ideal point is
    k + a * E[theta] (checked by :func:`audit_ideal_form`). Without it the
    ideal is located by a scan of ``z_range`` and a bracketed search by
    Brent's method (:func:`posterior_ideal`).
    """

    mode: str  # "additive" | "proportional"
    sender: exprlang.Expr
    receiver: exprlang.Expr
    types: TypeSpace
    alpha: float = 0.0
    eta_lo: float = 1.0
    eta_hi: float = 1.0
    z_range: tuple[float, float] = (-10.0, 10.0)
    ideal_form: tuple | None = None  # ("affine", k, a)
    # both payoffs compiled over (z, theta), once per model
    sender_fn: Callable = field(init=False, repr=False, compare=False)
    receiver_fn: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the revision bounds, compile both payoffs and audit the
        receiver's strict concavity (:func:`audit_concavity`) and a declared
        ideal (:func:`audit_ideal_form`), so that every consumer of a model
        can trust it; ``dataclasses.replace`` re-runs it."""
        if self.mode not in ("additive", "proportional"):
            raise ValueError(f"unknown revision mode {self.mode!r}")
        if self.mode == "additive" and self.alpha < 0.0:
            raise ValueError("additive revision bound must be nonnegative")
        if self.mode == "proportional" and not 0.0 < self.eta_lo <= self.eta_hi:
            raise ValueError("proportional bounds must satisfy 0 < lo <= hi")
        for name, expr in (("sender_fn", self.sender), ("receiver_fn", self.receiver)):
            object.__setattr__(self, name, exprlang.compile_fn(expr, ["z", "theta"]))
        audit_concavity(self)
        if self.ideal_form is not None:
            audit_ideal_form(self)

    @staticmethod
    def additive(
        sender: str | exprlang.Expr,
        receiver: str | exprlang.Expr,
        types: TypeSpace,
        alpha: float,
        z_range: tuple[float, float] = (-10.0, 10.0),
        ideal_form: tuple | None = None,
    ) -> "RevisableModel":
        return RevisableModel(
            mode="additive", sender=exprlang.as_expr(sender), receiver=exprlang.as_expr(receiver),
            types=types, alpha=alpha, z_range=z_range, ideal_form=ideal_form,
        )


def audit_concavity(model: RevisableModel) -> None:
    """Reject receiver payoffs whose second differences are not negative.

    Checks 101 points of ``z_range`` at up to 7 types spread over the type
    grid; raises :class:`ConcavityError` on the first type whose payoff is
    not finite or not strictly concave there.
    """
    pts, _ = model.types.grid()
    idx = np.linspace(0, len(pts) - 1, min(7, len(pts))).astype(int)
    zs = np.linspace(model.z_range[0], model.z_range[1], 101)
    for th in (float(pts[i]) for i in idx):
        vals = np.broadcast_to(model.receiver_fn(zs, th), zs.shape)
        if not np.all(np.isfinite(vals)):
            raise ConcavityError(f"receiver payoff is not finite on z_range at theta={th!r}")
        with np.errstate(invalid="ignore", over="ignore"):
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        if not np.all(second < 0.0):
            raise ConcavityError(
                f"receiver payoff is not strictly concave in z at theta={th!r}"
            )


def audit_ideal_form(model: RevisableModel) -> None:
    """Reject a declared ideal ("affine", k, a) that is not the receiver's.

    k + a*E[theta] is the posterior ideal under every belief only for a
    receiver quadratic in z with one curvature: its second differences
    over 101 points of ``z_range`` must agree to a relative 1e-6 at every
    type of the grid, and k + a*theta must beat both neighbours 1e-6 of
    the range's width away at each type. Raises :class:`IdealFormError`.
    """
    kind, k, a = model.ideal_form
    if kind != "affine":
        raise IdealFormError(f"unknown ideal form {kind!r}")
    theta, _ = model.types.grid()
    zs = np.linspace(model.z_range[0], model.z_range[1], 101)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        second = np.diff(np.broadcast_to(model.receiver_fn(zs, theta), (zs.size, theta.size)), 2, axis=0)
        if not np.ptp(second) <= 1e-6 * np.max(np.abs(second)):  # NaN fails too
            raise IdealFormError("the receiver is not quadratic in z with one curvature across z_range and the types")
    h = 1e-6 * (model.z_range[1] - model.z_range[0])
    v = np.broadcast_to(model.receiver_fn(k + a * theta + np.array([[-h], [0.0], [h]]), theta), (3, theta.size))
    if not np.all((v[0] < v[1]) & (v[2] < v[1])):
        raise IdealFormError("k + a*theta is not the receiver's ideal at each type")


def _ideal_tol(model: RevisableModel) -> float:
    """Resolution of the posterior ideal: sqrt(eps) times the larger of
    the width of ``z_range`` and its ends' magnitudes (the width when the
    range holds 0). Near its maximum the expected receiver payoff is flat
    to rounding within about sqrt(eps)*|z| of it, so :func:`posterior_ideal`
    stops within this tol and a target that close to the ideal is a tie."""
    lo, hi = model.z_range
    return math.sqrt(np.finfo(float).eps) * max(hi - lo, abs(lo), abs(hi))


def _expected_receiver(model: RevisableModel, zs: np.ndarray, belief: Belief) -> np.ndarray:
    """The receiver's expected payoff under ``belief`` at each final action of ``zs``."""
    pts = np.array(belief.points)
    return np.broadcast_to(model.receiver_fn(zs[:, None], pts), (zs.size, pts.size)) @ np.array(belief.weights)


def posterior_ideal(model: RevisableModel, belief: Belief) -> float:
    """The receiver's uniquely optimal final action under ``belief``.

    Uses the declared closed form when present, otherwise a coarse scan of
    the working range followed by Brent's method
    (:func:`optimize.line_max_rows`) at tol :func:`_ideal_tol` on the
    offset from the scan's best point, which stops within tol of the
    ideal. Raises :class:`IdealBracketError` if the scan brackets none.
    """
    if model.ideal_form is not None:
        _, k, a = model.ideal_form
        return float(k) + float(a) * expect(lambda th: th, belief)
    zs = np.linspace(model.z_range[0], model.z_range[1], 201)
    i = int(np.argmax(_expected_receiver(model, zs, belief)))
    if i in (0, len(zs) - 1):
        raise IdealBracketError("posterior ideal search found no interior bracket; widen z_range")
    # search the offset t = z - zs[i], so Brent's stop 2*(sqrt(eps)*|t| + tol/3) stays below tol
    t = line_max_rows(
        lambda _, t: _expected_receiver(model, zs[i] + t, belief), zs[i - 1] - zs[i], zs[i + 1] - zs[i], _ideal_tol(model)
    )
    return float(zs[i] + t[0])


def feasible_final_interval(model: RevisableModel, x: float) -> tuple[float, float]:
    """Final actions reachable from baseline ``x`` under the revision bound."""
    if model.mode == "additive":
        return (x - model.alpha, x + model.alpha)
    if x < 0.0:
        raise ValueError("proportional revisions require a nonnegative baseline")
    return (model.eta_lo * x, model.eta_hi * x)


def endpoint_baseline(model: RevisableModel, z_target: float, r: float) -> tuple[float, float]:
    """Baseline and revision placing ``z_target`` at the receiver's optimum.

    A target more than tol below the posterior ideal r (:func:`beats`)
    sits at the upper endpoint of the feasible interval; more than tol
    above it, at the lower endpoint; otherwise, a tie, in the middle.
    ``tol`` is the ideal's resolution, :func:`_ideal_tol`. Returns
    (baseline, revision); the revision is the additive step or the
    proportional factor, and baseline (+ or *) revision equals the target.
    """
    tol = _ideal_tol(model)
    below, above = beats(r, z_target, tol), beats(z_target, r, tol)
    if model.mode == "additive":
        if below:
            return (z_target - model.alpha, model.alpha)
        if above:
            return (z_target + model.alpha, -model.alpha)
        return (z_target, 0.0)
    if z_target <= 0.0:
        raise ValueError("proportional placement requires a positive target")
    if not (below or above):
        if model.eta_lo <= 1.0 <= model.eta_hi:
            return (z_target, 1.0)
        # identity revision unavailable: park the target at the endpoint
        # nearer to one, keeping the whole interval weakly on one side of r
        below = model.eta_hi < 1.0
    if below:
        return (z_target / model.eta_hi, model.eta_hi)
    return (z_target / model.eta_lo, model.eta_lo)


def _placement(
    model: RevisableModel, z: float, belief: Belief
) -> tuple[float, float, float, float]:
    """Endpoint placement of ``z`` at ``belief`` and its constrained optimum.

    Returns (baseline, revision, constrained optimum, scan step): the
    optimum is the receiver's best of 101 evenly spaced final actions of
    the feasible interval around the baseline, under the belief.
    """
    x_hat, rev = endpoint_baseline(model, z, posterior_ideal(model, belief))
    lo, hi = feasible_final_interval(model, x_hat)
    scan = np.linspace(lo, hi, 101)
    return x_hat, rev, float(scan[int(np.argmax(_expected_receiver(model, scan, belief)))]), (hi - lo) / 100.0


# ---------------------------------------------------------------------------
# Discretized single-receiver game
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GridGame:
    """Finite single-receiver game over a final-action grid.

    Baselines extend the z-grid by the revision bound on each side so that
    every endpoint placement stays on the baseline grid; feasible
    revisions keep the final action inside the z-grid.
    """

    model: RevisableModel
    z_values: tuple[float, ...]
    alpha_steps: int
    env: Environment
    x_values: tuple[float, ...]
    rev_values: tuple[float, ...]
    # sender and receiver payoffs over z_values x types, |Z| x T
    u_tab: np.ndarray = field(repr=False, compare=False)
    v_tab: np.ndarray = field(repr=False, compare=False)

    def x_label(self, value: float) -> str:
        return _grid_label(self.x_values, value, "b", "baseline")

    def rev_label(self, value: float) -> str:
        return _grid_label(self.rev_values, value, "r", "revision")

    def final_of(self, x_label: str, rev_label: str) -> float:
        """The final action of a feasible pair, read off the grid: b_i + r_k
        lands on z_(i+k-2m)."""
        zi = int(x_label[1:]) + int(rev_label[1:]) - 2 * self.alpha_steps
        if not 0 <= zi < len(self.z_values):
            raise KeyError(f"{x_label} + {rev_label} leaves the final-action grid")
        return self.z_values[zi]


def _grid_label(values: Sequence[float], value: float, prefix: str, what: str) -> str:
    """``prefix`` and the index of the grid value within ``GRID_TOL`` of ``value``."""
    for i, v in enumerate(values):
        if abs(v - value) <= GRID_TOL:
            return f"{prefix}{i}"
    raise KeyError(f"{what} {value!r} is not on the grid")


def grid_step(z: Sequence[float]) -> float:
    """The step of an evenly spaced grid of two or more final actions; raises
    ValueError unless every step is the first within ``GRID_TOL`` and it exceeds twice that."""
    if len(z) < 2:
        raise ValueError("need at least two final actions")
    h = float(z[1] - z[0])
    if not all(abs((z[i + 1] - z[i]) - h) <= GRID_TOL for i in range(len(z) - 1)):
        raise ValueError("final-action grid must be evenly spaced")
    if not h > 2 * GRID_TOL:
        raise ValueError(f"final-action grid step {h!r} is not above 2 * GRID_TOL = {2 * GRID_TOL!r}")
    return h


def zero_weight_type(types: TypeSpace) -> tuple[int, str] | None:
    """The first finite type of weight 0, as (index, message), or None.
    Grid games reject it: a block of zero-weight types sends a message of
    zero mass, which has no Bayes posterior."""
    for i, t in enumerate(types.finite):
        if t.weight == 0.0:
            return i, f"type {t.label!r} has weight 0: its message would have no Bayes posterior"
    return None


def build_grid_game(
    model: RevisableModel, z_values: Sequence[float], alpha_steps: int
) -> GridGame:
    """Discretize an additive revisable model on an evenly spaced z-grid;
    every type needs a positive weight (:func:`zero_weight_type`)."""
    if model.mode != "additive":
        raise ValueError("grid games support the additive revision mode")
    if model.types.kind != "finite":
        raise ValueError("grid games need a finite type space")
    if (zero := zero_weight_type(model.types)) is not None:
        raise ValueError(zero[1])
    z = tuple(float(v) for v in z_values)
    h = grid_step(z)
    m = int(alpha_steps)
    if m < 0:
        raise ValueError("alpha_steps must be nonnegative")
    alpha = m * h
    if abs(model.alpha - alpha) > GRID_TOL:
        model = replace(model, alpha=alpha)
    xs = tuple(z[0] + h * k for k in range(-m, len(z) + m))
    revs = tuple(h * k for k in range(-m, m + 1))
    x_actions = tuple(ActionValue(f"b{i}", v) for i, v in enumerate(xs))
    y_actions = tuple(ActionValue(f"r{i}", v) for i, v in enumerate(revs))
    # baseline b_i plus revision r_k lands on z_{i+k-2m}: feasible when on the grid
    feasible = {
        f"b{i}": tuple(f"r{k}" for k in range(2 * m + 1) if 0 <= i + k - 2 * m < len(z))
        for i in range(len(xs))
    }
    spec = PrincipalSpec(contractible=x_actions, noncontractible=y_actions, feasible=feasible)
    grid, thetas = np.array(z)[:, None], model.types.values[None, :]
    shape = (len(z), thetas.size)
    u_tab = np.broadcast_to(model.sender_fn(grid, thetas), shape)
    v_tab = np.broadcast_to(model.receiver_fn(grid, thetas), shape)

    def payoff(label: str, prof):
        (x, y), = prof
        zi, c = int(x[1:]) + int(y[1:]) - 2 * m, model.types.labels.index(label)  # (b_i, r_k) pays at z_(i+k-2m)
        return u_tab[zi, c], (v_tab[zi, c],)

    env = _table_env(model.types, (spec,), payoff, optout=False)  # the sender always messages in this model
    return GridGame(
        model=model, z_values=z, alpha_steps=m, env=env, x_values=xs, rev_values=revs,
        u_tab=u_tab, v_tab=v_tab,
    )


def final_allocation_of(game: GridGame, alloc: Allocation) -> Allocation:
    """Collapse an action-pair allocation to final actions z = x + revision."""
    entries = {}
    for label, dist in alloc.entries.items():
        acc: dict[float, float] = {}
        for outcome, p in dist:
            if outcome == OPT_OUT:
                raise ValueError("revisable games have no outside option")
            (x_lab, y_lab), = outcome  # single receiver
            zv = game.final_of(x_lab, y_lab)
            acc[zv] = acc.get(zv, 0.0) + p
        entries[label] = tuple(sorted(acc.items()))
    return Allocation(entries)


def _push_forward(strategy, recode: Mapping[str, str]) -> dict:
    """``strategy`` with every message relabelled by ``recode``, masses merged."""
    out = {}
    for lab, dist in strategy.items():
        acc: dict[tuple[str, ...], float] = {}
        for outcome, prob in dist:
            new = (recode[outcome[0]],)
            acc[new] = acc.get(new, 0.0) + prob
        out[lab] = tuple(sorted(acc.items()))
    return out


def _posteriors(game: GridGame, strategy) -> dict[str, dict]:
    """Bayes posterior (:func:`equilibrium.posteriors`) of every message
    ``strategy`` sends, as weights over (type label, ()) of the types that
    send it, the :class:`BeliefSystem` form of public play."""
    mu = game.env.types.weights.tolist()
    return posteriors(
        (outcome[0], (lab, ()), mu[t] * prob)
        for t, lab in enumerate(game.env.types.labels) for outcome, prob in strategy[lab] if prob > 0.0
    )


def _menu_assessment(game: GridGame, strategy, beliefs, offpath: str) -> Assessment:
    """Menu-with-recommendations assessment of the grid game.

    The menu is the baselines of the messages in ``beliefs`` (each a
    :class:`BeliefSystem` belief, keyed by message label); every message
    ``strategy`` sends is one of them. Those messages play their
    recommendation under their belief. Every other message copies the
    revision and belief of the first message in ``beliefs``, in message
    order, with the same baseline.
    """
    mech = menu_rec(game.env, 0, {split_pair_label(m)[0] for m in beliefs})
    first = {m.action: m for m in reversed(mech.messages) if m.label in beliefs}  # per baseline, the first in order
    continuation, weights = {}, {}
    for m in mech.messages:
        src = m if m.label in beliefs else first[m.action]
        continuation[(m.label,)] = src.recommendation
        weights[(m.label,)] = beliefs[src.label]
    return Assessment(
        contracts=(mech,),
        strategy=strategy,
        continuation={0: continuation},
        beliefs=BeliefSystem(weights={0: weights}, offpath=offpath),
    )


def collapse_to_full(game: GridGame, assessment: Assessment, game0: GridGame) -> Assessment:
    """Convert a limited-model assessment to ``game0``, the alpha = 0 grid game.

    The caller passes the target game, built once per check. Each
    message's baseline becomes the final action it induced and the
    revision is zeroed; the final-action allocation is unchanged. A
    recoded message the new strategy sends carries its Bayes posterior;
    one it does not send keeps the belief of the first old message, in
    message order, recoded to it. With no discretion each baseline has a
    single message, so no message is left to copy another.
    """
    cont = assessment.continuation[0]
    zero = game0.rev_label(0.0)
    recode = {
        m.label: pair_label(game0.x_label(game.final_of(m.action, cont[(m.label,)])), zero)
        for m in assessment.contracts[0].messages
    }
    strategy = _push_forward(assessment.strategy, recode)
    old_beliefs = assessment.beliefs.weights[0]
    beliefs = {}
    for old, new in recode.items():
        beliefs.setdefault(new, old_beliefs[(old,)])
    beliefs.update(_posteriors(game0, strategy))
    return _menu_assessment(game0, strategy, beliefs, assessment.beliefs.offpath)


def lift_to_limited(game0: GridGame, assessment: Assessment, game_a: GridGame) -> Assessment:
    """Convert a full-commitment assessment to ``game_a``, the limited grid game.

    The caller passes the target game, built once per check. Places each
    message's final action at the appropriate endpoint of the revision
    window around the new baseline, using the posterior ideal at the
    message's belief; verifies the constrained receiver optimum on a
    101-point scan of the feasible interval. Each placed message keeps its
    old belief; every other message of the new menu copies the revision
    and belief of the first placed message, in message order, with its
    baseline.
    """
    types = game0.env.types
    old_beliefs = assessment.beliefs.weights[0]
    recode: dict[str, str] = {}
    beliefs: dict[str, dict] = {}
    for msg in assessment.contracts[0].messages:
        z = game0.x_values[int(msg.action[1:])]
        old = old_beliefs[(msg.label,)]
        belief = Belief(tuple(float(v) for v in types.values), tuple(old.get((lab, ()), 0.0) for lab in types.labels))
        x_hat, rev, z_best, step = _placement(game_a.model, z, belief)
        if beats(abs(z_best - z), step, GRID_TOL):
            raise ValueError(
                f"endpoint placement failed: constrained optimum {z_best!r} != {z!r}"
            )
        recode[msg.label] = pair_label(game_a.x_label(x_hat), game_a.rev_label(rev))
        beliefs[recode[msg.label]] = old
    strategy = _push_forward(assessment.strategy, recode)
    return _menu_assessment(game_a, strategy, beliefs, assessment.beliefs.offpath)


# ---------------------------------------------------------------------------
# Exhaustive desk-scale enumeration of final-action allocation sets
# ---------------------------------------------------------------------------


def _partitions(items: Sequence[int]):
    """All set partitions as lists of tuples, blocks ordered by smallest element."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [(first,)] + part
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1 :]


# block-assignment candidates one enumeration may visit
_ENUMERATION_CAP = 5_000_000


def enumerate_final_allocations(
    game: GridGame, tol: float = DEFAULT_TOL
) -> dict[tuple, tuple[Allocation, Assessment]]:
    """All pure continuation-equilibrium final allocations of the grid game.

    Enumerates type partitions with one message per block, keeping only
    receiver-optimal recommendations per block posterior and agent-optimal
    block assignments, grown one block at a time in ``itertools.product``
    order: a row is dropped once two blocks share a (baseline, final
    action) pair or a type strictly prefers another block's final action
    (what filtering the whole product keeps, for finite sender payoffs and
    ``tol >= 0``). The menu is the blocks' baselines; each block's
    message plays its recommendation under the block's Bayes posterior,
    and every off-path message copies the revision and belief of the
    first on-path message, in message order, with its baseline, so a
    deviation only reaches on-path final actions. Every found equilibrium
    is re-validated by the generic continuation checker; one it rejects
    raises RuntimeError naming each failed condition and its gap. Raises
    ValueError when the grid implies more block-assignment candidates,
    pruned or not, than ``_ENUMERATION_CAP``.
    """
    env = game.env
    labels = env.types.labels
    mu = env.types.weights
    T = len(labels)
    Z = np.array(game.z_values)

    # the final actions baseline b_i reaches, z_{i+k-2m} for revisions
    # r_0..r_2m, as a row of z indices; -1 pads off the grid
    m = game.alpha_steps
    reach = np.arange(len(game.x_values))[:, None] + np.arange(-2 * m, 1)
    on_grid = (reach >= 0) & (reach < len(Z))
    reach = np.where(on_grid, reach, -1)

    # keyed by each type's z index until returned: distinct index maps have
    # distinct keys, as grid steps exceed 2 * GRID_TOL
    found: dict[tuple, tuple[Allocation, Assessment]] = {}
    candidates = 0
    # once per type subset: receiver-optimal (x index, z index) rows and
    # envy[z', z], whether a member strictly prefers z' to z; once per two
    # subsets, which of their rows may meet in one assignment
    tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    compat: dict[tuple, np.ndarray] = {}
    for part in _partitions(list(range(T))):
        block_of = np.array([next(b for b, blk in enumerate(part) if t in blk) for t in range(T)])
        for block in part:
            if block not in tables:
                post = posteriors(((), t, mu[t]) for t in block).get((), {})
                vbar = game.v_tab @ np.array([post.get(t, 0.0) for t in range(T)])  # each z under the block posterior
                vals = np.where(on_grid, vbar[reach], -np.inf)
                xi, k = np.nonzero(on_grid & ~beats(vals.max(axis=1)[:, None], vals, tol))
                u = game.u_tab[:, block]
                tables[block] = (np.stack([xi, reach[xi, k]], axis=1), np.any(beats(u[:, None], u[None, :], tol), axis=2))
        pairs = [tables[block][0] for block in part]
        candidates += math.prod(map(len, pairs))
        if candidates > _ENUMERATION_CAP:
            raise ValueError(
                f"grid caps exceeded: more than {_ENUMERATION_CAP} block-assignment candidates"
            )
        # rows of pair indices, each extended by the next block's pairs that
        # differ from every earlier block's and that no type of either envies
        rows = np.zeros((1, 0), dtype=int)
        for b, new in enumerate(part):
            ok = np.ones((len(rows), len(pairs[b])), dtype=bool)
            for p, old in enumerate(part[:b]):
                if (old, new) not in compat:
                    (po, eo), (pn, en) = tables[old], tables[new]
                    zo, zn = po[:, 1, None], pn[None, :, 1]
                    compat[old, new] = np.any(po[:, None] != pn, axis=2) & ~eo[zn, zo] & ~en[zo, zn]
                ok &= compat[old, new][rows[:, p]]
            r, j = np.nonzero(ok)  # row-major: itertools.product order
            rows = np.column_stack([rows[r], j])
        combos = np.stack([p[i] for p, i in zip(pairs, rows.T)], axis=1)
        for combo in combos.tolist():
            z_of_type = tuple(combo[b][1] for b in block_of.tolist())
            if z_of_type in found:
                continue
            assessment = _assessment_from_blocks(game, part, combo)
            report = check_continuation(env, assessment, tol)
            if not report.passed:
                failed = [f"{name} {worst!r}" for name, ok, worst in (
                    ("bayes gap", report.bayes_ok, report.bayes_gap),
                    ("agent (type, deviation, gap)", report.agent_ok, report.agent_worst),
                    ("principal (principal, message, deviation, gap)", report.principal_ok, report.principal_worst),
                ) if not ok]
                raise RuntimeError(f"partition enumeration produced an invalid equilibrium: {'; '.join(failed)}")
            fa = Allocation({labels[t]: ((float(Z[zi]), 1.0),) for t, zi in enumerate(z_of_type)})
            found[z_of_type] = (fa, assessment)
    return {fa.key(): (fa, assessment) for fa, assessment in found.values()}


def _assessment_from_blocks(game: GridGame, part, combo) -> Assessment:
    labels = game.env.types.labels
    strategy = {}
    for block, (xi, zi) in zip(part, combo):
        msg = pair_label(f"b{xi}", f"r{zi - xi + 2 * game.alpha_steps}")  # b_xi + r_k = z_(xi+k-2m)
        for t in block:
            strategy[labels[t]] = (((msg,), 1.0),)
    return _menu_assessment(game, strategy, _posteriors(game, strategy), "selector")


@dataclass(frozen=True, slots=True)
class GammaReport:
    equal: bool
    n_limited: int
    n_full: int
    only_limited: tuple
    only_full: tuple
    transforms_ok: bool
    lift_failures: int
    collapse_failures: int
    limited: tuple[Allocation, ...]  # over final actions
    full: tuple[Allocation, ...]


def check_gamma_equal(
    model: RevisableModel,
    z_values: Sequence[float],
    alpha_steps: int,
    tol: float = DEFAULT_TOL,
) -> GammaReport:
    """Exhaustively verify that bounded revision is allocation-neutral.

    Enumerates the final-action allocation sets of the limited
    (``alpha_steps`` grid steps of discretion) and full-commitment models
    and checks set equality; additionally lifts every full-commitment
    equilibrium and collapses every limited one, re-checking each
    transformed assessment in its target model. A lift whose posterior
    ideal ``z_range`` does not bracket raises :class:`IdealBracketError`.
    """
    game_a = build_grid_game(model, z_values, alpha_steps)
    game_0 = build_grid_game(model, z_values, 0)
    lim = enumerate_final_allocations(game_a, tol)
    full = enumerate_final_allocations(game_0, tol)
    only_lim = tuple(sorted(set(lim) - set(full), key=repr))
    only_full = tuple(sorted(set(full) - set(lim), key=repr))

    failures = []
    for transform, source, target, found in (
        (lift_to_limited, game_0, game_a, full),
        (collapse_to_full, game_a, game_0, lim),
    ):
        failed = 0
        for key, (_fa, assessment) in found.items():
            try:
                rep = check_continuation(target.env, transform(source, assessment, target), tol)
                if not rep.passed or final_allocation_of(target, rep.allocation).key() != key:
                    failed += 1
            except IdealBracketError:  # an input error, not a failed transform
                raise
            except ValueError:  # a failed placement
                failed += 1
        failures.append(failed)
    lift_failures, collapse_failures = failures

    return GammaReport(
        equal=not only_lim and not only_full,
        n_limited=len(lim),
        n_full=len(full),
        only_limited=only_lim,
        only_full=only_full,
        transforms_ok=lift_failures == 0 and collapse_failures == 0,
        lift_failures=lift_failures,
        collapse_failures=collapse_failures,
        limited=tuple(fa for fa, _ in lim.values()),
        full=tuple(fa for fa, _ in full.values()),
    )
