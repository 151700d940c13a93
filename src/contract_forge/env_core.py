"""Environments, payoff evaluation, and expectations under beliefs.

An :class:`Environment` bundles a type space, one spec per principal
(contractible actions, discretionary actions, and the feasibility map
between them), and a payoff model. Payoffs are either expressions over
the action values and the type, or explicit tables keyed by (state,
action-pair profile) for piecewise constructions.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import exprlang
from .exprlang import EvalError, Expr

__all__ = [
    "FiniteType",
    "TypeSpace",
    "DensityError",
    "Belief",
    "ActionValue",
    "PrincipalSpec",
    "PayoffModel",
    "Environment",
    "Allocation",
    "OPT_OUT",
    "ValidationReport",
    "validate",
    "payoff_u",
    "payoff_v",
    "payoff_tables",
    "expect",
    "check_allocation",
    "probability_violations",
    "check_probabilities",
    "beats",
    "same_value",
]

WEIGHT_TOL = 1e-12  # probability vectors sum to 1 within this; type values closer (relatively) are one
DENSITY_TOL = 1e-9
GRID_POINTS = 1025  # nodes of an interval type space's weighted grid
DEFAULT_TOL = 1e-9  # payoff-gap tolerance of the equilibrium checks and searches
KEY_DIGITS = 12  # decimal digits at which allocation keys and reported values are compared

#: Sentinel outcome for a type that takes the outside option.
OPT_OUT = "opt-out"


def simpson_coefficients(n_points: int) -> np.ndarray:
    """Composite Simpson coefficients 1, 4, 2, ..., 2, 4, 1 (odd ``n_points``)."""
    coef = np.ones(n_points)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    return coef


@dataclass(frozen=True, slots=True)
class FiniteType:
    label: str
    value: float
    weight: float


class DensityError(ValueError):
    """An interval density whose Simpson weights do not sum to 1 within DENSITY_TOL."""


@dataclass(frozen=True, slots=True)
class TypeSpace:
    """Finite list of weighted types, or an interval with a density tag.

    Interval spaces are discretized on demand to a deterministic weighted
    grid (Simpson weights times the density, renormalized) so that all
    engine arithmetic is finite and reproducible.
    """

    kind: str  # "finite" | "interval"
    finite: tuple[FiniteType, ...] = ()
    lo: float = 0.0
    hi: float = 1.0
    density: str = "uniform"  # "uniform" | "normal"
    mean: float = 0.0
    sd: float = 1.0

    @staticmethod
    def from_finite(items: Sequence[tuple[str, float, float]]) -> "TypeSpace":
        return TypeSpace(kind="finite", finite=tuple(FiniteType(*it) for it in items))

    @staticmethod
    def uniform_finite(values: Sequence[float]) -> "TypeSpace":
        n = len(values)
        return TypeSpace.from_finite([(f"t{i}", float(v), 1.0 / n) for i, v in enumerate(values)])

    @staticmethod
    def interval(
        lo: float, hi: float, density: str = "uniform", mean: float = 0.0, sd: float = 1.0
    ) -> "TypeSpace":
        return TypeSpace(kind="interval", lo=lo, hi=hi, density=density, mean=mean, sd=sd)

    @property
    def labels(self) -> tuple[str, ...]:
        if self.kind != "finite":
            raise ValueError("labels are defined for finite type spaces only")
        return tuple(t.label for t in self.finite)

    @property
    def values(self) -> np.ndarray:
        if self.kind != "finite":
            raise ValueError("values are defined for finite type spaces only")
        return np.array([t.value for t in self.finite])

    @property
    def weights(self) -> np.ndarray:
        if self.kind != "finite":
            raise ValueError("weights are defined for finite type spaces only")
        return np.array([t.weight for t in self.finite])

    def density_at(self, theta: np.ndarray) -> np.ndarray:
        if self.density == "uniform":
            return np.full_like(np.asarray(theta, dtype=float), 1.0 / (self.hi - self.lo))
        # truncated normal on [lo, hi]
        z = (np.asarray(theta, dtype=float) - self.mean) / self.sd
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        cdf = lambda x: 0.5 * (1.0 + math.erf((x - self.mean) / (self.sd * math.sqrt(2.0))))
        mass = cdf(self.hi) - cdf(self.lo)
        return phi / (self.sd * mass)

    def grid(self, points: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic weighted grid: (points, normalized weights).

        Simpson coefficients times the density on ``points`` nodes
        (:data:`GRID_POINTS` by default; the solvers check their quadrature
        with their panel count plus one). The count must be odd so the
        panel count is even, and the weights must sum to 1 within
        ``DENSITY_TOL``.
        """
        if self.kind == "finite":
            return self.values, self.weights
        n = GRID_POINTS if points is None else points
        if n < 3 or n % 2 == 0:
            raise ValueError("interval grids need an odd point count >= 3")
        pts = np.linspace(self.lo, self.hi, n)
        h = (self.hi - self.lo) / (n - 1)
        w = simpson_coefficients(n) * (h / 3.0) * self.density_at(pts)
        total = float(w.sum())
        if not abs(total - 1.0) <= DENSITY_TOL:  # NaN fails too
            raise DensityError(
                f"density integrates to {total!r} at {n - 1} panels, not 1 within {DENSITY_TOL}"
            )
        return pts, w / total


def probability_violations(weights: Sequence[float], what: str) -> list[tuple[int | None, str]]:
    """The broken rules of a probability vector, as (weight index or None
    for the sum, message naming the weights ``what``). The one rule: every
    weight is finite and >= 0, and the weights sum to 1 within ``WEIGHT_TOL``."""
    out: list[tuple[int | None, str]] = [
        (i, f"{'negative' if w < 0.0 else 'non-finite'} {what} weight {w!r}")
        for i, w in enumerate(weights)
        if not 0.0 <= w < math.inf
    ]
    total = sum(weights)
    if not abs(total - 1.0) <= WEIGHT_TOL:  # NaN fails too
        out.append((None, f"{what} weights sum to {total!r}, not 1"))
    return out


def check_probabilities(weights: Sequence[float], what: str) -> None:
    """Raise ValueError on the first broken rule of :func:`probability_violations`."""
    broken = probability_violations(weights, what)
    if broken:
        raise ValueError(broken[0][1])


def beats(v, ref, tol):
    """The one payoff-gap boundary: ``v`` beats ``ref`` when it exceeds it
    by more than ``tol``. Elementwise on arrays."""
    return v - ref > tol


def same_value(theta: float, ref: float) -> bool:
    """Whether ``theta`` is the type value ``ref``: within ``WEIGHT_TOL``
    times max(1, |ref|)."""
    return abs(theta - ref) <= WEIGHT_TOL * max(1.0, abs(ref))


def finite_type_violations(finite: Sequence[FiniteType]) -> list[tuple[int | None, str, str]]:
    """The broken rules of a finite type list, as (item index, field, message):
    labels are distinct and the weights a probability vector (a broken sum
    has index None and field "weight")."""
    out: list[tuple[int | None, str, str]] = [
        (i, "label", f"duplicate type label {t.label!r}")
        for i, t in enumerate(finite)
        if any(u.label == t.label for u in finite[:i])
    ]
    out += [(i, "weight", message) for i, message in probability_violations([t.weight for t in finite], "prior")]
    return sorted(out, key=lambda v: math.inf if v[0] is None else v[0])  # item order, then the sum


@dataclass(frozen=True, slots=True)
class Belief:
    """Finitely supported weights over type values."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("belief has empty support")
        check_probabilities(self.weights, "belief")

    @staticmethod
    def from_typespace(ts: TypeSpace) -> "Belief":
        pts, w = ts.grid()
        return Belief(tuple(float(p) for p in pts), tuple(float(x) for x in w))

    @staticmethod
    def point_mass(theta: float) -> "Belief":
        return Belief((float(theta),), (1.0,))


def expect(f: Callable[[np.ndarray], np.ndarray], belief: Belief) -> float:
    """Weighted expectation of ``f`` under ``belief``; ``f`` maps the array
    of support points to the array of their values."""
    return float(np.asarray(f(np.array(belief.points)), dtype=float) @ np.array(belief.weights))


@dataclass(frozen=True, slots=True)
class ActionValue:
    label: str
    value: float | None = None


@dataclass(frozen=True, slots=True)
class PrincipalSpec:
    """One principal's action structure.

    ``contractible``/``noncontractible`` are finite label lists.
    ``feasible`` maps each contractible label to the labels of the
    discretionary actions available after it.
    """

    contractible: tuple[ActionValue, ...]
    noncontractible: tuple[ActionValue, ...]
    feasible: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def x_labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.contractible)

    @property
    def y_labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.noncontractible)

    def x_value(self, label: str) -> float | None:
        for a in self.contractible:
            if a.label == label:
                return a.value
        raise KeyError(label)

    def y_value(self, label: str) -> float | None:
        for a in self.noncontractible:
            if a.label == label:
                return a.value
        raise KeyError(label)

    def feasible_pairs(self) -> tuple[tuple[str, str], ...]:
        """All (x, y) pairs with y feasible after x, in declared order."""
        out = []
        for x in self.x_labels:
            for y in self.feasible.get(x, ()):
                out.append((x, y))
        return tuple(out)


ProfileKey = tuple[tuple[str, str], ...]  # ((x_label, y_label) per principal)


@dataclass(frozen=True, slots=True)
class PayoffModel:
    """Agent utility, per-principal utilities, and the outside option.

    ``mode`` is "expressions" (payoffs over action values and theta) or
    "table" (explicit entries keyed by type label and action-pair profile).
    The outside option defaults to the constant 0.
    """

    mode: str  # "expressions" | "table"
    agent: Expr | None = None
    principals: tuple[Expr, ...] = ()
    outside: Expr = field(default_factory=lambda: exprlang.Num(0.0))
    table: Mapping[tuple[str, ProfileKey], tuple[float, tuple[float, ...]]] = field(
        default_factory=dict
    )

    @staticmethod
    def from_expressions(
        agent: str | Expr,
        principals: Sequence[str | Expr],
        outside: str | Expr = "0",
    ) -> "PayoffModel":
        conv = lambda e: exprlang.parse(e) if isinstance(e, str) else e
        return PayoffModel(
            mode="expressions",
            agent=conv(agent),
            principals=tuple(conv(p) for p in principals),
            outside=conv(outside),
        )

    @staticmethod
    def from_table(
        entries: Mapping[tuple[str, ProfileKey], tuple[float, tuple[float, ...]]],
        n_principals: int,
        outside: str | Expr = "0",
    ) -> "PayoffModel":
        conv = exprlang.parse(outside) if isinstance(outside, str) else outside
        return PayoffModel(
            mode="table",
            principals=tuple(exprlang.Num(0.0) for _ in range(n_principals)),
            outside=conv,
            table=dict(entries),
        )


@dataclass(frozen=True, slots=True)
class Environment:
    """Complete contracting environment."""

    types: TypeSpace
    principals: tuple[PrincipalSpec, ...]
    payoffs: PayoffModel
    observability: str = "public"  # "public" | "private"
    optout: bool = True
    _tables: dict | None = field(default=None, init=False, compare=False, repr=False)  # payoff_tables

    @property
    def n(self) -> int:
        return len(self.principals)

    def action_context(self, profile: ProfileKey) -> dict[str, float]:
        """Numeric binding for an expression payoff: x1, y1, x2, ... (x, y with one principal).

        Actions without a numeric value are simply absent; evaluation then
        fails (naming the variable) only when an expression references them.
        """
        ctx: dict[str, float] = {}
        for j, (x_lab, y_lab) in enumerate(profile, start=1):
            spec = self.principals[j - 1]
            xv, yv = spec.x_value(x_lab), spec.y_value(y_lab)
            if xv is not None:
                ctx[f"x{j}"] = xv
            if yv is not None:
                ctx[f"y{j}"] = yv
        if self.n == 1:
            if "x1" in ctx:
                ctx["x"] = ctx["x1"]
            if "y1" in ctx:
                ctx["y"] = ctx["y1"]
        return ctx

    def check_feasible(self, profile: ProfileKey) -> None:
        if len(profile) != self.n:
            raise EvalError(f"profile has {len(profile)} entries for {self.n} principals")
        for j, (x_lab, y_lab) in enumerate(profile):
            spec = self.principals[j]
            if x_lab not in spec.x_labels:
                raise EvalError(f"unknown contractible action {x_lab!r} (principal {j + 1})")
            if y_lab not in spec.feasible.get(x_lab, ()):
                raise EvalError(
                    f"infeasible action {y_lab!r} after {x_lab!r} (principal {j + 1})"
                )

    def outside_option(self, theta: float) -> float:
        return exprlang.evaluate(self.payoffs.outside, {"theta": float(theta)})

    def type_label_for(self, theta: float) -> str:
        """The one type whose value is ``theta``; table payoffs are keyed by it."""
        hits = [t.label for t in self.types.finite if same_value(theta, t.value)]
        if len(hits) > 1:
            raise EvalError(
                f"types {hits[0]!r} and {hits[1]!r} share the value {theta!r}; table payoffs need distinct values"
            )
        if not hits:
            raise EvalError(f"no type with value {theta!r} in the finite type space")
        return hits[0]


def payoff_u(env: Environment, profile: ProfileKey, theta: float) -> float:
    """Agent utility at a feasible action-pair profile and type value."""
    return _payoff(env, None, profile, theta)


def payoff_v(env: Environment, j: int, profile: ProfileKey, theta: float) -> float:
    """Principal ``j``'s (0-based) utility at a feasible profile and type value."""
    return _payoff(env, j, profile, theta)


def _payoff(env: Environment, j: int | None, profile: ProfileKey, theta: float) -> float:
    """The agent's utility (``j`` None) or principal ``j``'s."""
    env.check_feasible(profile)
    if env.payoffs.mode == "table":
        key = (env.type_label_for(theta), tuple(profile))
        try:
            agent, principals = env.payoffs.table[key]
        except KeyError:
            raise EvalError(f"payoff table has no entry for {key!r}") from None
        return agent if j is None else principals[j]
    ctx = env.action_context(profile)
    ctx["theta"] = float(theta)
    return exprlang.evaluate(env.payoffs.agent if j is None else env.payoffs.principals[j], ctx)


@dataclass(frozen=True, slots=True)
class Allocation:
    """Map from type label to a finitely supported outcome distribution.

    Outcomes are feasible action-pair profiles, :data:`OPT_OUT` for the
    outside option, or final actions (numbers) of a revisable game. Each
    type's probabilities are a probability vector.
    """

    entries: Mapping[str, tuple[tuple[ProfileKey | str | float, float], ...]]

    def __post_init__(self):
        for label, dist in self.entries.items():
            check_probabilities([p for _, p in dist], f"type {label!r} allocation")

    def key(self, digits: int = KEY_DIGITS) -> tuple:
        """Canonical hashable form for set comparison and deduplication:
        probabilities and final actions rounded to ``digits``, zero
        probabilities dropped."""
        out = []
        for label in sorted(self.entries):
            dist = [
                (round(outcome, digits) if isinstance(outcome, (int, float))
                 else outcome if isinstance(outcome, str) else tuple(map(tuple, outcome)), round(p, digits))
                for outcome, p in self.entries[label]
                if round(p, digits) != 0.0
            ]
            out.append((label, tuple(sorted(dist, key=repr))))
        return tuple(out)


def check_allocation(env: Environment, alloc: Allocation) -> None:
    """Validate an allocation's type labels and the feasibility of its
    outcomes in ``env``; its probabilities are checked when it is built."""
    for label, dist in alloc.entries.items():
        if label not in env.types.labels:
            raise ValueError(f"unknown type label {label!r}")
        for outcome, _ in dist:
            if outcome != OPT_OUT:
                env.check_feasible(outcome)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class ValidationReport:
    passed: bool
    violations: tuple[str, ...]


def validate(env: Environment) -> ValidationReport:
    """Structural audit of an environment.

    Checks prior weights, density normalization, nonempty feasibility,
    the two-feasible-pairs floor per principal, and (for finite type
    spaces) that :func:`payoff_tables` can be built: every payoff over the
    feasible-pair sweep and the outside option at every type is defined
    and finite.
    """
    violations: list[str] = []

    if env.payoffs.mode == "expressions":
        allowed = {"theta"}
        for j in range(1, env.n + 1):
            allowed.update({f"x{j}", f"y{j}"})
        if env.n == 1:
            allowed.update({"x", "y"})
        named = [("agent utility", env.payoffs.agent)] + [
            (f"principal {j + 1} utility", e)
            for j, e in enumerate(env.payoffs.principals)
        ]
        for what, expr in named:
            stray = exprlang.free_vars(expr) - allowed
            if stray:
                violations.append(
                    f"{what} references undeclared variable {sorted(stray)[0]!r}"
                )
        stray = exprlang.free_vars(env.payoffs.outside) - {"theta"}
        if stray:
            violations.append(
                f"outside option references undeclared variable {sorted(stray)[0]!r}"
            )

    if env.types.kind == "finite":
        violations += [message for _, _, message in finite_type_violations(env.types.finite)]
    else:
        if not env.types.lo < env.types.hi:
            violations.append("interval type space requires lo < hi")
        else:
            try:
                env.types.grid()
            except ValueError as e:
                violations.append(str(e))

    for j, spec in enumerate(env.principals, start=1):
        pair_count = 0
        for x in spec.x_labels:
            ys = spec.feasible.get(x, ())
            if not ys:
                violations.append(f"principal {j}: empty feasibility set after {x!r}")
            unknown = set(ys) - set(spec.y_labels)
            if unknown:
                violations.append(
                    f"principal {j}: feasible set after {x!r} names unknown action "
                    f"{sorted(unknown)[0]!r}"
                )
            pair_count += len(ys)
        if pair_count < 2:
            violations.append(
                f"principal {j}: fewer than two feasible pairs (non-triviality floor)"
            )

    if env.types.kind == "finite" and not violations:
        try:
            payoff_tables(env)
        except EvalError as e:
            violations.append(f"payoff evaluation failed: {e}")
        except ValueError as e:
            violations.append(str(e))

    return ValidationReport(passed=not violations, violations=tuple(violations))


def payoff_tables(env: Environment) -> dict[ProfileKey | str, tuple[np.ndarray, np.ndarray]]:
    """(agent payoffs over types, principal payoffs n x T) per profile of the
    sweep, and at :data:`OPT_OUT` (the outside option, 0 for each principal).

    Filled once per environment by the scalar path and kept on it,
    read-only: every profile at the first type, then at the next, and the
    outside option after the sweep. The first evaluation that raises is
    re-raised (an :class:`EvalError` names the failing subexpression), and
    a non-finite payoff or outside option raises ValueError, so a table
    that exists is complete and finite.
    """
    if env._tables is None:
        profiles = _profile_sweep(env.principals)
        u: dict[ProfileKey, list] = {prof: [] for prof in profiles}
        v: dict[ProfileKey, list] = {prof: [[] for _ in range(env.n)] for prof in profiles}
        for t in env.types.finite:
            for prof in profiles:
                row = [payoff_u(env, prof, t.value)]
                row += [payoff_v(env, j, prof, t.value) for j in range(env.n)]
                if not all(math.isfinite(x) for x in row):
                    raise ValueError(f"non-finite payoff at type {t.label!r}, profile {prof!r}")
                u[prof].append(row[0])
                for j in range(env.n):
                    v[prof][j].append(row[j + 1])
        outside = []
        for t in env.types.finite:
            outside.append(env.outside_option(t.value))
            if not math.isfinite(outside[-1]):
                raise ValueError(f"non-finite outside option at type {t.label!r}")
        tables = {prof: (np.array(u[prof]), np.array(v[prof])) for prof in profiles}
        tables[OPT_OUT] = (np.array(outside), np.zeros((env.n, len(outside))))
        for u_t, v_t in tables.values():
            u_t.flags.writeable = v_t.flags.writeable = False
        object.__setattr__(env, "_tables", tables)
    return env._tables


def _profile_sweep(principals: Sequence[PrincipalSpec]) -> list[ProfileKey]:
    """Cartesian product of feasible pairs across principals."""
    pools = [spec.feasible_pairs() for spec in principals]
    out: list[ProfileKey] = [()]
    for pool in pools:
        out = [prof + (pair,) for prof in out for pair in pool]
    return out
