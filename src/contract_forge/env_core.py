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
]

WEIGHT_TOL = 1e-12
DENSITY_TOL = 1e-9
DEFAULT_TOL = 1e-9  # payoff-gap tolerance of the equilibrium checks and searches

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
    grid_points: int = 1025

    @staticmethod
    def from_finite(items: Sequence[tuple[str, float, float]]) -> "TypeSpace":
        return TypeSpace(kind="finite", finite=tuple(FiniteType(*it) for it in items))

    @staticmethod
    def uniform_finite(values: Sequence[float]) -> "TypeSpace":
        n = len(values)
        return TypeSpace.from_finite([(f"t{i}", float(v), 1.0 / n) for i, v in enumerate(values)])

    @staticmethod
    def interval(
        lo: float,
        hi: float,
        density: str = "uniform",
        mean: float = 0.0,
        sd: float = 1.0,
        grid_points: int = 1025,
    ) -> "TypeSpace":
        return TypeSpace(
            kind="interval", lo=lo, hi=hi, density=density, mean=mean, sd=sd,
            grid_points=grid_points,
        )

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
        (``grid_points`` by default; the solvers check their quadrature
        with their panel count plus one). The count must be odd so the
        panel count is even, and the weights must sum to 1 within
        ``DENSITY_TOL``.
        """
        if self.kind == "finite":
            return self.values, self.weights
        n = self.grid_points if points is None else points
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


@dataclass(frozen=True, slots=True)
class Belief:
    """Finitely supported weights over type values."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("belief has empty support")
        w = np.array(self.weights)
        if np.any(w < -WEIGHT_TOL):
            raise ValueError("belief weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"belief weights sum to {float(w.sum())!r}, not 1")

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
        """Numeric binding for an expression payoff: x1,y1,... plus x_1,y_1 aliases.

        Actions without a numeric value are simply absent; evaluation then
        fails (naming the variable) only when an expression references them.
        """
        ctx: dict[str, float] = {}
        for j, (x_lab, y_lab) in enumerate(profile, start=1):
            spec = self.principals[j - 1]
            xv, yv = spec.x_value(x_lab), spec.y_value(y_lab)
            if xv is not None:
                ctx[f"x{j}"] = ctx[f"x_{j}"] = xv
            if yv is not None:
                ctx[f"y{j}"] = ctx[f"y_{j}"] = yv
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
        hits = [t.label for t in self.types.finite if abs(t.value - theta) <= WEIGHT_TOL * max(1.0, abs(t.value))]
        if len(hits) > 1:
            raise EvalError(
                f"types {hits[0]!r} and {hits[1]!r} share the value {theta!r}; table payoffs need distinct values"
            )
        if not hits:
            raise EvalError(f"no type with value {theta!r} in the finite type space")
        return hits[0]


def payoff_u(env: Environment, profile: ProfileKey, theta: float) -> float:
    """Agent utility at a feasible action-pair profile and type value."""
    env.check_feasible(profile)
    if env.payoffs.mode == "table":
        key = (env.type_label_for(theta), tuple(profile))
        try:
            return env.payoffs.table[key][0]
        except KeyError:
            raise EvalError(f"payoff table has no entry for {key!r}") from None
    ctx = env.action_context(profile)
    ctx["theta"] = float(theta)
    return exprlang.evaluate(env.payoffs.agent, ctx)


def payoff_v(env: Environment, j: int, profile: ProfileKey, theta: float) -> float:
    """Principal ``j``'s (0-based) utility at a feasible profile and type value."""
    env.check_feasible(profile)
    if env.payoffs.mode == "table":
        key = (env.type_label_for(theta), tuple(profile))
        try:
            return env.payoffs.table[key][1][j]
        except KeyError:
            raise EvalError(f"payoff table has no entry for {key!r}") from None
    ctx = env.action_context(profile)
    ctx["theta"] = float(theta)
    return exprlang.evaluate(env.payoffs.principals[j], ctx)


@dataclass(frozen=True, slots=True)
class Allocation:
    """Map from type label to a finitely supported outcome distribution.

    Outcomes are feasible action-pair profiles, or :data:`OPT_OUT` for the
    outside option. Per-type probabilities sum to one.
    """

    entries: Mapping[str, tuple[tuple[ProfileKey | str, float], ...]]

    def __post_init__(self):
        for label, dist in self.entries.items():
            total = sum(p for _, p in dist)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"allocation for type {label!r} has mass {total!r}, not 1"
                )

    def key(self, digits: int = 12) -> tuple:
        """Canonical hashable form for set comparison and deduplication."""
        out = []
        for label in sorted(self.entries):
            dist = [
                (outcome if isinstance(outcome, str) else tuple(map(tuple, outcome)),
                 round(p, digits))
                for outcome, p in self.entries[label]
                if round(p, digits) != 0.0
            ]
            out.append((label, tuple(sorted(dist, key=repr))))
        return tuple(out)


def check_allocation(env: Environment, alloc: Allocation) -> None:
    """Validate feasibility and per-type mass of an allocation."""
    for label, dist in alloc.entries.items():
        if label not in env.types.labels:
            raise ValueError(f"unknown type label {label!r}")
        total = 0.0
        for outcome, p in dist:
            if p < -WEIGHT_TOL:
                raise ValueError("negative probability in allocation")
            total += p
            if outcome != OPT_OUT:
                env.check_feasible(outcome)  # type: ignore[arg-type]
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"allocation for type {label!r} has mass {total!r}")


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
            allowed.update({f"x{j}", f"y{j}", f"x_{j}", f"y_{j}"})
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
        w = env.types.weights
        if np.any(w < -WEIGHT_TOL):
            violations.append("negative prior weight")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            violations.append(f"prior weights sum to {float(w.sum())!r}, not 1")
        if len(set(env.types.labels)) != len(env.types.labels):
            violations.append("duplicate type labels")
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
        profiles = _profile_sweep(env)
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


def _profile_sweep(env: Environment):
    """Cartesian product of feasible pairs across principals."""
    pools = [spec.feasible_pairs() for spec in env.principals]
    out: list[ProfileKey] = [()]
    for pool in pools:
        out = [prof + (pair,) for prof in out for pair in pool]
    return out
