"""Continuation- and robust-equilibrium verification and enumeration.

Works on finite environments with an installed contract profile (one
mechanism per principal). Two observability modes:

* public: principals observe the full message profile;
* private: each principal observes only the message sent to him.

Both are one rule: principal j observes ``_Game.seen(j, profile)``, and
continuation play is keyed by observations. Internally every belief is a
map from (type, message profile) to weight at one observation; a
:class:`BeliefSystem` holds it by labels, as weights over (type, the
messages j does not observe), an empty tuple of messages when public.
Declared beliefs are checked once, where they are read: each must be a
probability vector over known types and messages.

A continuation equilibrium requires Bayes-consistent beliefs, agent
optimality with interim participation (the agent's payoff must weakly
beat the outside option and every message profile), and posterior
optimality of every principal's discretionary choice after every
message. The no-safe-deviation test treats a contract deviation as
defeating an assessment only when every continuation equilibrium after
the deviation strictly improves the deviator.

All search operations walk a declared finite space (pure agent
strategies, pure continuation choices, off-path beliefs drawn from a
finite policy menu) and are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .contracts import Mechanism, enumerate_gstar, enumerate_private, image, menu_rec, pair_label
from .env_core import (
    DEFAULT_TOL,
    OPT_OUT,
    Allocation,
    Environment,
    ProfileKey,
    beats,
    check_probabilities,
    payoff_tables,
)

__all__ = [
    "Assessment",
    "BeliefSystem",
    "EquilibriumReport",
    "SearchOptions",
    "SearchSpaceError",
    "FoundEquilibrium",
    "RobustReport",
    "DeviationFinding",
    "build_assessment",
    "bayes_update",
    "posteriors",
    "check_continuation",
    "induced_allocation",
    "principal_value",
    "principal_state_values",
    "enumerate_equilibria",
    "check_robust",
    "private_post_deviation_values",
    "canonicalize",
]

OFFPATH_POLICIES = ("prior", "lowest-type", "highest-type", "selector")
# two-point mixtures put weight k/8 and 1 - k/8 on their outcomes, k = 1..7
_MIX_STEPS = 8

StrategyMap = Mapping[str, tuple[tuple[tuple[str, ...] | str, float], ...]]


class SearchSpaceError(RuntimeError):
    """The declared search space exceeds the configured cap."""


@dataclass(frozen=True, slots=True)
class BeliefSystem:
    """Every principal's belief at every observation.

    ``weights`` maps principal index j -> observation label (the
    message-label profile when public, j's own message label when private)
    -> weights over (type label, labels of the messages j does not
    observe, in principal order). Public play shows every message, so
    each key's label tuple is empty. ``offpath`` names the policy of the
    off-path beliefs.
    """

    weights: Mapping[int, Mapping[tuple[str, ...] | str, Mapping[tuple[str, tuple[str, ...]], float]]]
    offpath: str = "prior"


@dataclass(frozen=True, slots=True)
class Assessment:
    """Contract profile plus agent strategy, continuation play, and beliefs."""

    contracts: tuple[Mechanism, ...]
    strategy: StrategyMap
    continuation: Mapping[int, Mapping]  # public: profile->y; private: message->y
    beliefs: BeliefSystem


@dataclass(frozen=True, slots=True)
class EquilibriumReport:
    bayes_ok: bool
    bayes_gap: float
    agent_ok: bool
    agent_worst: tuple | None  # (type label, deviation profile, gap)
    principal_ok: bool
    principal_worst: tuple | None  # (principal, where, deviation y, gap)
    values: tuple[float, ...]
    allocation: Allocation
    ties: tuple = ()

    @property
    def passed(self) -> bool:
        return self.bayes_ok and self.agent_ok and self.principal_ok


@dataclass(frozen=True, slots=True)
class SearchOptions:
    tol: float = DEFAULT_TOL
    policies: tuple[str, ...] = ("prior",)
    mixing: str = "pure"  # "pure" | "two-point"
    cap: int = 5_000_000


@dataclass(frozen=True, slots=True)
class FoundEquilibrium:
    assessment: Assessment
    allocation: Allocation
    values: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class DeviationFinding:
    principal: int
    deviation: Mechanism
    outcome: str  # "safe-profitable" | "deterred" | "no-continuation-equilibrium"
    worst_value: float | None  # lowest post-deviation value for the deviator
    best_value: float | None
    gain: float | None  # worst_value - equilibrium value when safe-profitable


@dataclass(frozen=True, slots=True)
class RobustReport:
    passed: bool
    base: EquilibriumReport
    findings: tuple[DeviationFinding, ...]


# ---------------------------------------------------------------------------
# Internal finite-game view of (environment, contracts)
# ---------------------------------------------------------------------------


class _Game:
    def __init__(self, env: Environment, contracts: Sequence[Mechanism]):
        if len(contracts) != env.n:
            raise ValueError("one contract per principal required")
        for j, c in enumerate(contracts):
            if c.principal != j:
                raise ValueError(f"contract at slot {j} is for principal {c.principal}")
        self.env = env
        self.contracts = tuple(contracts)
        self.sees_all = env.observability == "public"  # every principal sees every message
        self.t_labels = env.types.labels
        self.t_values = env.types.values
        self.mu = env.types.weights
        self.T = len(self.t_labels)
        self.n = env.n
        self.msg_labels = [c.labels for c in contracts]
        self.msg_action = [tuple(m.action for m in c.messages) for c in contracts]
        self.msg_rec = [tuple(m.recommendation for m in c.messages) for c in contracts]
        self.feas = [
            tuple(env.principals[j].feasible[a] for a in self.msg_action[j])
            for j in range(self.n)
        ]
        self.sizes = [len(c.messages) for c in contracts]
        self.profiles = list(itertools.product(*[range(s) for s in self.sizes]))
        # per principal: observation -> its message profiles, in profile order
        self.cells = [{} for _ in range(self.n)]
        for prof in self.profiles:
            for j in range(self.n):
                self.cells[j].setdefault(self.seen(j, prof), []).append(prof)
        # (principal, observation) in report order: profile-major when public,
        # principal-major when private
        if self.sees_all:
            self.sites = [(j, prof) for prof in self.profiles for j in range(self.n)]
        else:
            self.sites = [(j, obs) for j in range(self.n) for obs in self.cells[j]]
        # first message of each contract carrying a given action
        self.selector = []
        for j in range(self.n):
            sel: dict[str, int] = {}
            for i, a in enumerate(self.msg_action[j]):
                sel.setdefault(a, i)
            self.selector.append(sel)
        self.tables = payoff_tables(env)
        self.U = self.tables[OPT_OUT][0]
        # the agent's payoff floor: the outside option when exit is allowed
        self.floor = self.U if env.optout else np.full(self.T, -np.inf)
        self._pay: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # best-reply sets of this game's search (_nash_set, _best_replies)
        self.memo: dict[tuple, tuple] = {}

    def seen(self, j: int, prof: tuple[int, ...]):
        """Principal j's observation of a message profile: the profile when
        public, its own message index when private."""
        return prof if self.sees_all else prof[j]

    def place(self, j: int, obs, prof: tuple[int, ...]) -> tuple[int, ...]:
        """``prof`` with what principal j observes replaced by ``obs``."""
        return obs if self.sees_all else prof[:j] + (obs,) + prof[j + 1 :]

    def label(self, j: int, obs):
        """The label of an observation: message labels, or one label."""
        return self.profile_labels(obs) if self.sees_all else self.msg_labels[j][obs]

    def hidden(self, j: int, prof: tuple[int, ...]) -> tuple[str, ...]:
        """The labels of the messages of ``prof`` that principal j does not observe."""
        return () if self.sees_all else tuple(self.msg_labels[k][prof[k]] for k in self.others(j))

    def unhide(self, j: int, obs, hidden: tuple[str, ...]) -> tuple[int, ...]:
        """The message profile principal j observes as ``obs`` whose unobserved
        messages carry the labels ``hidden``; ValueError on labels that do not fit."""
        others = () if self.sees_all else self.others(j)
        try:  # a length mismatch or an unknown label
            rest = [self.msg_labels[k].index(lab) for k, lab in zip(others, hidden, strict=True)]
        except ValueError:
            raise ValueError(f"{hidden!r} are not the labels of the {len(others)} messages principal {j} does not see") from None
        return obs if self.sees_all else tuple(rest[:j] + [obs] + rest[j:])

    def select(self, j: int, actions: Sequence[str]):
        """Principal j's observation of the profile of first messages
        carrying ``actions``, one contractible action per principal."""
        return self.seen(j, tuple(self.selector[k][a] for k, a in enumerate(actions)))

    def profile_labels(self, prof: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.msg_labels[j][m] for j, m in enumerate(prof))

    def profile_from_labels(self, labels: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.msg_labels[j].index(lab) for j, lab in enumerate(labels))

    def actions(self, prof: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.msg_action[j][m] for j, m in enumerate(prof))

    def action_key(self, prof: tuple[int, ...], ys: tuple[str, ...]) -> ProfileKey:
        return tuple(zip(self.actions(prof), ys))

    def payoffs(self, prof: tuple[int, ...], ys: tuple[str, ...]):
        """(agent payoff vector over types, principal payoff matrix n x T)."""
        key = (prof, ys)
        hit = self._pay.get(key)
        if hit is None:
            hit = self._pay[key] = self.tables[self.action_key(prof, ys)]
        return hit

    def others(self, j: int) -> list[int]:
        return [k for k in range(self.n) if k != j]


def _normalize_strategy(game: _Game, strategy: StrategyMap):
    """Strategy as dict: type index -> list of (profile tuple | None, prob)."""
    out: dict[int, list[tuple[tuple[int, ...] | None, float]]] = {}
    for t, lab in enumerate(game.t_labels):
        if lab not in strategy:
            raise ValueError(f"strategy missing type {lab!r}")
        check_probabilities([prob for _, prob in strategy[lab]], f"type {lab!r} strategy")
        out[t] = [
            (None if outcome == OPT_OUT else game.profile_from_labels(outcome), float(prob))
            for outcome, prob in strategy[lab]
        ]
    return out


# ---------------------------------------------------------------------------
# Bayes updating and off-path policies
# ---------------------------------------------------------------------------


def posteriors(joint) -> dict:
    """Bayes' rule, the one place a posterior is formed. ``joint`` yields
    (observation, key, weight) triples; weights are summed per
    (observation, key) and per observation in the order given, and each
    observation of positive mass gets {key: weight / mass}, both in
    first-use order."""
    weights: dict = {}
    mass: dict = {}
    for obs, key, w in joint:
        if obs in mass:
            acc = weights[obs]
            acc[key] = acc.get(key, 0.0) + w
            mass[obs] += w
        else:
            weights[obs], mass[obs] = {key: w}, w
    return {obs: {k: w / mass[obs] for k, w in acc.items()} for obs, acc in weights.items() if mass[obs] > 0.0}


def _posteriors(game: _Game, q, j: int) -> dict:
    """Principal j's Bayes posterior over (type, profile) at every
    observation with positive mass; opt-out mass is dropped."""
    return posteriors(
        (game.seen(j, prof), (t, prof), game.mu[t] * prob)
        for t, dist in q.items() for prof, prob in dist if prof is not None and prob != 0.0
    )


def _policy_type_vector(game: _Game, policy: str) -> np.ndarray:
    if policy == "lowest-type":
        vec = np.zeros(game.T)
        vec[int(np.argmin(game.t_values))] = 1.0
        return vec
    if policy == "highest-type":
        vec = np.zeros(game.T)
        vec[int(np.argmax(game.t_values))] = 1.0
        return vec
    total = float(game.mu.sum())
    return game.mu / total


def _beliefs(game: _Game, q, j: int, policy: str) -> dict:
    """Principal j's belief at every observation, as weights over (type,
    profile), in observation order.

    An observation with positive mass follows Bayes' rule. Any other one
    gives each type the policy's weight, spread over the messages j does
    not see by the type's participation-conditional distribution (the
    first messages when the type never participates). Under "selector" it
    instead takes the on-path belief at the selector observation, moved
    here; the prior applies when that one is off path too."""
    onpath = _posteriors(game, q, j)
    cond = None  # each type's policy weight and participation-conditional distribution, once needed
    out: dict = {}
    for obs, cell in game.cells[j].items():
        ref = game.select(j, game.actions(cell[0])) if policy == "selector" else None
        if obs in onpath:
            out[obs] = onpath[obs]
        elif ref in onpath:
            out[obs] = {(t, game.place(j, obs, prof)): w for (t, prof), w in onpath[ref].items()}
        else:
            out[obs] = belief = {}
            if cond is None:  # the distribution over profiles, what j observes left blank (None)
                tvec = _policy_type_vector(game, policy)
                cond = posteriors(
                    (t, game.place(j, None, prof), prob)
                    for t, dist in q.items() for prof, prob in dist if prof is not None and prob != 0.0
                )
            for t in range(game.T):
                if tvec[t] == 0.0:
                    continue
                for prof, p in cond.get(t, {cell[0]: 1.0}).items():
                    belief[(t, game.place(j, obs, prof))] = tvec[t] * p
    return out


def _belief_system(game: _Game, beliefs, policy: str) -> BeliefSystem:
    """Label-keyed :class:`BeliefSystem` of per-principal beliefs in
    :func:`_beliefs`'s form."""
    return BeliefSystem(
        weights={
            j: {
                game.label(j, obs): {
                    (game.t_labels[t], game.hidden(j, prof)): float(w) for (t, prof), w in b.items()
                }
                for obs, b in beliefs[j].items()
            }
            for j in range(game.n)
        },
        offpath=policy,
    )


def _declared_beliefs(game: _Game, assessment: Assessment) -> list[dict]:
    """An assessment's beliefs in :func:`_beliefs`'s form, per principal: the
    one reader of declared beliefs, and their check (ValueError unless each
    observation has a probability vector keyed by known labels, and every
    declared belief is some principal's at an observation it can make)."""
    for j, table in assessment.beliefs.weights.items():
        if j not in range(game.n):
            where = f"principal {j!r} belief" + (f" at {next(iter(table))!r}" if table else "")
            raise ValueError(f"{where}: the game has no principal {j!r} (principals 0 to {game.n - 1})")
    out = []
    for j in range(game.n):
        table = assessment.beliefs.weights.get(j, {})
        beliefs: dict = {}
        for obs in game.cells[j]:
            label = game.label(j, obs)
            where = f"principal {j} belief at {label!r}"
            if label not in table:
                raise ValueError(f"{where} is missing")
            check_probabilities(list(table[label].values()), where)
            beliefs[obs] = {}
            profiles: dict = {}  # unobserved labels -> message profile, resolved once
            for key, w in table[label].items():
                if not (isinstance(key, tuple) and len(key) == 2 and key[0] in game.t_labels and isinstance(key[1], tuple)):
                    raise ValueError(f"{where}: key {key!r} is not (type label, unobserved message labels)")
                if key[1] not in profiles:
                    profiles[key[1]] = game.unhide(j, obs, key[1])
                beliefs[obs][(game.t_labels.index(key[0]), profiles[key[1]])] = float(w)
        if len(table) > len(beliefs):  # a label that is none of j's observations
            known = {game.label(j, obs) for obs in beliefs}
            label = next(lab for lab in table if lab not in known)
            raise ValueError(f"principal {j} belief at {label!r} is not at an observation principal {j} can make")
        out.append(beliefs)
    return out


def bayes_update(
    game_env: Environment,
    contracts: Sequence[Mechanism],
    strategy: StrategyMap,
    offpath: str = "prior",
) -> BeliefSystem:
    """Posterior system from a messaging strategy.

    Observations that carry positive probability mass follow Bayes' rule;
    every other one comes from the named policy ("prior", "lowest-type",
    "highest-type", "selector").
    """
    if offpath not in OFFPATH_POLICIES:
        raise ValueError(f"unknown off-path policy {offpath!r}")
    game = _Game(game_env, contracts)
    q = _normalize_strategy(game, strategy)
    return _belief_system(game, [_beliefs(game, q, j, offpath) for j in range(game.n)], offpath)


def build_assessment(
    env: Environment,
    contracts: Sequence[Mechanism],
    strategy: StrategyMap,
    continuation: str | Mapping[int, Mapping] = "recommendation",
    offpath: str = "prior",
) -> Assessment:
    """Assemble an assessment, filling continuation play and beliefs.

    ``continuation`` is either an explicit map or the rule
    "recommendation" (each principal follows the recommendation carried by
    the message addressed to him; every message must carry one).
    """
    game = _Game(env, contracts)
    if isinstance(continuation, str):
        if continuation != "recommendation":
            raise ValueError(f"unknown continuation rule {continuation!r}")
        for j in range(game.n):
            if any(r is None for r in game.msg_rec[j]):
                raise ValueError(
                    f"contract of principal {j} has messages without recommendations"
                )
        cont: dict[int, dict] = {j: {} for j in range(game.n)}
        for j, obs in game.sites:
            cont[j][game.label(j, obs)] = game.msg_rec[j][game.cells[j][obs][0][j]]
    else:
        cont = {j: dict(m) for j, m in continuation.items()}
    return Assessment(
        contracts=tuple(contracts),
        strategy={k: tuple(v) for k, v in strategy.items()},
        continuation=cont,
        beliefs=bayes_update(env, contracts, strategy, offpath),
    )


# ---------------------------------------------------------------------------
# Assessments as index tables
# ---------------------------------------------------------------------------


def _continuation_arrays(game: _Game, assessment: Assessment):
    """Continuation as a map message profile -> y-profile."""
    ys: dict[tuple[int, ...], list] = {prof: [None] * game.n for prof in game.profiles}
    for j, obs in game.sites:
        try:
            y = assessment.continuation[j][game.label(j, obs)]
        except KeyError:
            raise ValueError(
                f"continuation of principal {j} has no action at {game.label(j, obs)!r}"
            ) from None
        for prof in game.cells[j][obs]:
            ys[prof][j] = y
    return {prof: tuple(y) for prof, y in ys.items()}


# ---------------------------------------------------------------------------
# Finite-game primitives, shared by checking, search, audit and
# canonicalization. ``q`` maps type index -> [(profile, or None for
# opting out, probability)]; ``gamma`` maps message profile -> y-profile.
# ---------------------------------------------------------------------------


def _play(env: Environment, assessment: Assessment):
    """(game, q, gamma) of an assessment."""
    game = _Game(env, assessment.contracts)
    q = _normalize_strategy(game, assessment.strategy)
    return game, q, _continuation_arrays(game, assessment)


def _agent_payoff(game: _Game, q, gamma) -> np.ndarray:
    """The agent's equilibrium payoff per type; opting out pays U."""
    pay = np.zeros(game.T)
    for t in range(game.T):
        total = 0.0
        for prof, prob in q[t]:
            if prof is None:
                total += prob * game.U[t]
            else:
                u, _ = game.payoffs(prof, gamma[prof])
                total += prob * float(u[t])
        pay[t] = total
    return pay


def _agent_gap(game: _Game, pay: np.ndarray, outcomes) -> tuple[float, int | None, tuple | None]:
    """The agent's largest gain over ``pay`` from opting out (when allowed)
    or from any (profile, y-profile) in ``outcomes``.

    Returns (gap, type index, profile), profile None for opting out; the
    first type and the first outcome attaining the gap are reported, and
    no gain at all is (0.0, None, None).
    """
    rows = [game.floor]
    profs: list[tuple[int, ...] | None] = [None]
    for prof, ys in outcomes:
        rows.append(game.payoffs(prof, ys)[0])
        profs.append(prof)
    table = np.array(rows)
    gaps = table.max(axis=0) - pay
    t = int(gaps.argmax())
    if not gaps[t] > 0.0:
        return 0.0, None, None
    return float(gaps[t]), t, profs[int(table[:, t].argmax())]


def _value(game: _Game, j: int, belief, y_j: str, gamma) -> float:
    """Principal j's expected payoff from y_j under a belief over (type,
    message profile), the others playing ``gamma`` (profile -> y-profile)."""
    total = 0.0
    for (t, prof), w in belief.items():
        if w == 0.0:
            continue
        ys = gamma[prof]
        _, v = game.payoffs(prof, ys[:j] + (y_j,) + ys[j + 1 :])
        total += w * float(v[j][t])
    return total


def _allocation(game: _Game, q, gamma) -> Allocation:
    """Pushforward of the agent's strategy through contracts and continuation."""
    entries: dict[str, tuple] = {}
    for t, lab in enumerate(game.t_labels):
        acc: dict = {}
        for prof, prob in q[t]:
            if prob == 0.0:
                continue
            key = OPT_OUT if prof is None else game.action_key(prof, gamma[prof])
            acc[key] = acc.get(key, 0.0) + prob
        entries[lab] = tuple(sorted(acc.items(), key=lambda kv: repr(kv[0])))
    return Allocation(entries)


def _values(game: _Game, q, gamma) -> tuple[float, ...]:
    """Every principal's ex ante payoff (opt-out yields zero)."""
    totals = [0.0] * game.n
    for t in range(game.T):
        for prof, prob in q[t]:
            if prof is None or prob == 0.0:
                continue
            _, v = game.payoffs(prof, gamma[prof])
            for j in range(game.n):
                totals[j] += game.mu[t] * prob * float(v[j][t])
    return tuple(float(x) for x in totals)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check_continuation(
    env: Environment, assessment: Assessment, tol: float = DEFAULT_TOL
) -> EquilibriumReport:
    """Exact verification of the three continuation-equilibrium conditions."""
    game, q, gamma = _play(env, assessment)
    for prof, ys in gamma.items():
        for j in range(game.n):
            if ys[j] not in game.feas[j][prof[j]]:
                raise ValueError(
                    f"continuation action {ys[j]!r} infeasible for principal {j} "
                    f"at profile {game.profile_labels(prof)!r}"
                )
    beliefs = _declared_beliefs(game, assessment)

    # (i) Bayes consistency at every observation with positive mass: each
    # declared weight equals the Bayes posterior's, key by key.
    gaps = [0.0]
    for j in range(game.n):
        for obs, post in _posteriors(game, q, j).items():
            p = beliefs[j][obs]
            gaps += [abs(p.get(k, 0.0) - post.get(k, 0.0)) for k in p.keys() | post.keys()]
    bayes_gap = max(gaps)

    # (ii) agent optimality with interim participation.
    agent_gap, t, where = _agent_gap(game, _agent_payoff(game, q, gamma), gamma.items())
    agent_worst = None
    if t is not None:
        where_labels = OPT_OUT if where is None else game.profile_labels(where)
        agent_worst = (game.t_labels[t], where_labels, agent_gap)

    # (iii) principal optimality at every observation.
    principal_worst = None
    principal_gap = 0.0
    ties: list[tuple] = []
    for j, obs in game.sites:
        prof = game.cells[j][obs][0]
        value = partial(_value, game, j, beliefs[j][obs], gamma=gamma)
        y_eq, where = gamma[prof][j], game.label(j, obs)
        lhs = value(y_eq)
        for y_dev in game.feas[j][prof[j]]:
            if y_dev == y_eq:
                continue
            gap = value(y_dev) - lhs
            if abs(gap) <= tol:
                ties.append((j, where, y_dev))
            if gap > principal_gap:
                principal_gap = gap
                principal_worst = (j, where, y_dev, float(gap))

    return EquilibriumReport(
        bayes_ok=bool(bayes_gap <= tol),
        bayes_gap=float(bayes_gap),
        agent_ok=bool(agent_gap <= tol),
        agent_worst=agent_worst,
        principal_ok=bool(principal_gap <= tol),
        principal_worst=principal_worst,
        values=_values(game, q, gamma),
        allocation=_allocation(game, q, gamma),
        ties=tuple(ties),
    )


def induced_allocation(env: Environment, assessment: Assessment) -> Allocation:
    """Pushforward of the agent's strategy through contracts and continuation."""
    return _allocation(*_play(env, assessment))


def principal_value(env: Environment, assessment: Assessment, j: int) -> float:
    """Principal ``j``'s ex ante payoff (opt-out yields zero)."""
    return _values(*_play(env, assessment))[j]


def principal_state_values(
    env: Environment, assessment: Assessment, j: int
) -> dict[str, float]:
    """Principal ``j``'s expected payoff conditional on each type."""
    game, q, gamma = _play(env, assessment)
    out: dict[str, float] = {}
    for t, lab in enumerate(game.t_labels):
        total = 0.0
        for prof, prob in q[t]:
            if prof is None or prob == 0.0:
                continue
            _, v = game.payoffs(prof, gamma[prof])
            total += prob * float(v[j][t])
        out[lab] = total
    return out


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _strategy_candidates(game: _Game, options: SearchOptions, keep):
    """Iterate agent strategies: per type, (outcome, prob) lists over
    profiles. The cap counts the declared space; a type's distribution is
    then visited only where ``keep(t, dist)`` holds, in product order."""
    outcomes: list[tuple[int, ...] | None] = list(game.profiles)
    if game.env.optout:
        outcomes.append(None)
    dists = [((o, 1.0),) for o in outcomes]
    if options.mixing == "two-point":
        for (a, b), step in itertools.product(itertools.combinations(outcomes, 2), range(1, _MIX_STEPS)):
            dists.append(((a, step / _MIX_STEPS), (b, 1.0 - step / _MIX_STEPS)))
    elif options.mixing != "pure":
        raise ValueError(f"unknown mixing mode {options.mixing!r}")
    total = len(dists) ** game.T
    if total * max(1, len(options.policies)) > options.cap:
        raise SearchSpaceError(f"{total} strategy candidates exceed the cap of {options.cap}")
    yield from itertools.product(*[[d for d in dists if keep(t, d)] for t in range(game.T)])


def _agent_prune(game: _Game, continuations, tol: float):
    """``keep(t, dist)``: sum(p * best_t(o)) >= max(floor_t, max_o' worst_t(o')) - tol,
    best and worst over the y-profiles ``continuations(o)``. The sum runs in
    _agent_payoff's order, so rounding keeps it at or above the payoff, and
    four ulps of the payoff scale are allowed on top."""
    best, worst = {}, {}
    for prof in game.profiles:
        u = np.array([game.payoffs(prof, ys)[0] for ys in continuations(prof)])
        best[prof], worst[prof] = u.max(axis=0), u.min(axis=0)
    top = np.maximum(game.floor, np.max(list(worst.values()), axis=0))
    scale = max(float(np.abs(np.array(list(best.values()) + list(worst.values()))).max()),
                float(np.abs(game.U).max()))
    slack = tol + 4 * float(np.spacing(scale))

    def keep(t: int, dist) -> bool:
        total = 0.0
        for o, p in dist:
            total += p * (game.U[t] if o is None else float(best[o][t]))
        return not beats(float(top[t]), total, slack)

    return keep


def _best_of(value, feasible, tol: float) -> tuple[str, ...]:
    """The feasible ys that no feasible y beats under ``value``."""
    vals = [value(y) for y in feasible]
    top = max(vals)
    return tuple(y for y, v in zip(feasible, vals) if not beats(top, v, tol))


def _nash_set(game: _Game, prof: tuple[int, ...], belief, tol: float):
    """The y-profiles at ``prof`` where every principal best-replies under a
    public belief; memoized on the profile and the belief's items in order
    (which fix the summation)."""
    key = (prof, tuple(belief.items()))
    hit = game.memo.get(key)
    if hit is None:
        feas_sets = [game.feas[j][prof[j]] for j in range(game.n)]
        hit = game.memo[key] = tuple(
            ys
            for ys in itertools.product(*feas_sets)
            if all(
                ys[j]
                in _best_of(partial(_value, game, j, belief, gamma={prof: ys}), feas_sets[j], tol)
                for j in range(game.n)
            )
        )
    return hit


def _best_replies(game: _Game, j: int, i: int, belief, cont, tol: float) -> tuple[str, ...]:
    """Principal j's best replies after own message i under a private
    belief, each other principal k playing ``cont[k][message]``; memoized on
    the belief's items in order (which fix the summation) and the others'
    continuation."""
    others = tuple(tuple(cont[k][m] for m in range(game.sizes[k])) for k in game.others(j))
    key = (j, i, tuple(belief.items()), others)
    hit = game.memo.get(key)
    if hit is None:
        # j's own entry is replaced by each y that _value tries
        gamma = {
            prof: tuple(None if k == j else cont[k][prof[k]] for k in range(game.n))
            for prof in game.cells[j][i]
        }
        hit = game.memo[key] = _best_of(partial(_value, game, j, belief, gamma=gamma), game.feas[j][i], tol)
    return hit


def _onpath(q, own=None) -> list:
    """Message profiles (or principal ``own``'s messages) sent with positive
    probability, in first-use order."""
    return list(dict.fromkeys(
        prof if own is None else prof[own]
        for dist in q.values()
        for prof, prob in dist
        if prof is not None and prob > 0.0
    ))


def _completions(game: _Game, q, onpath, offpath, sets, gamma_of, tol: float):
    """``gamma_of(choice)`` for each on-path choice from ``sets`` leaving the
    agent no profitable deviation, completed off path by the first choice
    per slot (a profile, or an own message) that leaves none."""
    for combo in itertools.product(*[sets[s] for s in onpath]):
        choice = dict(zip(onpath, combo))
        gamma = gamma_of(choice)
        pay = _agent_payoff(game, q, gamma)
        if _agent_gap(game, pay, gamma.items())[0] > tol:
            continue
        for s in offpath:
            pick = next(
                (c for c in sets[s] if _agent_gap(game, pay, gamma_of({s: c}).items())[0] <= tol),
                None,
            )
            if pick is None:
                break
            choice[s] = pick
        else:
            yield gamma_of(choice)


def _public_equilibria_for_q(game: _Game, q, policy: str, options: SearchOptions):
    """All (gamma, beliefs) completions of one agent strategy, public mode."""
    tol = options.tol
    beliefs = _beliefs(game, q, 0, policy)  # every principal holds the public belief
    ne = {prof: _nash_set(game, prof, beliefs[prof], tol) for prof in game.profiles}
    if any(not v for v in ne.values()):
        return
    onpath = _onpath(q)
    offpath = sorted(set(game.profiles) - set(onpath))
    combos = math.prod(len(ne[prof]) for prof in onpath)
    if combos > options.cap:
        raise SearchSpaceError(f"{combos} continuation combinations exceed the cap")
    for gamma in _completions(game, q, onpath, offpath, ne, dict, tol):
        yield gamma, [beliefs] * game.n


def _private_equilibria_for_q(game: _Game, q, policy: str, options: SearchOptions):
    """All continuation completions of one agent strategy, private mode."""
    tol = options.tol
    beliefs = [_beliefs(game, q, j, policy) for j in range(game.n)]
    slots = [(j, i) for j in range(game.n) for i in range(game.sizes[j])]
    for flat in itertools.product(*[game.feas[j][i] for j, i in slots]):
        cont: dict[int, dict[int, str]] = {}
        for (j, i), y in zip(slots, flat):
            cont.setdefault(j, {})[i] = y
        # principal optimality at every own message
        if not all(
            cont[j][i] in _best_replies(game, j, i, beliefs[j][i], cont, tol) for j, i in slots
        ):
            continue
        gamma = {prof: tuple(cont[j][prof[j]] for j in range(game.n)) for prof in game.profiles}
        if _agent_gap(game, _agent_payoff(game, q, gamma), gamma.items())[0] <= tol:
            yield gamma, beliefs


def _assessment_from(game: _Game, q, gamma, beliefs, policy: str) -> Assessment:
    strategy = {
        lab: tuple(
            (OPT_OUT if prof is None else game.profile_labels(prof), prob)
            for prof, prob in q[t]
        )
        for t, lab in enumerate(game.t_labels)
    }
    cont = {j: {game.label(j, game.seen(j, p)): ys[j] for p, ys in gamma.items()} for j in range(game.n)}
    return Assessment(
        contracts=game.contracts,
        strategy=strategy,
        continuation=cont,
        beliefs=_belief_system(game, beliefs, policy),
    )


def _equilibria(game: _Game, options: SearchOptions):
    """The search behind enumerate_equilibria and the public audit: the first
    hit per allocation key as (key, allocation, policy, q, gamma, beliefs)."""
    ys_at = {p: list(itertools.product(*[game.feas[j][m] for j, m in enumerate(p)])) for p in game.profiles}
    keep = _agent_prune(game, ys_at.get, options.tol)
    # a pruned strategy could meet the public continuation cap: then prune none
    most_onpath = min(len(ys_at), game.T * (1 if options.mixing == "pure" else 2))
    if game.sees_all and max(map(len, ys_at.values())) ** most_onpath > options.cap:
        keep = lambda t, dist: True  # noqa: E731
    candidates = list(_strategy_candidates(game, options, keep))
    search = _public_equilibria_for_q if game.sees_all else _private_equilibria_for_q
    combos = math.prod(len(f) for feas in game.feas for f in feas)
    if not game.sees_all and options.policies and combos > options.cap:  # for every strategy
        raise SearchSpaceError(f"{combos} continuation combinations exceed the cap")
    seen: set[tuple] = set()
    for policy in options.policies:
        for qlist in candidates:
            q = dict(enumerate(qlist))
            for gamma, beliefs in search(game, q, policy, options):
                alloc = _allocation(game, q, gamma)
                key = alloc.key()
                if key not in seen:
                    seen.add(key)
                    yield key, alloc, policy, q, gamma, beliefs


def enumerate_equilibria(
    env: Environment,
    contracts: Sequence[Mechanism],
    options: SearchOptions | None = None,
) -> list[FoundEquilibrium]:
    """Exhaustive continuation-equilibrium search over the declared space.

    The space is: pure agent strategies (optionally two-point mixtures on a
    probability grid), pure continuation choices, and off-path beliefs from
    the policy menu in ``options.policies``. Results are deduplicated by
    induced allocation, the first hit in policy then candidate order
    winning, and returned in a deterministic order.

    Agent strategies that cannot be optimal are dropped before any belief
    is formed (_agent_prune, over every feasible y-profile at o): each type
    gets at most sum(p * best_t(o)) and, up to ``tol``, at least the floor
    and each worst_t(o'), so no equilibrium is lost. ``options.cap`` counts
    the declared space."""
    options = options or SearchOptions()
    game = _Game(env, contracts)
    found = {
        key: FoundEquilibrium(_assessment_from(game, q, gamma, raw, policy), alloc, _values(game, q, gamma))
        for key, alloc, policy, q, gamma, raw in _equilibria(game, options)
    }
    return [found[k] for k in sorted(found, key=repr)]


# ---------------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------------


def private_post_deviation_values(
    env: Environment,
    assessment: Assessment,
    j: int,
    deviation: Mechanism,
    options: SearchOptions,
) -> list[float]:
    """Deviator values over admissible post-deviation continuations.

    Non-deviating principals keep their mechanisms, continuation
    strategies, and beliefs; only the agent's strategy, the deviator's
    continuation choice, and the deviator's Bayes-consistent beliefs are
    re-solved. Agent strategies are pruned as in enumerate_equilibria, over
    the deviator's feasible y with the others frozen, so no value is lost."""
    contracts = list(assessment.contracts)
    contracts[j] = deviation
    game = _Game(env, contracts)
    tol = options.tol
    frozen = [
        None if k == j else {i: assessment.continuation[k][lab] for i, lab in enumerate(game.msg_labels[k])}
        for k in range(game.n)
    ]

    def gamma_with(choice: dict[int, str]):
        """Continuation at every profile whose message to j has a choice."""
        return {
            prof: tuple(
                choice[prof[j]] if k == j else frozen[k][prof[k]] for k in range(game.n)
            )
            for prof in game.profiles
            if prof[j] in choice
        }

    keep = _agent_prune(game, lambda p: [gamma_with({p[j]: y})[p] for y in game.feas[j][p[j]]], tol)
    values: list[float] = []
    for policy in options.policies:
        for qlist in _strategy_candidates(game, options, keep):
            q = dict(enumerate(qlist))
            p_j = _beliefs(game, q, j, policy)
            br = [_best_replies(game, j, i, p_j[i], frozen, tol) for i in range(game.sizes[j])]
            onpath_own = _onpath(q, own=j)
            offpath_own = [i for i in range(game.sizes[j]) if i not in onpath_own]
            values += [
                _values(game, q, gamma)[j]
                for gamma in _completions(game, q, onpath_own, offpath_own, br, gamma_with, tol)
            ]
    return values


def check_robust(
    env: Environment,
    assessment: Assessment,
    deviation_space: Mapping[int, Sequence[Mechanism]] | None = None,
    options: SearchOptions | None = None,
) -> RobustReport:
    """No-safe-deviation audit of a continuation equilibrium.

    The base assessment is checked first; when it fails, the report has
    ``passed=False``, that base report and no findings. Otherwise the
    post-deviation continuation equilibria of each principal's deviation
    contracts are searched (full re-solve in public mode; non-deviators
    frozen in private mode), at ``options.tol``. A deviation is
    safe-profitable only if every found continuation gives the deviator
    strictly more than the equilibrium value plus that tolerance.
    Deviating to the installed contract itself is seeded with the original
    outcome and is therefore never safe-profitable. Both searches drop
    agent strategies that hold no equilibrium (see enumerate_equilibria);
    the public audit reads values without building assessments."""
    options = options or SearchOptions()
    tol = options.tol
    base = check_continuation(env, assessment, tol)
    if not base.passed:
        return RobustReport(passed=False, base=base, findings=())
    findings: list[DeviationFinding] = []
    private = env.observability == "private"

    for j in range(env.n):
        if deviation_space is not None and j in deviation_space:
            devs = list(deviation_space[j])
        elif private:
            devs = enumerate_private(env, j)
        else:
            devs = enumerate_gstar(env, j)
        for dev in devs:
            same = dev.messages == assessment.contracts[j].messages
            if private:
                vals = private_post_deviation_values(env, assessment, j, dev, options)
            else:
                contracts = list(assessment.contracts)
                contracts[j] = dev
                game = _Game(env, contracts)
                vals = [_values(game, q, gamma)[j] for *_, q, gamma, _ in _equilibria(game, options)]
            if same:
                vals = list(vals) + [base.values[j]]
            if not vals:
                findings.append(DeviationFinding(j, dev, "no-continuation-equilibrium", None, None, None))
                continue
            worst, best = min(vals), max(vals)
            if beats(worst, base.values[j], tol):
                findings.append(DeviationFinding(j, dev, "safe-profitable", worst, best, worst - base.values[j]))
            else:
                findings.append(DeviationFinding(j, dev, "deterred", worst, best, None))
    passed = not any(f.outcome == "safe-profitable" for f in findings)
    return RobustReport(passed=passed, base=base, findings=tuple(findings))


# ---------------------------------------------------------------------------
# Canonicalization (menus with recommendations)
# ---------------------------------------------------------------------------


def canonicalize(env: Environment, assessment: Assessment) -> Assessment:
    """Rebuild an assessment over menu-with-recommendations contracts.

    Each message is recoded as the pair (assigned contractible action,
    continuation action it induced); the agent's strategy is pushed
    forward through this recoding, on-path beliefs follow Bayes, and
    off-path behavior is copied through a fixed per-action selector. The
    induced allocation and every principal's value are preserved exactly.
    """
    game, q, gamma = _play(env, assessment)
    new_contracts = tuple(
        menu_rec(env, j, image(assessment.contracts[j])) for j in range(game.n)
    )

    def recode(prof: tuple[int, ...]) -> tuple[str, ...]:
        ys = gamma[prof]
        return tuple(pair_label(game.msg_action[j][prof[j]], ys[j]) for j in range(game.n))

    strategy: dict[str, tuple] = {}
    for t, lab in enumerate(game.t_labels):
        acc: dict = {}
        for prof, prob in q[t]:
            outcome = OPT_OUT if prof is None else recode(prof)
            acc[outcome] = acc.get(outcome, 0.0) + prob
        strategy[lab] = tuple(sorted(acc.items(), key=repr))

    ngame = _Game(env, new_contracts)
    nq = _normalize_strategy(ngame, strategy)
    offpath = assessment.beliefs.offpath
    old = _declared_beliefs(game, assessment)
    moved = {prof: ngame.profile_from_labels(recode(prof)) for prof in game.profiles}

    # A new observation that recodes old ones plays its recommendation and,
    # off path, keeps the belief at the first of them; any other copies the
    # continuation and belief at the old selector observation of its
    # actions. On-path observations take the Bayes beliefs of the recoded
    # strategy. A copied belief is moved to the new observation, with the
    # messages it does not observe recoded.
    first = [{} for _ in range(game.n)]
    for j in range(game.n):
        for obs, cell in game.cells[j].items():
            first[j].setdefault(ngame.seen(j, moved[cell[0]]), obs)
    onpath = [_posteriors(ngame, nq, j) for j in range(game.n)]
    cont: dict[int, dict] = {j: {} for j in range(game.n)}
    beliefs: list[dict] = [{} for _ in range(game.n)]
    for j, nobs in ngame.sites:
        nprof = ngame.cells[j][nobs][0]
        if nobs in first[j]:
            obs, y = first[j][nobs], ngame.msg_rec[j][nprof[j]]
        else:
            obs = game.select(j, ngame.actions(nprof))
            y = gamma[game.cells[j][obs][0]][j]
        cont[j][ngame.label(j, nobs)] = y
        if nobs in onpath[j]:
            beliefs[j][nobs] = onpath[j][nobs]
            continue
        copied = beliefs[j][nobs] = {}
        for (t, prof), w in old[j][obs].items():
            key = (t, ngame.place(j, nobs, moved[prof]))
            copied[key] = copied.get(key, 0.0) + w
    return Assessment(new_contracts, strategy, cont, _belief_system(ngame, beliefs, offpath))
