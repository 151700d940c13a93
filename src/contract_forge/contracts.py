"""Mechanisms and canonical contract-space enumeration.

A mechanism is a labeled finite message set with an assignment of each
message to a contractible action; messages may carry a non-binding
recommendation for the discretionary action. Three canonical families are
enumerated here:

* menus with recommendations: one contract per nonempty menu of
  contractible actions, whose message set is the full feasible-pair
  closure of the menu;
* submenus: one contract per nonempty subset of feasible pairs;
* the private canonical space: menus with recommendations plus plain
  menus (no recommendation coordinate) whose menu touches at least one
  contractible action with two or more feasible discretionary actions.

Enumeration order is deterministic (ascending bitmask over the declared
action order) so that every report is diff-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

from .env_core import (
    ActionValue,
    Allocation,
    Environment,
    PayoffModel,
    PrincipalSpec,
    ProfileKey,
    TypeSpace,
    _profile_sweep,
)

__all__ = [
    "Message",
    "Mechanism",
    "pair_label",
    "split_pair_label",
    "menu_rec",
    "submenu",
    "plain_menu",
    "enumerate_gstar",
    "enumerate_gsharp",
    "enumerate_private",
    "image",
    "is_equiv",
    "refines",
    "canonical_counterpart",
    "x_hat",
    "necessity_environment",
    "plain_menu_scenario",
]


@dataclass(frozen=True, slots=True)
class Message:
    label: str
    action: str  # assigned contractible action label
    recommendation: str | None = None  # optional feasible discretionary label


@dataclass(frozen=True, slots=True)
class Mechanism:
    """A finite labeled message set with a contractible-action assignment."""

    principal: int  # 0-based index into the environment's principals
    messages: tuple[Message, ...]
    kind: str = "custom"  # "menu_rec" | "submenu" | "plain" | "custom"

    def __post_init__(self):
        if not self.messages:
            raise ValueError("a mechanism needs at least one message")
        labels = [m.label for m in self.messages]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate message labels")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.messages)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


def pair_label(x: str, y: str) -> str:
    """The label ``x|y`` of the message assigned to ``x`` recommending ``y``."""
    return f"{x}|{y}"


def split_pair_label(label: str) -> tuple[str, str]:
    """The (x, y) pair a :func:`pair_label` names."""
    return tuple(label.split("|", 1))


def _check_against(env: Environment, mech: Mechanism) -> None:
    spec = env.principals[mech.principal]
    for m in mech.messages:
        if m.action not in spec.x_labels:
            raise ValueError(f"message {m.label!r} assigns unknown action {m.action!r}")
        if m.recommendation is not None and m.recommendation not in spec.feasible.get(
            m.action, ()
        ):
            raise ValueError(
                f"message {m.label!r} recommends {m.recommendation!r}, infeasible after "
                f"{m.action!r}"
            )


def menu_rec(env: Environment, j: int, menu: Collection[str]) -> Mechanism:
    """Menu-with-recommendations contract over ``menu``.

    The message set is exactly the feasible-pair closure of the menu: one
    message per (x, y) with x in the menu and y feasible after x, assigned
    to x with recommendation y.
    """
    spec = env.principals[j]
    if not menu:
        raise ValueError("empty menu")
    msgs = []
    for x in spec.x_labels:  # declared order, independent of the menu's order
        if x not in menu:
            continue
        for y in spec.feasible[x]:
            msgs.append(Message(label=pair_label(x, y), action=x, recommendation=y))
    mech = Mechanism(principal=j, messages=tuple(msgs), kind="menu_rec")
    _check_against(env, mech)
    return mech


def submenu(env: Environment, j: int, pairs: Sequence[tuple[str, str]]) -> Mechanism:
    """Contract offering exactly the given feasible (x, y) pairs."""
    spec = env.principals[j]
    order = {p: i for i, p in enumerate(spec.feasible_pairs())}
    chosen = sorted(set(tuple(p) for p in pairs), key=lambda p: order.get(p, len(order)))
    msgs = tuple(Message(label=pair_label(x, y), action=x, recommendation=y) for x, y in chosen)
    mech = Mechanism(principal=j, messages=msgs, kind="submenu")
    _check_against(env, mech)
    return mech


def plain_menu(env: Environment, j: int, menu: Sequence[str]) -> Mechanism:
    """Plain menu: the agent selects a contractible action, no recommendation."""
    spec = env.principals[j]
    msgs = tuple(
        Message(label=x, action=x, recommendation=None)
        for x in spec.x_labels
        if x in menu
    )
    mech = Mechanism(principal=j, messages=msgs, kind="plain")
    _check_against(env, mech)
    return mech


def _nonempty_subsets(items: Sequence) -> Iterable[tuple]:
    """All nonempty subsets in ascending-bitmask order (bit i = items[i])."""
    n = len(items)
    for mask in range(1, 1 << n):
        yield tuple(items[i] for i in range(n) if mask >> i & 1)


def enumerate_gstar(env: Environment, j: int) -> list[Mechanism]:
    """All menus with recommendations for principal ``j`` (2^|X_j| - 1)."""
    spec = env.principals[j]
    return [menu_rec(env, j, menu) for menu in _nonempty_subsets(spec.x_labels)]


def enumerate_gsharp(env: Environment, j: int) -> list[Mechanism]:
    """All nonempty submenus of feasible pairs for principal ``j`` (2^|Z_j| - 1)."""
    spec = env.principals[j]
    return [submenu(env, j, pairs) for pairs in _nonempty_subsets(spec.feasible_pairs())]


def x_hat(env: Environment, j: int) -> tuple[str, ...]:
    """Contractible actions followed by two or more feasible discretionary actions."""
    spec = env.principals[j]
    return tuple(x for x in spec.x_labels if len(spec.feasible.get(x, ())) >= 2)


def enumerate_private(env: Environment, j: int) -> list[Mechanism]:
    """The private canonical contract space for principal ``j``.

    Every menu with recommendations, plus one plain menu per menu that
    intersects the actions with two or more feasible recommendations.
    Plain menus whose actions all have singleton feasibility coincide
    behaviorally with their menu-with-recommendations counterpart and are
    not duplicated.
    """
    spec = env.principals[j]
    rich = set(x_hat(env, j))
    out = enumerate_gstar(env, j)
    for menu in _nonempty_subsets(spec.x_labels):
        if rich.intersection(menu):
            out.append(plain_menu(env, j, menu))
    return out


def image(mech: Mechanism) -> tuple[str, ...]:
    """Set of assigned contractible actions, in first-appearance order."""
    seen: list[str] = []
    for m in mech.messages:
        if m.action not in seen:
            seen.append(m.action)
    return tuple(seen)


def is_equiv(a: Mechanism, b: Mechanism) -> bool:
    """Image equality: the two contracts commit to the same action set."""
    return set(image(a)) == set(image(b))


def refines(
    fine: Mechanism, coarse: Mechanism
) -> tuple[dict[str, str], dict[str, str]] | None:
    """Relabeling witness from ``fine`` onto ``coarse``, if one exists.

    Returns (surjection, right inverse) keyed by message label: a map
    sending every message of ``fine`` to a message of ``coarse`` with the
    same assigned action, covering all of ``coarse``. Exists exactly when
    the images agree and ``fine`` has at least as many messages per action.
    """
    by_action_fine: dict[str, list[str]] = {}
    for m in fine.messages:
        by_action_fine.setdefault(m.action, []).append(m.label)
    by_action_coarse: dict[str, list[str]] = {}
    for m in coarse.messages:
        by_action_coarse.setdefault(m.action, []).append(m.label)
    if set(by_action_fine) != set(by_action_coarse):
        return None
    surjection: dict[str, str] = {}
    right_inverse: dict[str, str] = {}
    for action, fine_labels in by_action_fine.items():
        coarse_labels = by_action_coarse[action]
        if len(fine_labels) < len(coarse_labels):
            return None
        for i, lab in enumerate(fine_labels):
            target = coarse_labels[min(i, len(coarse_labels) - 1)]
            surjection[lab] = target
        for i, lab in enumerate(coarse_labels):
            right_inverse[lab] = fine_labels[i]
    return surjection, right_inverse


def canonical_counterpart(env: Environment, mech: Mechanism) -> Mechanism:
    """The menu-with-recommendations contract with the same image."""
    return menu_rec(env, mech.principal, image(mech))


# ---------------------------------------------------------------------------
# Necessity environments: payoff constructions that force a given menu.
# ---------------------------------------------------------------------------


def _table_env(
    types: TypeSpace,
    principals: Sequence[PrincipalSpec],
    payoff: Callable,
    observability: str = "public",
    optout: bool = True,
) -> Environment:
    """Build a table-mode environment from a payoff rule over (type, profile)."""
    entries = {}
    profiles = _profile_sweep(principals)
    for t in types.finite:
        for prof in profiles:
            u, vs = payoff(t.label, prof)
            entries[(t.label, prof)] = (float(u), tuple(float(v) for v in vs))
    return Environment(
        types=types,
        principals=tuple(principals),
        payoffs=PayoffModel.from_table(entries, n_principals=len(principals)),
        observability=observability,
        optout=optout,
    )


def necessity_environment(
    skeleton: Environment, j: int, menu: Sequence[str]
) -> tuple[Environment, Allocation, dict[str, str]]:
    """Payoff environment in which principal ``j`` must offer exactly ``menu``.

    Types are assigned to menu actions round-robin in declared order via a
    surjection ``phi``. Whenever principal ``j``'s contractible action
    leaves the menu, the agent gets 8 and every principal gets -8; on the
    menu, agent and principals all get 1 if the action matches ``phi`` of
    the realized type and 0 otherwise. Returns the environment, the
    separating reference allocation, and ``phi`` as a dict.
    """
    spec = skeleton.principals[j]
    menu = [x for x in spec.x_labels if x in menu]
    if not menu:
        raise ValueError("empty menu")
    labels = skeleton.types.labels
    if len(labels) < len(menu):
        raise ValueError(
            f"need at least {len(menu)} types for a surjection onto the menu"
        )
    phi = {lab: menu[i % len(menu)] for i, lab in enumerate(labels)}

    def payoff(type_label: str, prof: ProfileKey):
        xj = prof[j][0]
        if xj not in menu:
            return 8.0, [-8.0] * skeleton.n
        hit = 1.0 if xj == phi[type_label] else 0.0
        return hit, [hit] * skeleton.n

    env = _table_env(
        skeleton.types, skeleton.principals, payoff, skeleton.observability
    )

    first_y = {x: spec.feasible[x][0] for x in menu}
    other = [
        (env.principals[k].x_labels[0], env.principals[k].feasible_pairs()[0][1])
        for k in range(env.n)
    ]
    entries = {}
    for lab in labels:
        prof = tuple(
            (phi[lab], first_y[phi[lab]]) if k == j else other[k] for k in range(env.n)
        )
        entries[lab] = ((prof, 1.0),)
    return env, Allocation(entries), phi


def plain_menu_scenario(
    n_aux: int = 0,
) -> tuple[Environment, "object", Mechanism, dict]:
    """Two-principal private-contracting instance where a plain menu wins.

    Principal 0 (the eventual deviator) has one contractible action with
    two feasible discretionary actions; principal 1 has one contractible
    action with two discretionary actions that serve as the side channel.
    States are two special states theta1, theta2 (plus ``n_aux`` auxiliary
    states pinning auxiliary menu actions), uniform weight kappa each.

    Payoff tables at the special states (first coordinate: common payoff of
    the agent and principal 1; second: principal 0):

        theta1:  (xj,y1) x {b1: (2,2), b2: (0,0)};  (xj,y2) x {.: (0,-100/kappa)}
        theta2:  (xj,y1) x {b1: (2,2), b2: (0,0)};  (xj,y2) x {b1: (0,0), b2: (2,1)}

    Returns (environment, separating assessment, plain-menu deviation,
    metadata). The assessment is built by the equilibrium module, imported
    when this function runs: that module imports this one at load time.
    """
    from . import equilibrium as eq

    kappa = 1.0 / (2 + n_aux)
    big = 100.0 / kappa
    aux = [f"a{i}" for i in range(n_aux)]
    type_items = [("theta1", 1.0, kappa), ("theta2", 2.0, kappa)] + [
        (f"theta_{a}", 10.0 + i, kappa) for i, a in enumerate(aux)
    ]
    types = TypeSpace.from_finite(type_items)

    pj = PrincipalSpec(
        contractible=tuple([ActionValue("xj")] + [ActionValue(a) for a in aux]),
        noncontractible=(ActionValue("y1"), ActionValue("y2"), ActionValue("ya")),
        feasible={"xj": ("y1", "y2"), **{a: ("ya",) for a in aux}},
    )
    pk = PrincipalSpec(
        contractible=(ActionValue("xk"),),
        noncontractible=(ActionValue("b1"), ActionValue("b2")),
        feasible={"xk": ("b1", "b2")},
    )

    special = {
        ("y1", "b1"): (2.0, 2.0),
        ("y1", "b2"): (0.0, 0.0),
        ("y2", "b1"): (0.0, -big),
        ("y2", "b2"): (0.0, -big),
    }
    special2 = {
        ("y1", "b1"): (2.0, 2.0),
        ("y1", "b2"): (0.0, 0.0),
        ("y2", "b1"): (0.0, 0.0),
        ("y2", "b2"): (2.0, 1.0),
    }

    def payoff(type_label: str, prof: ProfileKey):
        (xj, yj), (_, yk) = prof
        if type_label in ("theta1", "theta2"):
            if xj != "xj":
                return -big, (-big, -big)
            table = special if type_label == "theta1" else special2
            common, vj = table[(yj, yk)]
            return common, (vj, common)
        # auxiliary state theta_a pins the auxiliary action a
        a = type_label.removeprefix("theta_")
        hit = big if xj == a else -big
        return hit, (hit, hit)

    # No outside option here: with an exit worth 0 the low state could walk
    # away from a pooled-pessimal continuation, breaking the uniqueness of
    # the post-deviation outcome that this construction is built to exhibit.
    env = _table_env(types, (pj, pk), payoff, observability="private", optout=False)

    contracts = (menu_rec(env, 0, ["xj"] + aux), menu_rec(env, 1, ["xk"]))
    strategy = {
        "theta1": ((("xj|y1", "xk|b1"), 1.0),),
        "theta2": ((("xj|y2", "xk|b2"), 1.0),),
        **{f"theta_{a}": (((f"{a}|ya", "xk|b1"), 1.0),) for a in aux},
    }
    assessment = eq.build_assessment(
        env, contracts, strategy, continuation="recommendation", offpath="prior"
    )
    deviation = plain_menu(env, 0, ["xj"] + aux)
    meta = {"kappa": kappa, "deviator": 0, "special_states": ("theta1", "theta2")}
    return env, assessment, deviation, meta
