"""The pruned and memoized finite search against its unpruned path.

The search drops agent strategies that cannot be optimal (``_agent_prune``)
and memoizes best-reply sets on the per-call game (``_Game.memo``). The
reference run substitutes an identity prune and a memo that never hits;
every output must be the same: the found lists (order, allocations,
assessments, values), the robustness reports, the post-deviation value
multisets and every SearchSpaceError.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contract_forge import contracts as ct
from contract_forge import env_core as ec
from contract_forge import equilibrium as eq
from oracle_bruteforce import random_instance


class _NoMemo(dict):
    def __setitem__(self, key, value):
        pass


class _UnmemoizedGame(eq._Game):
    def __init__(self, *args):
        super().__init__(*args)
        self.memo = _NoMemo()


def _unpruned(fn, *args):
    """``fn(*args)`` with an identity prune and no memo hits."""
    keep_all = lambda game, continuations, tol: lambda t, dist: True  # noqa: E731
    with mock.patch.object(eq, "_agent_prune", keep_all), mock.patch.object(eq, "_Game", _UnmemoizedGame):
        return fn(*args)


def _attempt(fn, *args):
    """``fn(*args)``, or the message of the SearchSpaceError it raises."""
    try:
        return fn(*args)
    except eq.SearchSpaceError as err:
        return f"cap: {err}"


def _outputs(env, contracts, options):
    """Every search output on one game, as exact reprs; a cap error is an output."""
    found = _attempt(eq.enumerate_equilibria, env, contracts, options)
    out = [repr(found)]
    if isinstance(found, str) or not found:
        return out
    base = found[0].assessment
    private = env.observability == "private"
    space = {}
    for j in range(env.n):
        devs = ct.enumerate_private(env, j) if private else ct.enumerate_gstar(env, j)
        space[j] = devs + [contracts[j]]
    out.append(repr(_attempt(eq.check_robust, env, base, space, options)))
    if private:
        for j, devs in space.items():
            for dev in devs:
                values = _attempt(eq.private_post_deviation_values, env, base, j, dev, options)
                out.append(values if isinstance(values, str) else sorted(values))
    return out


def _game(n_types, feasible, u, v, observability="public", optout=False, installed=None):
    """A table game: ``feasible[j]`` maps x -> feasible ys; ``u``/``v`` give
    the agent's and each principal's integer payoffs in sweep order."""
    types = ec.TypeSpace.uniform_finite([float(i + 1) for i in range(n_types)])
    principals = tuple(
        ec.PrincipalSpec(
            contractible=tuple(ec.ActionValue(x) for x in f),
            noncontractible=tuple(ec.ActionValue(y) for y in sorted({y for ys in f.values() for y in ys})),
            feasible=f,
        )
        for f in feasible
    )
    pairs = [p.feasible_pairs() for p in principals]
    sweep = [(t.label, prof) for t in types.finite for prof in itertools.product(*pairs)]
    entries = {key: (float(u[k]), tuple(float(x) for x in v[k])) for k, key in enumerate(sweep)}
    env = ec.Environment(
        types=types,
        principals=principals,
        payoffs=ec.PayoffModel.from_table(entries, n_principals=len(feasible)),
        observability=observability,
        optout=optout,
    )
    installed = installed or [range(len(p)) for p in pairs]
    return env, tuple(ct.submenu(env, j, [pairs[j][i] for i in idx]) for j, idx in enumerate(installed))


@st.composite
def finite_cases(draw):
    """Small random games: 1-2 principals, 2-3 types, public or private,
    exit or not, payoffs in {-2, ..., 2} so that exact ties occur,
    tolerances that put integer gaps on the boundary, and caps low enough
    to meet every cap test. Two-point mixing (one interior weight) runs on
    two types and at most two message profiles, which keeps each example
    well under a second."""
    n = draw(st.integers(1, 2))
    mixing = draw(st.sampled_from(("pure", "two-point")))
    n_types = 2 if mixing == "two-point" else draw(st.integers(2, 3))
    ys = st.lists(st.sampled_from((0, 1)), min_size=1, max_size=2, unique=True)
    feasible = [
        {f"x{j}{i}": tuple(f"y{j}{k}" for k in draw(ys)) for i in range(draw(st.integers(1, 2)))}
        for j in range(n)
    ]
    sizes = [sum(len(ys) for ys in f.values()) for f in feasible]
    cells = n_types * int(np.prod(sizes))
    pay = st.lists(st.integers(-2, 2), min_size=cells, max_size=cells)
    u = draw(pay)
    v = list(zip(*[draw(pay) for _ in range(n)]))
    installed = []
    for j, s in enumerate(sizes):
        most = 1 if mixing == "two-point" and j else 2
        installed.append(sorted(draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=most, unique=True))))
    env, contracts = _game(
        n_types, feasible, u, v,
        observability=draw(st.sampled_from(("public", "private"))) if n == 2 else "public",
        optout=draw(st.booleans()),
        installed=installed,
    )
    options = eq.SearchOptions(
        tol=draw(st.sampled_from((1e-9, 0.0, 1.0))),
        policies=tuple(draw(st.lists(st.sampled_from(eq.OFFPATH_POLICIES), min_size=1, max_size=2, unique=True))),
        mixing=mixing,
        cap=draw(st.sampled_from((5_000_000, 16, 8))),
    )
    return env, contracts, options


# Type t0 gains exactly tol = 1 from message m1 over m0: sending m0 sits on
# the boundary, which the prune must keep, as the search does.
BOUNDARY = _game(
    2,
    [{"x00": ("y00",), "x01": ("y00",)}],
    u=[0, 1, 1, 0],
    v=[(0,), (0,), (0,), (0,)],
) + (eq.SearchOptions(tol=1.0),)


@given(case=finite_cases())
@example(case=BOUNDARY)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pruned_memoized_search_equals_unpruned(case):
    env, contracts, options = case
    with mock.patch.object(eq, "_MIX_STEPS", 2):  # two-point mixtures of weights 1/2
        assert _outputs(env, contracts, options) == _unpruned(_outputs, env, contracts, options)


def test_boundary_strategy_is_kept():
    env, contracts, options = BOUNDARY
    found = eq.enumerate_equilibria(env, contracts, options)
    sends = {fe.allocation.entries["t0"][0][0][0][0] for fe in found}
    assert sends == {"x00", "x01"}


# ---------------------------------------------------------------------------
# Work counts: a regression in the prune shows as a count, not a timing
# ---------------------------------------------------------------------------


@pytest.fixture
def candidate_counts(monkeypatch):
    """Strategy candidates declared (before the prune) and visited."""
    counts = {"declared": 0, "visited": 0}
    search = eq._strategy_candidates

    def counting(game, options, keep):
        counts["declared"] += sum(1 for _ in search(game, options, lambda t, dist: True))
        for cand in search(game, options, keep):
            counts["visited"] += 1
            yield cand

    monkeypatch.setattr(eq, "_strategy_candidates", counting)
    return counts


def test_criterion_8_instance_counts(candidate_counts):
    """The fourth instance of the criterion-8 stream: two principals, two
    types, private observability, exit allowed."""
    rng = np.random.default_rng(20250810)
    env, contracts = [random_instance(rng) for _ in range(4)][-1]
    assert (env.n, len(env.types.labels), env.observability, env.optout) == (2, 2, "private", True)
    options = eq.SearchOptions(policies=("prior",))
    found = eq.enumerate_equilibria(env, contracts, options)
    assert len(found) == 1
    assert candidate_counts == {"declared": 9, "visited": 6}
    assert eq.check_robust(env, found[0].assessment, options=options).passed
    assert candidate_counts == {"declared": 56, "visited": 37}


def test_plain_menu_audit_counts(candidate_counts):
    env, assessment, _, _ = ct.plain_menu_scenario(n_aux=2)
    report = eq.check_robust(env, assessment, options=eq.SearchOptions(policies=("prior",)))
    assert [f.outcome for f in report.findings].count("safe-profitable") == 1
    assert candidate_counts == {"declared": 13408, "visited": 964}
