import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contract_forge import contracts as ct
from contract_forge import env_core as ec
from contract_forge import equilibrium as eq
from oracle_bruteforce import (
    engine_allocation_keys,
    oracle_allocations,
    random_instance,
)


def _table_single_env(values, optout=True):
    """One principal, one contractible action, two discretionary actions.

    ``values`` maps (type label, y label) -> (u, v).
    """
    spec = ec.PrincipalSpec(
        contractible=(ec.ActionValue("x"),),
        noncontractible=(ec.ActionValue("y_good"), ec.ActionValue("y_bad")),
        feasible={"x": ("y_good", "y_bad")},
    )
    labels = sorted({t for t, _ in values})
    types = ec.TypeSpace.from_finite(
        [(lab, float(i + 1), 1.0 / len(labels)) for i, lab in enumerate(labels)]
    )
    entries = {}
    for (t, y), (u, v) in values.items():
        entries[(t, (("x", y),))] = (u, (v,))
    env = ec.Environment(
        types=types,
        principals=(spec,),
        payoffs=ec.PayoffModel.from_table(entries, n_principals=1),
        optout=optout,
    )
    return env


class TestBayesUpdate:
    def _env2(self, weights=(0.5, 0.5)):
        spec = ec.PrincipalSpec(
            contractible=(ec.ActionValue("x"),),
            noncontractible=(ec.ActionValue("y"), ec.ActionValue("yb")),
            feasible={"x": ("y", "yb")},
        )
        types = ec.TypeSpace.from_finite(
            [("t0", 1.0, weights[0]), ("t1", 2.0, weights[1])]
        )
        return ec.Environment(
            types=types,
            principals=(spec,),
            payoffs=ec.PayoffModel.from_expressions("0", ["0"]),
        )

    def test_pooling_posterior(self):
        env = self._env2()
        mech = ct.menu_rec(env, 0, ["x"])
        strategy = {"t0": ((("x|y",), 1.0),), "t1": ((("x|y",), 1.0),)}
        bel = eq.bayes_update(env, (mech,), strategy)
        assert bel.weights[0][("x|y",)] == pytest.approx({("t0", ()): 0.5, ("t1", ()): 0.5})

    def test_separating_point_masses(self):
        env = self._env2()
        mech = ct.menu_rec(env, 0, ["x"])
        strategy = {"t0": ((("x|y",), 1.0),), "t1": ((("x|yb",), 1.0),)}
        bel = eq.bayes_update(env, (mech,), strategy)
        assert bel.weights[0][("x|y",)] == pytest.approx({("t0", ()): 1.0})
        assert bel.weights[0][("x|yb",)] == pytest.approx({("t1", ()): 1.0})

    def test_mixing_arithmetic(self):
        env = self._env2(weights=(0.25, 0.75))
        mech = ct.menu_rec(env, 0, ["x"])
        strategy = {
            "t0": ((("x|y",), 1.0),),
            "t1": ((("x|y",), 1.0 / 3.0), (("x|yb",), 2.0 / 3.0)),
        }
        bel = eq.bayes_update(env, (mech,), strategy)
        assert bel.weights[0][("x|y",)] == pytest.approx({("t0", ()): 0.5, ("t1", ()): 0.5})

    def test_offpath_policies(self):
        env = self._env2()
        mech = ct.menu_rec(env, 0, ["x"])
        strategy = {"t0": ((("x|y",), 1.0),), "t1": ((("x|y",), 1.0),)}
        for policy, expected in [
            ("prior", {("t0", ()): 0.5, ("t1", ()): 0.5}),
            ("lowest-type", {("t0", ()): 1.0}),
            ("highest-type", {("t1", ()): 1.0}),
            ("selector", {("t0", ()): 0.5, ("t1", ()): 0.5}),  # selector copies the on-path x|y posterior
        ]:
            bel = eq.bayes_update(env, (mech,), strategy, offpath=policy)
            assert bel.weights[0][("x|yb",)] == pytest.approx(expected)


def _abc_d_env(types, ys, observability):
    """Principal 0 offers a, b or c, each with y = w; principal 1 offers d
    with any y in ``ys``; every payoff is 0. ``types``: (label, value, weight)."""
    spec0 = ec.PrincipalSpec(
        contractible=(ec.ActionValue("a"), ec.ActionValue("b"), ec.ActionValue("c")),
        noncontractible=(ec.ActionValue("w"),),
        feasible={"a": ("w",), "b": ("w",), "c": ("w",)},
    )
    spec1 = ec.PrincipalSpec(
        contractible=(ec.ActionValue("d"),),
        noncontractible=tuple(ec.ActionValue(y) for y in ys),
        feasible={"d": tuple(ys)},
    )
    return ec.Environment(
        types=ec.TypeSpace.from_finite(types),
        principals=(spec0, spec1),
        payoffs=ec.PayoffModel.from_expressions("0", ["0", "0"]),
        observability=observability,
    )


class TestPrivateOffpathBeliefs:
    """Two principals, private observability, mu = (0.5, 0.3, 0.2):
    t0 sends (a|w, d|e) or (b|w, d|f) with probability 1/2 each, t1 sends
    (a|w, d|e) and t2 never participates. Off path are principal 0's c|w,
    whose selector message is itself, and principal 1's d|g, whose selector
    message d|e is on path."""

    def _belief(self, policy):
        types = [("t0", 1.0, 0.5), ("t1", 2.0, 0.3), ("t2", 3.0, 0.2)]
        env = _abc_d_env(types, ("e", "f", "g"), "private")
        contracts = (ct.menu_rec(env, 0, ["a", "b", "c"]), ct.menu_rec(env, 1, ["d"]))
        strategy = {
            "t0": ((("a|w", "d|e"), 0.5), (("b|w", "d|f"), 0.5)),
            "t1": ((("a|w", "d|e"), 1.0),),
            "t2": ((ec.OPT_OUT, 1.0),),
        }
        bel = eq.bayes_update(env, contracts, strategy, offpath=policy).weights
        return bel[0]["c|w"], bel[1]["d|g"]

    # t2 never participates, so its weight goes to the first messages
    PRIOR_C = {("t0", ("d|e",)): 0.25, ("t0", ("d|f",)): 0.25,
               ("t1", ("d|e",)): 0.3, ("t2", ("d|e",)): 0.2}
    PRIOR_G = {("t0", ("a|w",)): 0.25, ("t0", ("b|w",)): 0.25,
               ("t1", ("a|w",)): 0.3, ("t2", ("a|w",)): 0.2}

    def test_prior(self):
        c, g = self._belief("prior")
        assert c == pytest.approx(self.PRIOR_C) and g == pytest.approx(self.PRIOR_G)

    def test_lowest_type(self):
        c, g = self._belief("lowest-type")
        assert c == pytest.approx({("t0", ("d|e",)): 0.5, ("t0", ("d|f",)): 0.5})
        assert g == pytest.approx({("t0", ("a|w",)): 0.5, ("t0", ("b|w",)): 0.5})

    def test_highest_type_never_participates(self):
        c, g = self._belief("highest-type")
        assert c == pytest.approx({("t2", ("d|e",)): 1.0})
        assert g == pytest.approx({("t2", ("a|w",)): 1.0})

    def test_selector(self):
        c, g = self._belief("selector")
        # c|w selects itself, off path: the prior
        assert c == pytest.approx(self.PRIOR_C)
        # d|g selects d|e, reached by t0 (mass 0.25) and t1 (mass 0.3)
        assert g == pytest.approx({("t0", ("a|w",)): 0.25 / 0.55, ("t1", ("a|w",)): 0.3 / 0.55})


class TestZeroPriorMessage:
    """t0 has weight 1 and t1 weight 0; only t1 sends b|w."""

    def _run(self, observability):
        env = _abc_d_env([("t0", 1.0, 1.0), ("t1", 2.0, 0.0)], ("e", "f"), observability)
        contracts = (ct.menu_rec(env, 0, ["a", "b"]), ct.menu_rec(env, 1, ["d"]))
        strategy = {"t0": ((("a|w", "d|e"), 1.0),), "t1": ((("b|w", "d|e"), 1.0),)}
        a = eq.build_assessment(env, contracts, strategy)
        return a.beliefs, eq.check_continuation(env, a)

    def test_message_of_zero_prior_types_is_off_path(self):
        public, _ = self._run("public")
        private, rep = self._run("private")
        # both modes give b|w the prior-policy belief: all weight on t0
        assert public.weights[0][("b|w", "d|e")] == {("t0", ()): 1.0}
        assert private.weights[0]["b|w"] == {("t0", ("d|e",)): 1.0}
        assert rep.bayes_gap == 0.0


class TestCheckContinuation:
    def test_singleton_trivial_pass(self):
        env = _table_single_env(
            {("t0", "y_good"): (1.0, 1.0), ("t0", "y_bad"): (1.0, 1.0)}
        )
        sub = ct.submenu(env, 0, [("x", "y_good")])
        a = eq.build_assessment(env, (sub,), {"t0": ((("x|y_good",), 1.0),)})
        assert eq.check_continuation(env, a).passed

    def test_necessity_reference_passes(self, necessity_skeleton):
        env, _, phi = ct.necessity_environment(necessity_skeleton, 0, ["a", "b"])
        contracts = (ct.menu_rec(env, 0, ["a", "b"]), ct.menu_rec(env, 1, ["d"]))
        strategy = {
            lab: (((f"{phi[lab]}|w", "d|e"), 1.0),) for lab in env.types.labels
        }
        rep = eq.check_continuation(env, eq.build_assessment(env, contracts, strategy))
        assert rep.passed
        assert rep.values == pytest.approx((1.0, 1.0))

    def test_principal_ic_violation_gap_one(self):
        env = _table_single_env(
            {
                ("t0", "y_good"): (1.0, 1.0),
                ("t0", "y_bad"): (1.0, 0.0),
            }
        )
        mech = ct.menu_rec(env, 0, ["x"])
        a = eq.build_assessment(
            env,
            (mech,),
            {"t0": ((("x|y_bad",), 1.0),)},
        )
        rep = eq.check_continuation(env, a)
        assert not rep.principal_ok
        j, where, y_dev, gap = rep.principal_worst
        assert j == 0 and y_dev == "y_good"
        assert gap == pytest.approx(1.0)

    def test_agent_ic_violation_detected(self):
        env = _table_single_env(
            {
                ("t0", "y_good"): (0.0, 1.0),
                ("t0", "y_bad"): (2.0, 1.0),
            }
        )
        mech = ct.menu_rec(env, 0, ["x"])
        a = eq.build_assessment(env, (mech,), {"t0": ((("x|y_good",), 1.0),)})
        rep = eq.check_continuation(env, a)
        assert not rep.agent_ok
        t, where, gap = rep.agent_worst
        assert t == "t0" and gap == pytest.approx(2.0)

    def test_participation_violation(self):
        env = _table_single_env(
            {
                ("t0", "y_good"): (-1.0, 1.0),
                ("t0", "y_bad"): (-2.0, 1.0),
            }
        )
        mech = ct.menu_rec(env, 0, ["x"])
        a = eq.build_assessment(env, (mech,), {"t0": ((("x|y_good",), 1.0),)})
        rep = eq.check_continuation(env, a)
        assert not rep.agent_ok  # outside option worth 0 beats -1

    def test_bayes_inconsistency_detected(self):
        env = _table_single_env(
            {("t0", "y_good"): (1.0, 1.0), ("t0", "y_bad"): (0.0, 0.0),
             ("t1", "y_good"): (1.0, 1.0), ("t1", "y_bad"): (0.0, 0.0)}
        )
        mech = ct.menu_rec(env, 0, ["x"])
        strategy = {
            "t0": ((("x|y_good",), 1.0),),
            "t1": ((("x|y_good",), 1.0),),
        }
        a = eq.build_assessment(env, (mech,), strategy)
        weights = {0: dict(a.beliefs.weights[0])}
        weights[0][("x|y_good",)] = {("t0", ()): 1.0}  # pooling demands (1/2, 1/2)
        bad = eq.Assessment(a.contracts, a.strategy, a.continuation, eq.BeliefSystem(weights))
        rep = eq.check_continuation(env, bad)
        assert not rep.bayes_ok
        # the posterior is 0.5 per type; the point-mass belief misstates both by 0.5
        assert rep.bayes_gap == pytest.approx(0.5)

    def test_non_finite_belief_is_an_error(self):
        env = _table_single_env(
            {("t0", "y_good"): (1.0, 1.0), ("t0", "y_bad"): (0.0, 0.0),
             ("t1", "y_good"): (1.0, 1.0), ("t1", "y_bad"): (0.0, 0.0)}
        )
        mech = ct.menu_rec(env, 0, ["x"])
        strategy = {"t0": ((("x|y_good",), 1.0),), "t1": ((("x|y_good",), 1.0),)}
        a = eq.build_assessment(env, (mech,), strategy)
        weights = {0: dict(a.beliefs.weights[0])}
        weights[0][("x|y_good",)] = {("t0", ()): float("nan"), ("t1", ()): 0.5}
        bad = eq.Assessment(a.contracts, a.strategy, a.continuation, eq.BeliefSystem(weights))
        with pytest.raises(ValueError, match=re.escape("non-finite principal 0 belief at ('x|y_good',) weight nan")):
            eq.check_continuation(env, bad)

    def test_non_finite_offpath_belief_is_an_error(self):
        env = _table_single_env(
            {("t0", "y_good"): (1.0, 1.0), ("t0", "y_bad"): (0.0, 0.0),
             ("t1", "y_good"): (1.0, 1.0), ("t1", "y_bad"): (0.0, 0.0)}
        )
        mech = ct.menu_rec(env, 0, ["x"])
        strategy = {"t0": ((("x|y_good",), 1.0),), "t1": ((("x|y_good",), 1.0),)}
        a = eq.build_assessment(env, (mech,), strategy)
        assert a.continuation[0][("x|y_bad",)] == "y_bad"  # dominated, played off path
        weights = {0: dict(a.beliefs.weights[0])}
        weights[0][("x|y_bad",)] = {("t0", ()): float("nan"), ("t1", ()): float("nan")}
        bad = eq.Assessment(a.contracts, a.strategy, a.continuation, eq.BeliefSystem(weights))
        with pytest.raises(ValueError, match=re.escape("non-finite principal 0 belief at ('x|y_bad',) weight nan")):
            eq.check_continuation(env, bad)


class TestDeclaredBeliefs:
    """Every declared belief is checked where it is read. Public play: one
    principal, x and z each followed by g or b, types t0 and t1 of weight
    1/2; the agent gets 1 at x and 0 at z, the principal 1 at (t0, g) and
    (t1, b) and 0 otherwise; no exit, plain menu (x, z). Both types send x,
    and x plays g, z plays b: z is off path."""

    def _public(self):
        spec = ec.PrincipalSpec(
            contractible=(ec.ActionValue("x"), ec.ActionValue("z")),
            noncontractible=(ec.ActionValue("g"), ec.ActionValue("b")),
            feasible={"x": ("g", "b"), "z": ("g", "b")},
        )
        entries = {
            (t, ((x, y),)): (1.0 if x == "x" else 0.0, (1.0 if (t, y) in (("t0", "g"), ("t1", "b")) else 0.0,))
            for t in ("t0", "t1")
            for x, y in spec.feasible_pairs()
        }
        env = ec.Environment(
            types=ec.TypeSpace.uniform_finite([0.0, 1.0]),
            principals=(spec,),
            payoffs=ec.PayoffModel.from_table(entries, n_principals=1),
            optout=False,
        )
        mech = ct.plain_menu(env, 0, ["x", "z"])
        strategy = {lab: ((("x",), 1.0),) for lab in ("t0", "t1")}
        cont = {0: {("x",): "g", ("z",): "b"}}
        return env, eq.build_assessment(env, (mech,), strategy, continuation=cont)

    def _with(self, a, j, obs, belief):
        weights = {k: dict(v) for k, v in a.beliefs.weights.items()}
        if belief is None:
            del weights[j][obs]
        else:
            weights[j][obs] = belief
        return replace(a, beliefs=eq.BeliefSystem(weights, a.beliefs.offpath))

    def test_declared_public_beliefs_pass(self):
        env, a = self._public()
        assert a.beliefs.weights[0][("z",)] == {("t0", ()): 0.5, ("t1", ()): 0.5}
        assert eq.check_continuation(env, a).passed
        tilted = self._with(a, 0, ("z",), {("t0", ()): 0.25, ("t1", ()): 0.75})
        assert eq.check_continuation(env, tilted).passed  # b is the best reply

    @pytest.mark.parametrize(
        "belief, message",
        [
            # passed at the parent
            ({("t0", ()): -1.0, ("t1", ()): 2.0}, "negative principal 0 belief at ('z',) weight -1.0"),
            # principal-optimality findings, not errors
            ({("t0", ()): 3.0, ("t1", ()): -2.0}, "negative principal 0 belief at ('z',) weight -2.0"),
            ({("t0", ()): 0.2}, "principal 0 belief at ('z',) weights sum to 0.2, not 1"),
            ({("t0", ()): float("nan"), ("t1", ()): 1.0}, "non-finite principal 0 belief at ('z',) weight nan"),
            # a third weight raised IndexError
            ({("t0", ()): 0.5, ("t1", ()): 0.5, ("t2", ()): 0.0}, "principal 0 belief at ('z',): key ('t2', ()) is not (type label, unobserved message labels)"),
            ({("t0", ("x",)): 0.5, ("t1", ()): 0.5}, "('x',) are not the labels of the 0 messages principal 0 does not see"),
            ({"t0": 0.5, ("t1", ()): 0.5}, "principal 0 belief at ('z',): key 't0' is not (type label, unobserved message labels)"),
            (None, "principal 0 belief at ('z',) is missing"),
        ],
    )
    def test_public_offpath_belief_is_checked(self, belief, message):
        env, a = self._public()
        with pytest.raises(ValueError, match=re.escape(message)):
            eq.check_continuation(env, self._with(a, 0, ("z",), belief))

    @pytest.mark.parametrize(
        "j, extra, message",
        [
            # all three passed at the parent: nothing read these entries
            (0, {("q",): {("t9", ("zz",)): -5.0}}, "principal 0 belief at ('q',) is not at an observation principal 0 can make"),
            (3, {}, "principal 3 belief: the game has no principal 3 (principals 0 to 0)"),
            (1, {("x",): {("t0", ()): 1.0}}, "principal 1 belief at ('x',): the game has no principal 1 (principals 0 to 0)"),
        ],
    )
    def test_belief_beyond_the_game_is_rejected(self, j, extra, message):
        env, a = self._public()
        weights = {k: dict(v) for k, v in a.beliefs.weights.items()}
        weights[j] = {**weights.get(j, {}), **extra}
        with pytest.raises(ValueError, match=re.escape(message)):
            eq.check_continuation(env, replace(a, beliefs=eq.BeliefSystem(weights, a.beliefs.offpath)))

    def _private(self):
        """TestPrivateOffpathBeliefs' game; c|w is off path for principal 0."""
        types = [("t0", 1.0, 0.5), ("t1", 2.0, 0.3), ("t2", 3.0, 0.2)]
        env = _abc_d_env(types, ("e", "f", "g"), "private")
        contracts = (ct.menu_rec(env, 0, ["a", "b", "c"]), ct.menu_rec(env, 1, ["d"]))
        strategy = {
            "t0": ((("a|w", "d|e"), 0.5), (("b|w", "d|f"), 0.5)),
            "t1": ((("a|w", "d|e"), 1.0),),
            "t2": ((ec.OPT_OUT, 1.0),),
        }
        return env, eq.build_assessment(env, contracts, strategy)

    def test_declared_private_beliefs_pass(self):
        env, a = self._private()
        assert eq.check_continuation(env, a).passed

    @pytest.mark.parametrize(
        "belief, message",
        [
            # passed at the parent
            ({("t0", ("d|e",)): -0.5, ("t1", ("d|e",)): 1.5}, "negative principal 0 belief at 'c|w' weight -0.5"),
            # KeyError (2,) at the parent
            ({("t0", ()): 1.0}, "() are not the labels of the 1 messages principal 0 does not see"),
            (None, "principal 0 belief at 'c|w' is missing"),
            ({("t0", ("d|h",)): 1.0}, "('d|h',) are not the labels of the 1 messages principal 0 does not see"),
        ],
    )
    def test_private_offpath_belief_is_checked(self, belief, message):
        env, a = self._private()
        with pytest.raises(ValueError, match=re.escape(message)):
            eq.check_continuation(env, self._with(a, 0, "c|w", belief))


def _offpath_weights(env, a):
    """(principal, observation label, key) of every positive belief weight
    at an observation no type reaches; every type has positive weight."""
    sent = {o for dist in a.strategy.values() for o, p in dist if o != ec.OPT_OUT and p > 0.0}
    out = []
    for j, table in a.beliefs.weights.items():
        reached = sent if env.observability == "public" else {o[j] for o in sent}
        out += [(j, obs, k) for obs, b in table.items() if obs not in reached for k, w in b.items() if w > 0.0]
    return out


@given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(eq.OFFPATH_POLICIES))
@example(seed=4, policy="prior")  # public, one message off path
@example(seed=240, policy="selector")  # private, two principals with two messages each
@example(seed=27, policy="prior")  # one principal; a two-point pool failed Bayes at tol 0 by 1.1e-16
@settings(max_examples=40, deadline=None)
def test_found_beliefs_are_bayes_beliefs_and_checked(seed, policy):
    """Every equilibrium the search finds holds exactly the beliefs Bayes'
    rule and its policy give, passes the Bayes check at tol 0 with gap 0,
    as does its canonicalization, and negating one positive off-path
    weight is an error. One-principal games are also searched over
    two-point mixtures."""
    env, contracts = random_instance(np.random.default_rng(seed))
    found = [
        fe
        for mixing in ("pure", "two-point")[: 2 if env.n == 1 else 1]
        for fe in eq.enumerate_equilibria(env, contracts, eq.SearchOptions(policies=(policy,), mixing=mixing))
    ]
    for fe in found:
        a = fe.assessment
        assert eq.bayes_update(env, contracts, a.strategy, policy) == a.beliefs
        for b in (a, eq.canonicalize(env, a)):
            assert eq.check_continuation(env, b, 0.0).bayes_gap == 0.0
        for j, obs, key in _offpath_weights(env, a):
            weights = {k: dict(v) for k, v in a.beliefs.weights.items()}
            weights[j][obs] = {**weights[j][obs], key: -weights[j][obs][key]}
            with pytest.raises(ValueError, match=f"negative principal {j} belief"):
                eq.check_continuation(env, replace(a, beliefs=eq.BeliefSystem(weights, policy)))


def test_both_observabilities_have_offpath_weights():
    """The examples of the property above reach both branches."""
    for seed, policy, observability in ((4, "prior", "public"), (240, "selector", "private")):
        env, contracts = random_instance(np.random.default_rng(seed))
        assert env.observability == observability
        found = eq.enumerate_equilibria(env, contracts, eq.SearchOptions(policies=(policy,)))
        assert any(_offpath_weights(env, fe.assessment) for fe in found)


class TestStrategyWeights:
    """Two types, x in {a, b} with a:(u, w) and b:(u,); the agent gets 1 at
    a and 0 at b, the principal 1 at u and 0.5 at w; no exit; u is played
    at every message of menu_rec(a, b)."""

    def _assessment(self):
        spec = ec.PrincipalSpec(
            contractible=(ec.ActionValue("a"), ec.ActionValue("b")),
            noncontractible=(ec.ActionValue("u"), ec.ActionValue("w")),
            feasible={"a": ("u", "w"), "b": ("u",)},
        )
        entries = {
            (t, ((x, y),)): (1.0 if x == "a" else 0.0, (1.0 if y == "u" else 0.5,))
            for t in ("t0", "t1")
            for x, y in spec.feasible_pairs()
        }
        env = ec.Environment(
            types=ec.TypeSpace.uniform_finite([0.0, 1.0]),
            principals=(spec,),
            payoffs=ec.PayoffModel.from_table(entries, n_principals=1),
            optout=False,
        )
        mech = ct.menu_rec(env, 0, ["a", "b"])
        strategy = {lab: ((("a|u",), 1.0),) for lab in ("t0", "t1")}
        cont = {0: {(m,): "u" for m in mech.labels}}
        return env, eq.build_assessment(env, (mech,), strategy, continuation=cont)

    def test_valid_strategy_passes(self):
        env, a = self._assessment()
        assert eq.check_continuation(env, a).passed

    @pytest.mark.parametrize(
        "dist, message",
        [
            # passed, with an allocation holding -0.5
            (((("a|u",), 1.5), (("b|u",), -0.5)), "negative type 't0' strategy weight -0.5"),
            # NaN mass skipped its Bayes check (m > 0 is false)
            (((("a|u",), float("nan")),), "non-finite type 't0' strategy weight nan"),
        ],
    )
    def test_weights_are_a_probability_vector(self, dist, message):
        env, a = self._assessment()
        bad = replace(a, strategy={**a.strategy, "t0": dist})
        with pytest.raises(ValueError, match=re.escape(message)):
            eq.check_continuation(env, bad)


class TestInducedAllocationAndValues:
    def test_pure_separating_and_mixed_value(self):
        env = _table_single_env(
            {
                ("t0", "y_good"): (1.0, 0.0),
                ("t0", "y_bad"): (1.0, 2.0),
            }
        )
        mech = ct.menu_rec(env, 0, ["x"])
        a = eq.build_assessment(
            env,
            (mech,),
            {"t0": ((("x|y_good",), 0.5), (("x|y_bad",), 0.5))},
        )
        alloc = eq.induced_allocation(env, a)
        assert dict(alloc.entries["t0"]) == {
            (("x", "y_good"),): 0.5,
            (("x", "y_bad"),): 0.5,
        }
        assert eq.principal_value(env, a, 0) == pytest.approx(1.0)

    def test_opt_out_counts_zero(self):
        env = _table_single_env(
            {("t0", "y_good"): (-1.0, 5.0), ("t0", "y_bad"): (-1.0, 5.0)}
        )
        mech = ct.menu_rec(env, 0, ["x"])
        a = eq.build_assessment(env, (mech,), {"t0": ((ec.OPT_OUT, 1.0),)})
        assert eq.principal_value(env, a, 0) == 0.0
        rep = eq.check_continuation(env, a)
        assert rep.passed


class TestEnumerate:
    def test_constant_payoffs_all_feasible_maps(self):
        env = _table_single_env(
            {
                ("t0", "y_good"): (1.0, 1.0),
                ("t0", "y_bad"): (1.0, 1.0),
                ("t1", "y_good"): (1.0, 1.0),
                ("t1", "y_bad"): (1.0, 1.0),
            }
        )
        mech = ct.menu_rec(env, 0, ["x"])
        found = eq.enumerate_equilibria(env, (mech,), eq.SearchOptions())
        # two messages, two types, indifferent everywhere: all 4 pure maps
        assert len(found) == 4

    def test_search_space_cap(self):
        env = _table_single_env(
            {("t0", "y_good"): (1.0, 1.0), ("t0", "y_bad"): (1.0, 1.0)}
        )
        mech = ct.menu_rec(env, 0, ["x"])
        with pytest.raises(eq.SearchSpaceError):
            eq.enumerate_equilibria(env, (mech,), eq.SearchOptions(cap=1))

    def test_two_point_mixing_finds_mixtures(self):
        env = _table_single_env(
            {
                ("t0", "y_good"): (1.0, 1.0),
                ("t0", "y_bad"): (1.0, 1.0),
            }
        )
        mech = ct.menu_rec(env, 0, ["x"])
        found = eq.enumerate_equilibria(
            env, (mech,), eq.SearchOptions(mixing="two-point")
        )
        sizes = {len(fe.allocation.entries["t0"]) for fe in found}
        assert 2 in sizes  # genuine two-point mixtures found

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            env, contracts = random_instance(rng)
            oracle = oracle_allocations(env, contracts)
            engine = engine_allocation_keys(
                eq.enumerate_equilibria(env, contracts, eq.SearchOptions(policies=("prior",)))
            )
            assert engine == oracle


    def test_found_equilibria_match_public_recomputation(self):
        """Allocations and values computed inside the search equal the public
        functions' recomputation from each found assessment, exactly."""
        rng = np.random.default_rng(20250810)
        options = eq.SearchOptions(policies=("prior", "lowest-type"))
        classes = set()
        for _ in range(30):
            env, contracts = random_instance(rng)
            classes.add((env.observability, env.optout))
            for fe in eq.enumerate_equilibria(env, contracts, options):
                a = fe.assessment
                assert fe.allocation.key() == eq.induced_allocation(env, a).key()
                assert fe.values == tuple(
                    eq.principal_value(env, a, j) for j in range(env.n)
                )
                assert eq.check_continuation(env, a).values == fe.values
        assert classes == {
            ("public", True), ("public", False), ("private", True), ("private", False)
        }


class TestCanonicalize:
    def test_truthful_menu_rec_fixed_point(self, necessity_skeleton):
        env, _, phi = ct.necessity_environment(necessity_skeleton, 0, ["a", "b"])
        contracts = (ct.menu_rec(env, 0, ["a", "b"]), ct.menu_rec(env, 1, ["d"]))
        strategy = {
            lab: (((f"{phi[lab]}|w", "d|e"), 1.0),) for lab in env.types.labels
        }
        a = eq.build_assessment(env, contracts, strategy)
        c = eq.canonicalize(env, a)
        assert eq.induced_allocation(env, c).key() == eq.induced_allocation(env, a).key()
        assert [m.kind for m in c.contracts] == ["menu_rec", "menu_rec"]

    def test_merges_same_action_messages(self):
        env = _table_single_env(
            {
                ("t0", "y_good"): (1.0, 1.0),
                ("t0", "y_bad"): (0.0, 1.0),
            }
        )
        sub = ct.submenu(env, 0, [("x", "y_good"), ("x", "y_bad")])
        # both messages induce y_good via an explicit continuation
        a = eq.build_assessment(
            env,
            (sub,),
            {"t0": ((("x|y_good",), 0.5), (("x|y_bad",), 0.5))},
            continuation={0: {("x|y_good",): "y_good", ("x|y_bad",): "y_good"}},
        )
        c = eq.canonicalize(env, a)
        dist = dict(c.strategy["t0"])
        assert dist == {("x|y_good",): 1.0}

    def test_preserves_allocation_and_values_on_random_equilibria(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(8):
            env, contracts = random_instance(rng)
            found = eq.enumerate_equilibria(
                env, contracts, eq.SearchOptions(policies=("prior",))
            )
            for fe in found[:6]:
                c = eq.canonicalize(env, fe.assessment)
                rep = eq.check_continuation(env, c)
                assert rep.passed
                assert rep.allocation.key() == fe.allocation.key()
                assert np.allclose(rep.values, fe.values, atol=1e-12)
                checked += 1
        assert checked > 10

    def test_recommendations_followed_on_path_after_canonicalization(self):
        # recommendations are cheap talk, so arbitrary equilibria may ignore
        # them; truthful play is restored by canonicalization, under which
        # every on-path recommendation is the action actually taken
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(6):
            env, contracts = random_instance(rng)
            found = eq.enumerate_equilibria(
                env, contracts, eq.SearchOptions(policies=("prior",))
            )
            for fe in found[:8]:
                canon = eq.canonicalize(env, fe.assessment)
                assert eq.check_continuation(env, canon).passed
                for t_label, dist in canon.strategy.items():
                    for outcome, prob in dist:
                        if outcome == ec.OPT_OUT or prob == 0.0:
                            continue
                        for j, msg_label in enumerate(outcome):
                            mech = canon.contracts[j]
                            msg = mech.messages[mech.index_of(msg_label)]
                            if env.observability == "private":
                                y = canon.continuation[j][msg_label]
                            else:
                                y = canon.continuation[j][tuple(outcome)]
                            assert y == msg.recommendation
                            checked += 1
        assert checked > 10


class TestCheckRobust:
    def test_same_contract_never_safe(self, necessity_skeleton):
        env, _, phi = ct.necessity_environment(necessity_skeleton, 0, ["a", "b"])
        contracts = (ct.menu_rec(env, 0, ["a", "b"]), ct.menu_rec(env, 1, ["d"]))
        strategy = {
            lab: (((f"{phi[lab]}|w", "d|e"), 1.0),) for lab in env.types.labels
        }
        a = eq.build_assessment(env, contracts, strategy)
        rep = eq.check_robust(env, a, options=eq.SearchOptions())
        assert rep.passed
        same = [
            f
            for f in rep.findings
            if f.principal == 0 and f.deviation.messages == contracts[0].messages
        ]
        assert same and same[0].outcome == "deterred"

    def test_off_menu_deviation_met_by_minus_eight(self, necessity_skeleton):
        env, _, phi = ct.necessity_environment(necessity_skeleton, 0, ["a", "b"])
        contracts = (ct.menu_rec(env, 0, ["a", "b"]), ct.menu_rec(env, 1, ["d"]))
        strategy = {
            lab: (((f"{phi[lab]}|w", "d|e"), 1.0),) for lab in env.types.labels
        }
        a = eq.build_assessment(env, contracts, strategy)
        rep = eq.check_robust(env, a, options=eq.SearchOptions())
        off_menu = [
            f
            for f in rep.findings
            if f.principal == 0 and "c" in {m.action for m in f.deviation.messages}
        ]
        assert off_menu
        assert all(f.outcome == "deterred" for f in off_menu)
        assert any(f.worst_value == pytest.approx(-8.0) for f in off_menu)

    def test_plain_menu_deviation_flagged_private(self):
        env, assessment, deviation, meta = ct.plain_menu_scenario()
        rep = eq.check_robust(env, assessment, options=eq.SearchOptions(policies=("prior",)))
        assert not rep.passed
        flagged = [f for f in rep.findings if f.outcome == "safe-profitable"]
        assert len(flagged) == 1
        assert flagged[0].deviation.kind == "plain"
        assert flagged[0].worst_value == pytest.approx(2.0)
        assert flagged[0].gain == pytest.approx(0.5)

    def test_check_robust_uses_the_search_tolerance(self):
        # found with tol = 1, this equilibrium fails the base checks at 1e-9;
        # check_robust checks it at the tolerance of the options it is given
        env, contracts = random_instance(np.random.default_rng(20250810))
        options = eq.SearchOptions(tol=1.0, policies=("prior",))
        found = eq.enumerate_equilibria(env, contracts, options)
        assert found
        assert not eq.check_continuation(env, found[0].assessment).passed
        rep = eq.check_robust(env, found[0].assessment, options=options)
        assert rep.base.passed
        assert eq.check_continuation(env, found[0].assessment, 1.0) == rep.base


class TestNoPostDeviationEquilibrium:
    def _pennies_env(self):
        """Opening action xm turns the continuation into matching pennies."""
        spec = ec.PrincipalSpec(
            contractible=(ec.ActionValue("x0"), ec.ActionValue("xm")),
            noncontractible=(ec.ActionValue("a"), ec.ActionValue("b")),
            feasible={"x0": ("a", "b"), "xm": ("a", "b")},
        )
        types = ec.TypeSpace.uniform_finite([1.0])
        entries = {}
        for x1 in ("x0", "xm"):
            for y1 in ("a", "b"):
                for x2 in ("x0",):
                    for y2 in ("a", "b"):
                        prof = ((x1, y1), (x2, y2))
                        if x1 == "xm":
                            match = 1.0 if y1 == y2 else 0.0
                            entries[("t0", prof)] = (0.0, (match, 1.0 - match))
                        else:
                            entries[("t0", prof)] = (0.0, (0.0, 0.0))
        spec2 = ec.PrincipalSpec(
            contractible=(ec.ActionValue("x0"),),
            noncontractible=(ec.ActionValue("a"), ec.ActionValue("b")),
            feasible={"x0": ("a", "b")},
        )
        return ec.Environment(
            types=types,
            principals=(spec, spec2),
            payoffs=ec.PayoffModel.from_table(entries, n_principals=2),
        )

    def test_deviation_without_continuation_is_reported(self):
        env = self._pennies_env()
        contracts = (ct.menu_rec(env, 0, ["x0"]), ct.menu_rec(env, 1, ["x0"]))
        a = eq.build_assessment(
            env, contracts, {"t0": ((("x0|a", "x0|a"), 1.0),)}
        )
        rep = eq.check_robust(env, a, options=eq.SearchOptions())
        assert rep.passed  # nothing safe-profitable either way
        dead = [
            f for f in rep.findings if f.outcome == "no-continuation-equilibrium"
        ]
        assert dead, "deviations that open the pennies action have no pure continuation"
        assert all(
            "xm" in {m.action for m in f.deviation.messages} for f in dead
        )

    def test_check_robust_requires_passing_base(self):
        env = self._pennies_env()
        contracts = (ct.menu_rec(env, 0, ["xm"]), ct.menu_rec(env, 1, ["x0"]))
        bad = eq.build_assessment(
            env, contracts, {"t0": ((("xm|a", "x0|a"), 1.0),)}
        )
        rep = eq.check_robust(env, bad, options=eq.SearchOptions())
        base = eq.check_continuation(env, bad)
        assert not base.passed
        assert rep == eq.RobustReport(passed=False, base=base, findings=())

