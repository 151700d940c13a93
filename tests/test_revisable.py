import itertools
import math

import numpy as np
import pytest

from contract_forge import revisable as rv
from contract_forge.env_core import Allocation, Belief, TypeSpace
from contract_forge.equilibrium import check_continuation
from contract_forge.optimize import line_max_rows

import closed_forms as cf


def quadratic_model(k=0.05, a=0.7, types=None, alpha=0.0):
    types = types or TypeSpace.uniform_finite([0.0, 0.25, 0.5, 0.75, 1.0])
    return rv.RevisableModel.additive(
        "-(z - theta)^2",
        f"-(z - {k!r} - {a!r}*theta)^2",
        types,
        alpha=alpha,
        z_range=(-1.0, 2.0),
        ideal_form=("affine", k, a),
    )


class TestPosteriorIdeal:
    def test_quadratic_uniform(self):
        model = quadratic_model(k=0.0, a=0.5)
        belief = Belief.from_typespace(TypeSpace.interval(0.0, 1.0))
        assert rv.posterior_ideal(model, belief) == pytest.approx(0.25, abs=1e-9)

    def test_point_mass(self):
        model = quadratic_model(k=0.1, a=0.5)
        assert rv.posterior_ideal(model, Belief.point_mass(0.4)) == pytest.approx(
            0.3, abs=1e-9
        )

    def test_ratio_family_via_search(self):
        model = rv.RevisableModel.additive(
            "-(z - theta)^2",
            "-(z/theta - 1)^2",
            TypeSpace.interval(1.0, 2.0),
            alpha=0.0,
            z_range=(0.25, 4.0),
        )
        belief = Belief.from_typespace(TypeSpace.interval(1.0, 2.0))
        r = rv.posterior_ideal(model, belief)
        assert r == pytest.approx(math.log(2.0) / 0.5, abs=1e-6)

    def test_quadratic_closed_form_matches_generic_search(self):
        closed = quadratic_model(k=0.07, a=0.6)
        generic = rv.RevisableModel.additive(
            closed.sender, closed.receiver, closed.types,
            alpha=0.0, z_range=closed.z_range, ideal_form=None,
        )
        belief = Belief.from_typespace(TypeSpace.interval(0.0, 1.0))
        assert rv.posterior_ideal(closed, belief) == pytest.approx(
            rv.posterior_ideal(generic, belief), abs=1e-8
        )

    @pytest.mark.parametrize(
        "receiver", ["-(z - 0.05 - 0.7*theta)^2", "-(z - 0.05 - 0.7*theta)^2*(1+theta)", "-exp(z - theta) + z"]
    )
    def test_scan_equals_the_scalar_scan(self, receiver):
        """The one-call scan of ``z_range`` finds the ideal the 201 scalar
        evaluations it replaced found, bit for bit."""
        model = rv.RevisableModel.additive("z", receiver, TypeSpace.uniform_finite([0.0, 0.5, 1.0]), 0.0, (-1.0, 2.0))
        pts, w = np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.3, 0.5])
        value = lambda z: float(np.broadcast_to(model.receiver_fn(z, pts), pts.shape) @ w)
        zs = np.linspace(-1.0, 2.0, 201)
        i = int(np.argmax([value(z) for z in zs]))
        t = line_max_rows(lambda _, t: np.array([value(zs[i] + t[0])]), zs[i - 1] - zs[i], zs[i + 1] - zs[i],
                          rv._ideal_tol(model))[0]
        assert rv.posterior_ideal(model, Belief(tuple(pts), tuple(w))) == float(zs[i] + t)

    @pytest.mark.parametrize("center", [0.0, 100.0, -100.0, 1000.0])
    def test_searched_ideal_far_from_zero_ties_with_the_true_ideal(self, center):
        """Far from 0 the expected payoff is flat to rounding within about
        sqrt(eps)*|z| of its maximum, wider than sqrt(eps) times a narrow
        range's width; the search still lands within the ideal's tol, and a
        target at the true ideal is a tie, placed in the middle of its window."""
        model = rv.RevisableModel.additive(
            "z", f"-exp(z - {center!r} - theta) + z", TypeSpace.uniform_finite([0.0, 0.5, 1.0]),
            alpha=0.25, z_range=(center - 1.0, center + 1.5),
        )
        belief = Belief((0.0, 0.5, 1.0), (0.2, 0.3, 0.5))
        ideal = center - math.log(0.2 + 0.3 * math.exp(-0.5) + 0.5 * math.exp(-1.0))
        assert rv.posterior_ideal(model, belief) == pytest.approx(ideal, abs=rv._ideal_tol(model))
        assert rv._placement(model, ideal, belief)[:3] == (ideal, 0.0, ideal)

    def test_searched_ideal_ties_within_its_resolution(self):
        """The search finds this belief's ideal 0.505 only to within about
        1e-9, where the expected payoff is flat to rounding; a target at the
        true ideal is a tie, placed in the middle of its window."""
        model = rv.RevisableModel.additive(
            "-(z - theta)^2", "-(z - 0.05 - 0.7*theta)^2", TypeSpace.uniform_finite([0.0, 0.5, 1.0]),
            alpha=0.25, z_range=(-1.0, 2.0),
        )
        belief = Belief((0.0, 0.5, 1.0), (0.2, 0.3, 0.5))
        assert rv.posterior_ideal(model, belief) == pytest.approx(0.505, abs=rv._ideal_tol(model))
        assert rv._placement(model, 0.505, belief)[:3] == (0.505, 0.0, 0.505)

    def test_concavity_audit_rejects_convex(self):
        with pytest.raises(rv.ConcavityError, match="not strictly concave"):
            rv.RevisableModel.additive("-(z - theta)^2", "(z - theta)^2", TypeSpace.interval(0.0, 1.0), alpha=0.0)

    @pytest.mark.parametrize(
        "receiver, ideal, message",
        [
            # each type's ideal is 0.05 + 0.7 theta, but a belief weights the types by 1 + theta
            ("-(z - 0.05 - 0.7*theta)^2*(1+theta)", ("affine", 0.05, 0.7), "not quadratic in z with one curvature"),
            ("-(z - 0.05 - 0.7*theta)^4", ("affine", 0.05, 0.7), "not quadratic in z with one curvature"),
            ("-(z - 0.05 - 0.7*theta)^2", ("affine", 0.6, 0.7), "not the receiver's ideal at each type"),
            ("-(z - 0.05 - 0.7*theta)^2", ("quadratic", 0.05, 0.7), "unknown ideal form 'quadratic'"),
        ],
    )
    def test_declared_ideal_must_hold_under_every_belief(self, receiver, ideal, message):
        types = TypeSpace.uniform_finite([0.0, 0.5, 1.0])
        with pytest.raises(rv.IdealFormError, match=message):
            rv.RevisableModel.additive("-(z - theta)^2", receiver, types, 0.0, (-1.0, 2.0), ideal)
        rv.RevisableModel.additive("-(z - theta)^2", "-(z - 0.05 - 0.7*theta)^2*2", types, 0.0, (-1.0, 2.0),
                                   ("affine", 0.05, 0.7))
        assert cf.ms_model(0.1, 0.6).ideal_form == ("affine", 0.1, 0.6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("receiver, value", [("-(z - 0.7*theta)^2", 1e308), ("log(theta - 1) - z^2", 0.5)])
    def test_non_finite_receiver_fails_the_audit_quietly(self, receiver, value):
        with pytest.raises(rv.ConcavityError, match="not finite"):
            rv.RevisableModel.additive("z", receiver, TypeSpace.uniform_finite([0.0, value]), alpha=0.0)


class TestFeasibleIntervalAndEndpoint:
    def test_additive_interval(self):
        m = quadratic_model(alpha=1.0)
        assert rv.feasible_final_interval(m, 5.0) == (4.0, 6.0)

    def test_degenerate_alpha_zero(self):
        m = quadratic_model(alpha=0.0)
        assert rv.feasible_final_interval(m, 2.0) == (2.0, 2.0)

    def test_proportional_interval_and_errors(self):
        m = rv.RevisableModel(
            mode="proportional", sender=quadratic_model().sender,
            receiver=quadratic_model().receiver, types=TypeSpace.interval(0, 1),
            eta_lo=0.75, eta_hi=1.25,
        )
        assert rv.feasible_final_interval(m, 10.0) == (7.5, 12.5)
        with pytest.raises(ValueError):
            rv.feasible_final_interval(m, -1.0)

    def test_endpoint_additive_cases(self):
        m = quadratic_model(alpha=1.0)
        assert rv.endpoint_baseline(m, 2.0, 5.0) == (1.0, 1.0)
        m3 = quadratic_model(alpha=3.0)
        assert rv.endpoint_baseline(m3, 5.0, 5.0) == (5.0, 0.0)
        assert rv.endpoint_baseline(m3, 7.0, 5.0) == (10.0, -3.0)

    def test_endpoint_proportional(self):
        m = rv.RevisableModel(
            mode="proportional", sender=quadratic_model().sender,
            receiver=quadratic_model().receiver, types=TypeSpace.interval(0, 1),
            eta_lo=0.8, eta_hi=1.2,
        )
        x, factor = rv.endpoint_baseline(m, 10.0, 12.0)
        assert x == pytest.approx(10.0 / 1.2)
        assert factor == 1.2
        assert x * factor == pytest.approx(10.0)
        with pytest.raises(ValueError):
            rv.endpoint_baseline(m, -2.0, 0.0)

    def test_endpoint_target_always_reached(self):
        m = quadratic_model(alpha=0.625)
        for z, r in [(0.0, 1.0), (1.0, 0.2), (0.4, 0.4)]:
            x, y = rv.endpoint_baseline(m, z, r)
            assert x + y == pytest.approx(z, abs=1e-12)
            assert abs(y) <= m.alpha + 1e-12


class TestTransforms:
    def _small_game(self, alpha_steps):
        model = quadratic_model(types=TypeSpace.uniform_finite([0.0, 0.5, 1.0]))
        z = tuple(np.linspace(0.0, 1.0, 5))
        return rv.build_grid_game(model, z, alpha_steps)

    def test_collapse_of_zero_revision_assessment_is_identity(self):
        game = self._small_game(0)
        found = rv.enumerate_final_allocations(game)
        key, (fa, assessment) = next(iter(found.items()))
        g0 = self._small_game(0)
        collapsed = rv.collapse_to_full(game, assessment, g0)
        rep = check_continuation(g0.env, collapsed)
        assert rep.passed
        assert rv.final_allocation_of(g0, rep.allocation).key() == key

    def test_lift_alpha_zero_is_identity(self):
        game = self._small_game(0)
        found = rv.enumerate_final_allocations(game)
        for key, (fa, assessment) in list(found.items())[:5]:
            lifted = rv.lift_to_limited(game, assessment, game)
            rep = check_continuation(game.env, lifted)
            assert rep.passed
            assert rv.final_allocation_of(game, rep.allocation).key() == key

    def test_round_trip_preserves_final_allocation_and_sender_payoffs(self):
        game0, g_a = self._small_game(0), self._small_game(1)
        found = rv.enumerate_final_allocations(game0)
        for key, (fa, assessment) in list(found.items())[:10]:
            lifted = rv.lift_to_limited(game0, assessment, g_a)
            rep_a = check_continuation(g_a.env, lifted)
            assert rep_a.passed
            collapsed = rv.collapse_to_full(g_a, lifted, game0)
            rep_0 = check_continuation(game0.env, collapsed)
            assert rep_0.passed
            assert rv.final_allocation_of(game0, rep_0.allocation).key() == key
            # per-type sender payoffs unchanged by the transforms
            u = lambda z, th: -((z - th) ** 2)
            for t_label, dist in fa.entries.items():
                th = game0.env.types.values[game0.env.types.labels.index(t_label)]
                before = sum(p * u(z, th) for z, p in dist)
                after_dist = rv.final_allocation_of(game0, rep_0.allocation).entries[
                    t_label
                ]
                after = sum(p * u(z, th) for z, p in after_dist)
                assert after == pytest.approx(before, abs=1e-12)

    def test_message_with_zero_gap_keeps_baseline(self):
        model = quadratic_model(k=0.0, a=1.0, types=TypeSpace.uniform_finite([0.5]))
        game0 = rv.build_grid_game(model, tuple(np.linspace(0.0, 1.0, 5)), 0)
        g_a = rv.build_grid_game(model, game0.z_values, 1)
        found = rv.enumerate_final_allocations(game0)
        # pick the allocation putting the single type at its ideal z = 0.5
        for key, (fa, assessment) in found.items():
            if fa.entries["t0"][0][0] == pytest.approx(0.5):
                lifted = rv.lift_to_limited(game0, assessment, g_a)
                msg = lifted.strategy["t0"][0][0][0]
                x_lab, rev_lab = msg.split("|")
                assert g_a.final_of(x_lab, rev_lab) == pytest.approx(0.5)
                assert g_a.x_values[int(x_lab[1:])] == pytest.approx(0.5)
                break
        else:
            pytest.fail("expected the ideal-point allocation in the enumeration")


class TestPayoffsIgnoringAVariable:
    """Grid games read sender and receiver payoffs as |Z| x T tables, so
    either may ignore z or theta."""

    Z = tuple(np.linspace(0.0, 1.0, 5))

    def _model(self, sender="-(z - theta)^2", receiver="-(z - 0.05 - 0.7*theta)^2"):
        types = TypeSpace.uniform_finite([0.0, 0.5, 1.0])
        return rv.RevisableModel.additive(sender, receiver, types, alpha=0.0, z_range=(-1.0, 2.0))

    def test_grid_environment_reads_the_final_action_row(self):
        from contract_forge.env_core import payoff_tables

        game = rv.build_grid_game(self._model(), self.Z, 1)
        assert game.u_tab.shape == game.v_tab.shape == (5, 3)
        tables = payoff_tables(game.env)
        for x, ys in game.env.principals[0].feasible.items():
            for y in ys:
                zi = int(x[1:]) + int(y[1:]) - 2  # b_i + r_k lands on z_(i+k-2m)
                assert game.final_of(x, y) == pytest.approx(self.Z[zi], abs=1e-12)
                u, v = tables[((x, y),)]
                assert np.array_equal(u, game.u_tab[zi]) and np.array_equal(v[0], game.v_tab[zi])

    @pytest.mark.parametrize("sender, n", [("-(z - 0.5)^2", 17), ("z", 5), ("0", 125)])
    def test_theta_free_sender(self, sender, n):
        rep = rv.check_gamma_equal(self._model(sender=sender), self.Z, 1)
        assert rep.equal and rep.transforms_ok and rep.n_limited == rep.n_full == n

    def test_theta_free_receiver(self):
        model = self._model(receiver="-(z - 0.3)^2")
        belief = Belief((0.0, 1.0), (0.5, 0.5))
        assert rv.posterior_ideal(model, belief) == pytest.approx(0.3, abs=rv._ideal_tol(model))
        rep = rv.check_gamma_equal(model, self.Z, 1)
        assert rep.equal and rep.transforms_ok and rep.n_full == 25

    @pytest.mark.parametrize("receiver", ["0", "theta"])
    def test_z_free_receiver_fails_the_concavity_audit(self, receiver):
        with pytest.raises(rv.ConcavityError, match="not strictly concave"):
            self._model(receiver=receiver)


class TestMenuAssessment:
    """Off-path messages repeat the first on-path message with their baseline."""

    def _game(self, alpha_steps):
        model = rv.RevisableModel.additive(
            "-(z - theta)^2",
            "-(z-0.1-0.6*theta)^2",
            TypeSpace.uniform_finite([0.0, 0.5, 1.0]),
            alpha=0.0,
            z_range=(-1.0, 2.0),
            ideal_form=("affine", 0.1, 0.6),
        )
        return rv.build_grid_game(model, tuple(np.linspace(0.0, 1.0, 5)), alpha_steps)

    @staticmethod
    def _check_offpath_rule(assessment):
        """Returns whether two sent messages share a baseline."""
        sent = {o[0] for dist in assessment.strategy.values() for o, p in dist if p > 0}
        cont = assessment.continuation[0]
        beliefs = assessment.beliefs.weights[0]
        messages = assessment.contracts[0].messages
        for msg in messages:
            if msg.label in sent:
                assert cont[(msg.label,)] == msg.recommendation
                continue
            src = next(m.label for m in messages if m.label in sent and m.action == msg.action)
            assert cont[(msg.label,)] == cont[(src,)]
            assert beliefs[(msg.label,)] == beliefs[(src,)]
        baselines = [m.split("|", 1)[0] for m in sent]
        return len(baselines) != len(set(baselines))

    def test_enumerated_assessments(self):
        game = self._game(1)
        found = rv.enumerate_final_allocations(game)
        shared = 0
        for key, (fa, assessment) in found.items():
            shared += self._check_offpath_rule(assessment)
            assert check_continuation(game.env, assessment).passed
        # the grid has allocations with two on-path messages on one baseline
        assert len(found) == 25 and shared == 4

    def test_lift_then_collapse(self):
        game0, g_a = self._game(0), self._game(1)
        for key, (fa, assessment) in rv.enumerate_final_allocations(game0).items():
            lifted = rv.lift_to_limited(game0, assessment, g_a)
            self._check_offpath_rule(lifted)
            assert check_continuation(g_a.env, lifted).passed
            collapsed = rv.collapse_to_full(g_a, lifted, game0)
            rep = check_continuation(game0.env, collapsed)
            assert rep.passed
            assert rv.final_allocation_of(game0, rep.allocation).key() == key


class TestGammaEquality:
    def test_alpha_zero_trivially_equal(self):
        model = quadratic_model(types=TypeSpace.uniform_finite([0.0, 1.0]))
        rep = rv.check_gamma_equal(model, tuple(np.linspace(0, 1, 3)), 0)
        assert rep.equal and rep.transforms_ok

    def test_small_grid_equal_and_transforms(self):
        model = quadratic_model(types=TypeSpace.uniform_finite([0.0, 0.5, 1.0]))
        rep = rv.check_gamma_equal(model, tuple(np.linspace(0, 1, 5)), 1)
        assert rep.equal
        assert rep.transforms_ok
        assert rep.n_limited == rep.n_full > 0

    def test_dedicated_enumerator_matches_generic_engine(self):
        from contract_forge import contracts as ct
        from contract_forge import equilibrium as eq

        model = quadratic_model(types=TypeSpace.uniform_finite([0.0, 1.0]))
        game = rv.build_grid_game(model, tuple(np.linspace(0.0, 1.0, 3)), 1)
        dedicated = set(rv.enumerate_final_allocations(game))
        generic = set()
        n_x = len(game.x_values)
        for mask in range(1, 1 << n_x):
            menu = [f"b{i}" for i in range(n_x) if mask >> i & 1]
            mechs = (ct.menu_rec(game.env, 0, menu),)
            for fe in eq.enumerate_equilibria(
                game.env, mechs, eq.SearchOptions(policies=("selector",))
            ):
                generic.add(rv.final_allocation_of(game, fe.allocation).key())
        assert dedicated == generic


class TestClosedForms:
    def test_thresholds_at_zero_bias(self):
        t1, t2, valid = cf.ms_thresholds(0.0, 0.5)
        assert (t1, t2) == (0.0, pytest.approx(1.0 / 3.0))
        assert valid
        assert cf.ms_allocation(0.0, 0.5, 0.5) == pytest.approx(1.0 / 3.0)

    def test_thresholds_spec_point(self):
        t1, t2, valid = cf.ms_thresholds(0.2, 0.5)
        assert t1 == pytest.approx(0.26667, abs=1e-5)
        assert t2 == pytest.approx(0.6, abs=1e-12)
        assert valid

    def test_interior_band_is_identity(self):
        t1, t2, _ = cf.ms_thresholds(0.2, 0.5)
        for theta in np.linspace(t1, t2, 7):
            assert cf.ms_allocation(0.2, 0.5, float(theta)) == pytest.approx(theta)

    def test_allocation_monotone_and_clamped(self):
        thetas = np.linspace(0.0, 1.0, 101)
        zs = [cf.ms_allocation(0.2, 0.5, float(t)) for t in thetas]
        assert all(b >= a - 1e-12 for a, b in zip(zs, zs[1:]))
        t1, t2, _ = cf.ms_thresholds(0.2, 0.5)
        assert zs[0] == pytest.approx(t1)
        assert zs[-1] == pytest.approx(t2)

    def test_slope_domain(self):
        with pytest.raises(ValueError):
            cf.ms_thresholds(0.0, 1.5)

    def test_lift_check_passes(self):
        out = cf.ms_lift_check(0.2, 0.5, 0.3, theta_grid=21)
        assert out["worst_deviation"] <= out["scan_step"] + 1e-9


def _naive_final_allocation_keys(game, tol=1e-9):
    """Final-allocation keys in discovery order, one candidate at a time."""
    thetas = game.env.types.values
    mu = game.env.types.weights
    T = len(thetas)
    Z = np.array(game.z_values)
    u_tab = np.asarray(game.model.sender_fn(Z[:, None], thetas[None, :]), dtype=float)
    v_tab = np.asarray(game.model.receiver_fn(Z[:, None], thetas[None, :]), dtype=float)
    windows = [
        sorted({i for i, z in enumerate(Z) for r in game.rev_values if abs(x + r - z) <= 1e-9})
        for x in game.x_values
    ]
    keys = []
    for part in rv._partitions(list(range(T))):
        options = []
        for block in part:
            w = np.array([mu[t] if t in block else 0.0 for t in range(T)])
            vbar = v_tab @ (w / w.sum())
            options.append([
                (xi, zi) for xi, win in enumerate(windows) for zi in win
                if vbar[zi] >= max(vbar[w] for w in win) - tol
            ])
        for combo in itertools.product(*options):
            if len(set(combo)) != len(combo):
                continue
            z_of = {t: zi for block, (_, zi) in zip(part, combo) for t in block}
            used = {zi for _, zi in combo}
            if all(u_tab[z_of[t], t] >= max(u_tab[zi, t] for zi in used) - tol for t in range(T)):
                key = Allocation(
                    {game.env.types.labels[t]: ((float(Z[z_of[t]]), 1.0),) for t in range(T)}
                ).key()
                if key not in keys:
                    keys.append(key)
    return keys


@pytest.mark.parametrize("receiver", ["-(z - 0.05 - 0.7*theta)^2", "0*z*theta"])
def test_enumerator_matches_naive_loop(monkeypatch, receiver):
    """The flat receiver ties every final action of every window. The
    enumerator needs no concavity, so the model's audit is skipped to
    admit the flat receiver."""
    monkeypatch.setattr(rv, "audit_concavity", lambda model: None)
    model = rv.RevisableModel.additive(
        "-(z - theta)^2", receiver, TypeSpace.uniform_finite([0.0, 0.5, 1.0]), alpha=0.0
    )
    game = rv.build_grid_game(model, tuple(np.linspace(0.0, 1.0, 5)), 1)
    found = rv.enumerate_final_allocations(game)
    assert list(found) == _naive_final_allocation_keys(game)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.3, 0.2), (1000.0, 1000.3)])
@pytest.mark.parametrize("points", [2, 3, 5, 8])
def test_feasibility_by_index_matches_float_scan(lo, hi, points):
    """b_i + r_k lands on z_(i+k-2m): the pairs a scan of x + r against the grid finds."""
    model = quadratic_model(types=TypeSpace.uniform_finite([0.0, 1.0]))
    z = tuple(np.linspace(lo, hi, points))
    for m in range(points):
        game = rv.build_grid_game(model, z, m)
        scan = {
            f"b{i}": tuple(f"r{k}" for k, r in enumerate(game.rev_values) if any(abs(x + r - zv) <= 1e-9 for zv in z))
            for i, x in enumerate(game.x_values)
        }
        assert game.env.principals[0].feasible == scan


@pytest.mark.parametrize("hi, ok", [(4e-9, False), (2e-9 * 4 + 1e-12, True), (1e-8, True)])
def test_grid_step_must_exceed_twice_the_grid_tolerance(hi, ok):
    """At a step of 1e-9 neighbouring baselines matched one label."""
    model = quadratic_model(types=TypeSpace.uniform_finite([0.0, 1.0]))
    z = tuple(np.linspace(0.0, hi, 5))
    if not ok:
        with pytest.raises(ValueError, match="final-action grid step 1e-09 is not above 2 \\* GRID_TOL"):
            rv.build_grid_game(model, z, 1)
        return
    game = rv.build_grid_game(model, z, 1)
    assert [game.x_label(x) for x in game.x_values] == [f"b{i}" for i in range(len(game.x_values))]


def test_final_of_reads_the_grid():
    """b_i + r_k is z_(i+k-2m) itself, not a sum that may miss it by an ulp."""
    model = quadratic_model(types=TypeSpace.uniform_finite([0.0, 1.0]))
    z = tuple(np.linspace(0.1, 0.7, 7))
    game = rv.build_grid_game(model, z, 2)
    for x, ys in game.env.principals[0].feasible.items():
        for y in ys:
            assert game.final_of(x, y) in z
    with pytest.raises(KeyError, match="leaves the final-action grid"):
        game.final_of("b0", "r0")


def test_check_gamma_equal_work_counts(monkeypatch):
    """Two grid games per check, one payoff table per game environment,
    and every found, lifted and collapsed assessment checked once."""
    from contract_forge import env_core

    counts = {"build": 0, "payoff": 0, "check": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rv, "build_grid_game", counted("build", rv.build_grid_game))
    monkeypatch.setattr(rv, "check_continuation", counted("check", rv.check_continuation))
    monkeypatch.setattr(env_core, "payoff_u", counted("payoff", env_core.payoff_u))
    monkeypatch.setattr(env_core, "payoff_v", counted("payoff", env_core.payoff_v))
    rep = rv.check_gamma_equal(quadratic_model(), tuple(np.linspace(0.0, 1.0, 5)), 1)
    assert rep.equal and rep.transforms_ok and rep.n_full == 45
    # 5 types x (15 + 5 feasible pairs) x (agent + receiver) evaluations;
    # 45 allocations found in each model, each lifted or collapsed
    assert counts == {"build": 2, "payoff": 200, "check": 180}


def test_enumeration_cap_guard(monkeypatch):
    monkeypatch.setattr(rv, "_ENUMERATION_CAP", 1000)
    model = quadratic_model(
        types=TypeSpace.uniform_finite([i / 9 for i in range(10)])
    )
    game = rv.build_grid_game(model, tuple(np.linspace(0, 1, 9)), 1)
    with pytest.raises(ValueError, match="grid caps exceeded"):
        rv.enumerate_final_allocations(game)


from hypothesis import example, given, settings
from hypothesis import strategies as st


@given(
    z=st.floats(0.1, 20.0),
    r=st.floats(0.1, 20.0),
    lo=st.floats(0.3, 1.0),
    spread=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_proportional_endpoint_algebra(z, r, lo, spread):
    m = rv.RevisableModel(
        mode="proportional",
        sender=quadratic_model().sender,
        receiver=quadratic_model().receiver,
        types=TypeSpace.interval(0.0, 1.0),
        eta_lo=lo,
        eta_hi=lo + spread,
    )
    x, factor = rv.endpoint_baseline(m, z, r)
    assert x * factor == pytest.approx(z, rel=1e-12)
    assert m.eta_lo - 1e-12 <= factor <= m.eta_hi + 1e-12
    flo, fhi = rv.feasible_final_interval(m, x)
    assert flo - 1e-9 <= z <= fhi + 1e-9


@given(
    z=st.floats(-5.0, 5.0),
    r=st.floats(-5.0, 5.0),
    alpha=st.floats(0.0, 2.0),
)
@settings(max_examples=100, deadline=None)
@example(z=-3.157e-229, r=1e-12, alpha=1.0)  # a tie: z and r within the ideal's resolution
def test_additive_endpoint_algebra(z, r, alpha):
    m = quadratic_model(alpha=alpha)
    x, y = rv.endpoint_baseline(m, z, r)
    assert x + y == pytest.approx(z, abs=1e-9)
    assert abs(y) <= alpha + 1e-12
    # the target sits at an endpoint, or in the middle of the feasible interval on a tie
    flo, fhi = rv.feasible_final_interval(m, x)
    assert flo - 1e-9 <= z <= fhi + 1e-9
    tol = rv._ideal_tol(m)
    if z < r - tol:
        assert z == pytest.approx(fhi, abs=1e-9)
    elif z > r + tol:
        assert z == pytest.approx(flo, abs=1e-9)
    else:
        assert (x, y) == (z, 0.0)


def _product_filter_reference(game, tol):
    """The enumerator as it was before the block-by-block join, frozen: it
    filtered the whole product of the blocks' receiver-optimal pairs, in
    itertools.product order, in numpy batches of 1024 candidates. A first
    hit the checker rejects raises the enumerator's RuntimeError."""
    env = game.env
    labels = env.types.labels
    mu = env.types.weights
    T = len(labels)
    Z = np.array(game.z_values)
    m = game.alpha_steps
    reach = np.arange(len(game.x_values))[:, None] + np.arange(-2 * m, 1)
    on_grid = (reach >= 0) & (reach < len(Z))
    reach = np.where(on_grid, reach, -1)
    found = {}
    candidates = 0
    for part in rv._partitions(list(range(T))):
        block_of = np.array([next(b for b, blk in enumerate(part) if t in blk) for t in range(T)])
        pairs = []
        for block in part:
            w = np.array([mu[t] if t in block else 0.0 for t in range(T)])
            w = w / w.sum()
            vbar = game.v_tab @ w
            vals = np.where(on_grid, vbar[reach], -np.inf)
            xi, k = np.nonzero(on_grid & ~rv.beats(vals.max(axis=1)[:, None], vals, tol))
            pairs.append(np.stack([xi, reach[xi, k]], axis=1))
        shape = tuple(len(p) for p in pairs)
        size = math.prod(shape)
        candidates += size
        if candidates > rv._ENUMERATION_CAP:
            raise ValueError(
                f"grid caps exceeded: more than {rv._ENUMERATION_CAP} block-assignment candidates"
            )
        for start in range(0, size, 1024):
            pick = np.unravel_index(np.arange(start, min(start + 1024, size)), shape)
            combos = np.stack([p[i] for p, i in zip(pairs, pick)], axis=1)
            codes = np.sort(combos[..., 0] * len(Z) + combos[..., 1], axis=1)
            distinct = np.all(codes[:, 1:] != codes[:, :-1], axis=1)
            zs = combos[..., 1]
            own = game.u_tab[zs[:, block_of], np.arange(T)]
            keep = distinct & ~np.any(rv.beats(game.u_tab[zs].max(axis=1), own, tol), axis=1)
            for combo in combos[keep].tolist():
                z_of_type = tuple(combo[b][1] for b in block_of.tolist())
                if z_of_type in found:
                    continue
                assessment = rv._assessment_from_blocks(game, part, combo)
                report = rv.check_continuation(env, assessment, tol)
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


def _outcome(enumerate_fn, game, tol):
    """Keys in order and the repr of each (allocation, assessment), or the
    repr of the error raised (the cap, or a rejected equilibrium)."""
    try:
        found = enumerate_fn(game, tol)
    except (ValueError, RuntimeError) as e:
        return repr(e)
    return list(found), [repr(value) for value in found.values()]


@given(
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=5),
    points=st.integers(2, 7),
    alpha_steps=st.integers(0, 2),
    k=st.floats(0.0, 0.3),
    a=st.floats(0.4, 0.9),
    flat=st.booleans(),
    tol=st.sampled_from([1e-9, 0.0]),
)
@settings(max_examples=60, deadline=None)
@example(counts=[1, 1, 1], points=5, alpha_steps=1, k=0.05, a=0.7, flat=True, tol=0.0)
@example(counts=[1] * 5, points=5, alpha_steps=1, k=0.15, a=0.6, flat=False, tol=1e-9)
def test_join_equals_frozen_product_filter(counts, points, alpha_steps, k, a, flat, tol):
    """Same keys in the same order, the same first-hit assessments, and the
    same error where the cap or the checker stops both. Types are evenly
    spaced on [0, 1] with weights from ``counts``; the flat receiver ties
    every final action, with the concavity audit skipped; a cap of 50,000
    candidates keeps the reference's product filter quick."""
    types = TypeSpace.from_finite(
        [(f"t{i}", i / (len(counts) - 1), c / sum(counts)) for i, c in enumerate(counts)]
    )
    receiver = "0*z*theta" if flat else f"-(z - {k!r} - {a!r}*theta)^2"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rv, "audit_concavity", lambda model: None)
        mp.setattr(rv, "_ENUMERATION_CAP", 50_000)
        model = rv.RevisableModel.additive("-(z - theta)^2", receiver, types, alpha=0.0)
        game = rv.build_grid_game(model, tuple(np.linspace(0.0, 1.0, points)), alpha_steps)
        assert _outcome(rv.enumerate_final_allocations, game, tol) == _outcome(_product_filter_reference, game, tol)


@given(
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=5),
    points=st.integers(2, 7),
    alpha_steps=st.integers(0, 2),
    k=st.floats(0.0, 0.3),
    a=st.floats(0.4, 0.9),
)
@settings(max_examples=40, deadline=None)
@example(counts=[1, 2, 3, 1], points=4, alpha_steps=1, k=0.05, a=0.7)
def test_grid_games_enumerate_at_tol_zero(counts, points, alpha_steps, k, a):
    """Every first hit passes the checker at tol 0: its beliefs and the
    checker's posteriors come from one Bayes rule, so they agree bit for
    bit. At tol 0 the enumeration used to raise on many such games, the
    checker finding a Bayes gap of about 1e-16. Types are evenly spaced
    on [0, 1] with weights from ``counts``."""
    types = TypeSpace.from_finite(
        [(f"t{i}", i / (len(counts) - 1), c / sum(counts)) for i, c in enumerate(counts)]
    )
    model = rv.RevisableModel.additive(
        "-(z - theta)^2", f"-(z - {k!r} - {a!r}*theta)^2", types, alpha=0.0, z_range=(-1.0, 2.0)
    )
    game = rv.build_grid_game(model, tuple(np.linspace(0.0, 1.0, points)), alpha_steps)
    for _fa, assessment in rv.enumerate_final_allocations(game, 0.0).values():
        assert rv.check_continuation(game.env, assessment, 0.0).bayes_gap == 0.0


def test_grid_game_rejects_a_zero_weight_type():
    types = TypeSpace.from_finite([("t0", 0.0, 0.0), ("t1", 0.5, 0.5), ("t2", 1.0, 0.5)])
    assert rv.zero_weight_type(types)[0] == 0
    with pytest.raises(ValueError, match="type 't0' has weight 0"):
        rv.build_grid_game(quadratic_model(types=types), (0.0, 0.5, 1.0), 1)
