import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contract_forge import cli
from contract_forge import env_core as ec
from contract_forge import solver_agency as sa
from contract_forge import solver_single as ss

import closed_forms as cf

BETA = 17.0 / 21.0
_CURVE_OFFERS = [0.5 * i for i in range(9)]  # solve-agency's curve on the default x_box


def _worked_family(beta: float) -> sa.AgencyProblem:
    return sa.AgencyProblem(
        beta=beta,
        agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
        principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
    )


@pytest.fixture(scope="module")
def worked() -> sa.AgencyProblem:
    return sa.AgencyProblem(
        beta=BETA,
        agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
        principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
    )


@pytest.fixture(scope="module")
def equilibrium(worked) -> sa.AgencyEquilibrium:
    return sa.fixed_point(worked)


class TestBilateralReduce:
    def test_beta_zero_is_base_problem(self):
        problem = sa.AgencyProblem(
            beta=0.0,
            agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
            principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
        )
        slice0 = sa.bilateral_reduce(problem, 0, 3.0)
        base = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2")
        for x, y in [(1.0, 1.5), (2.0, 2.0)]:
            assert ss.expected_profit(slice0, x, y) == pytest.approx(
                ss.expected_profit(base, x, y), abs=1e-12
            )

    def test_interaction_scales_profit(self, worked):
        # A = 1 + beta * 3 = 24/7 at a frozen rival offer of 3
        s = sa.bilateral_reduce(worked, 0, 3.0)
        base = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2")
        A = 1.0 + BETA * 3.0
        assert A == pytest.approx(24.0 / 7.0)
        x, y = 1.0, 1.5
        lifted = ss.expected_profit(s, x, y)
        plain = ss.expected_profit(base, x, y)
        # v = A*y*theta - x^2: lifted = A*(plain + x^2) - x^2 on the all-stay branch
        assert lifted == pytest.approx(A * (plain + x * x) - x * x, abs=1e-9)

    def test_density_is_checked_at_full_resolution(self):
        normal = ec.TypeSpace.interval(3.0, 4.0, density="normal", mean=3.5, sd=0.4)
        problem = dataclasses.replace(_worked_family(BETA), types=normal)
        # 96 panels integrate it to 1 + 2.1e-9, outside the 1e-9 of the
        # check, but the coarse slice only steers the best responses
        coarse = sa.bilateral_reduce(problem, 0, 3.0, fast=True)
        assert (coarse.panels, coarse.y_grid) == (96, 64)
        narrow = ec.TypeSpace.interval(3.0, 4.0, density="normal", mean=3.5, sd=0.002)
        with pytest.raises(ec.DensityError, match="0.828462937177.* at 256 panels"):
            dataclasses.replace(problem, types=narrow)

    def test_slices_take_each_principals_quadrature(self, worked):
        kinked = dataclasses.replace(
            worked, principal_payoffs=(worked.principal_payoffs[0], "(1 + beta*x_other)*y*abs(theta - 3.37) - x^2")
        )
        assert worked.gauss == (ss._GL_NODES, ss._GL_NODES) and worked.symmetric
        assert kinked.gauss == (ss._GL_NODES, 0) and not kinked.symmetric
        for fast in (False, True):
            assert [sa.bilateral_reduce(kinked, j, 1.0, fast).gauss for j in (0, 1)] == [ss._GL_NODES, 0]
        # a callable payoff keeps Simpson's rule
        v = lambda x, y, x_other, theta, beta: (1 + beta * x_other) * y * theta - x * x
        assert dataclasses.replace(worked, principal_payoffs=(v, v)).gauss == (0, 0)

    def test_zero_rival_offer_neutral(self, worked):
        s = sa.bilateral_reduce(worked, 1, 0.0)
        base = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2")
        assert ss.expected_profit(s, 1.3, 1.9) == pytest.approx(
            ss.expected_profit(base, 1.3, 1.9), abs=1e-12
        )


class TestBestResponse:
    def test_closed_form_fixed_point_exact(self):
        assert cf.worked_family_best_response(BETA, 3.0) == pytest.approx(
            3.0, abs=1e-9
        )

    def test_decoupled_reduces_to_single(self, worked):
        x = sa.best_response(worked, 0, 0.0)
        assert x == pytest.approx(1.3193, abs=1e-3)

    def test_numeric_matches_closed_form(self, worked):
        for xo in (0.0, 1.0, 2.0, 3.0):
            x = sa.best_response(worked, 0, xo)
            assert x == pytest.approx(
                cf.worked_family_best_response(BETA, xo), abs=1e-3
            )

    def test_half_grid_matches_closed_form(self, worked):
        for xo in np.arange(0.0, 3.01, 0.5):
            x = sa.best_response(worked, 0, float(xo))
            assert x == pytest.approx(
                cf.worked_family_best_response(BETA, float(xo)), abs=1e-3
            )


class TestBatchedBestResponse:
    """One zoomed pass over many rival offers answers as the per-offer calls do."""

    @given(
        beta=st.floats(0.3, 0.9),
        offers=st.lists(st.sampled_from([0.0, 5.0]) | st.floats(0.0, 5.0), min_size=1, max_size=4),
    )
    @example(beta=BETA, offers=[0.0, 5.0, 0.0, 2.5])
    @settings(max_examples=6, deadline=None)
    def test_batch_equals_per_offer_calls(self, beta, offers):
        problem = _worked_family(beta)
        batch = sa.best_response(problem, 0, offers)
        assert batch.shape == (len(offers),)
        for xo, got in zip(offers, batch):
            assert got == sa.best_response(problem, 0, xo)

    def test_rival_without_finite_value_stops_alone(self):
        # v is nan for rival offers below 1, so those rivals stop at stage 1
        problem = sa.AgencyProblem(
            beta=0.5,
            agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
            principal_payoffs=("sqrt(x_other - 1)*y*theta - x^2",) * 2,
        )
        offers = [0.0, 2.0, 0.5, 3.0]
        batch = ss.zoom_solve(sa.bilateral_reduce(problem, 0, offers, fast=True))
        assert list(np.isfinite(batch[0])) == [False, True, False, True]
        for k, xo in enumerate(offers):
            alone = ss.zoom_solve(sa.bilateral_reduce(problem, 0, xo, fast=True))
            assert [part[k] for part in batch] == [part[0] for part in alone]

    def test_slice_records_rival_count(self, worked):
        assert sa.bilateral_reduce(worked, 0, 1.0).rivals == 1
        assert sa.bilateral_reduce(worked, 0, [1.0]).rivals == 1
        assert sa.bilateral_reduce(worked, 0, np.array([0.0, 1.0, 2.0])).rivals == 3

    def test_scalar_call_answers_with_floats(self, worked):
        assert type(sa.best_response(worked, 0, 1.0)) is float

    def test_chunks_inside_a_rival_mesh_do_not_change_grid(self, worked):
        # the batched mesh is one kernel call; its Gauss pass takes
        # _WORKSPACE // 16 = 4,096 rows at a time (a Simpson pass at full
        # panels _WORKSPACE // 257 = 255) and its sweep _WORKSPACE // 33 =
        # 1,985, while each rival has 31 x 256 = 7,936 rows, a multiple of
        # none, so chunk boundaries fall inside a rival's mesh
        offers = [0.0, 1.5, 3.0]
        batched = sa.bilateral_reduce(worked, 0, offers)
        xs = np.linspace(0.5, 4.5, 31)
        ys = np.linspace(0.0, 5.0, 256)
        assert batched.gauss == ss._GL_NODES
        for nodes in (batched.gauss, batched.panels + 1, 33):
            step = ss._WORKSPACE // nodes
            assert step < xs.size * ys.size and (xs.size * ys.size) % step
        grid = ss._profit_grid(batched, np.tile(xs, 3), ys, np.repeat(np.arange(3), xs.size))
        for k, xo in enumerate(offers):
            alone = ss._profit_grid(sa.bilateral_reduce(worked, 0, xo), xs, ys, np.zeros(xs.size, int))
            assert np.array_equal(grid[k * xs.size : (k + 1) * xs.size], alone)


@pytest.fixture(scope="module")
def fixture_run():
    """One ``cli.run`` of the bundled agency fixture, counting kernel passes
    (``_inner_rows`` calls), ``_profit`` kernel calls, ``root_rows`` calls
    and the (x, y) mesh cells the y-grid scans evaluate, and recording
    every best-response call."""
    seen = {"inner_rows": 0, "profit": 0, "roots": 0, "cells": 0, "best_response": []}
    inner_rows, profit, best_response = ss._inner_rows, ss._profit, sa.best_response
    profit_grid, root_rows = ss._profit_grid, ss.root_rows

    def counted(*args, **kwargs):
        seen["inner_rows"] += 1
        return inner_rows(*args, **kwargs)

    def counted_profit(*args, **kwargs):
        seen["profit"] += 1
        return profit(*args, **kwargs)

    def counted_roots(*args, **kwargs):
        seen["roots"] += 1
        return root_rows(*args, **kwargs)

    def counted_cells(problem, xs, ys, r=None):
        seen["cells"] += len(xs) * np.shape(ys)[-1]
        return profit_grid(problem, xs, ys, r)

    def recorded(problem, j, x_other):
        answer = best_response(problem, j, x_other)
        seen["best_response"].append((j, x_other, answer))
        return answer

    path = resources.files("contract_forge") / "fixtures" / "agency_beta17_21.json"
    with pytest.MonkeyPatch.context() as mp:
        for module in (ss, sa):
            mp.setattr(module, "_inner_rows", counted)
        mp.setattr(ss, "_profit", counted_profit)
        mp.setattr(ss, "_profit_grid", counted_cells)
        mp.setattr(ss, "root_rows", counted_roots)
        mp.setattr(sa, "best_response", recorded)
        report = cli.run(cli.parse_scenario(str(path)))
    return report, seen


class TestAgencyRun:
    def test_kernel_pass_count(self, fixture_run):
        # one batched curve pass and 5 fixed-point best responses (the
        # curve answers the start's rival offer 0), 4 zoom stages each, one
        # reported pair (symmetric, x1 == x2), one menu
        _, seen = fixture_run
        assert seen["inner_rows"] == 26
        # most inner optima sit on the participation kink, found as a root
        # of the lowest type's utility; the line search steps the other rows
        # in lockstep, Brent's method in 10 or 31 steps where golden section
        # took 36 (241 calls then; 328 when each golden step count took its
        # own pass, 293 with the start's response solved apart from the
        # curve). Each y-scan pass is one kernel call for every rival (210
        # calls when a pass made one per rival). The 121 kernel calls with
        # interior cutoffs solve them in one root call each, and each of the
        # 26 passes solves its kinks in one (211 with a call per rival)
        assert seen["profit"] == 146
        assert seen["roots"] == 147

    def test_mesh_cells(self, fixture_run):
        # the strided y-scan: 2,400 coarse-slice rows at 17 + 6 of 64 points
        # and 7 full-resolution rows at 17 + 30 of 256 (each window reads
        # three points from the coarse pass), against 186,112 cells for the
        # full grid
        _, seen = fixture_run
        assert seen["cells"] <= 62_153

    def test_curve_is_one_batch_agreeing_with_fixed_point(self, fixture_run, worked):
        report, seen = fixture_run
        (j, curve_offers, curve), *iteration = seen["best_response"]
        assert j == 0 and list(curve_offers) == _CURVE_OFFERS
        # the iteration asked for no offer the curve answered (the problem
        # is symmetric, so neither principal did), the start's 0 included
        assert iteration and not {xo for _, xo, _ in iteration} & set(curve_offers)
        assert curve[0] == sa.best_response(worked, 0, 0.0)
        rows = dict(report.tables["best_response"][1])
        assert list(rows.values()) == list(curve)


def test_offers_apart_are_answered_in_one_pass(tmp_path, monkeypatch):
    """From the start (1.0, 0.5) the fixture's offers differ at every
    iterate, so each iteration answers both principals with one batched
    call: the 9-offer curve, then 5 calls of 2 offers (10 calls of one
    offer when each principal took its own pass)."""
    sizes = []
    best_response = sa.best_response

    def recorded(problem, j, x_other):
        sizes.append(np.size(x_other))
        return best_response(problem, j, x_other)

    monkeypatch.setattr(sa, "best_response", recorded)
    doc = json.loads((resources.files("contract_forge") / "fixtures" / "agency_beta17_21.json").read_text())
    doc["agency"]["start"] = [1.0, 0.5]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    report = cli.run(cli.parse_scenario(str(path)))
    assert report.exit_code == 0
    assert sizes == [9] + [2] * 5


class TestFixedPoint:
    def test_symmetric_equilibrium(self, equilibrium):
        assert equilibrium.converged
        assert equilibrium.x[0] == pytest.approx(3.0, abs=1e-3)
        assert equilibrium.x[1] == pytest.approx(3.0, abs=1e-3)
        assert equilibrium.y[0] == pytest.approx(3.0, abs=1e-3)
        assert equilibrium.cutoffs[0] == pytest.approx(3.0, abs=1e-4)
        assert equilibrium.cutoffs[1] == pytest.approx(3.0, abs=1e-4)

    def test_residual_meets_tolerance(self, worked, equilibrium):
        assert equilibrium.residual <= sa._FP_TOL
        # re-evaluating the best response at the fixed point reproduces it
        for j in (0, 1):
            br = sa.best_response(worked, j, equilibrium.x[1 - j])
            assert br == pytest.approx(equilibrium.x[j], abs=1e-3)

    def test_beta_zero_decouples(self):
        problem = sa.AgencyProblem(
            beta=0.0,
            agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
            principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
        )
        eqm = sa.fixed_point(problem)
        assert eqm.x[0] == pytest.approx(1.3193, abs=1e-3)
        assert eqm.x[1] == pytest.approx(1.3193, abs=1e-3)

    def test_start_at_fixed_point_residual_zero(self, worked, equilibrium):
        eqm2 = sa.fixed_point(worked, start=equilibrium.x)
        assert eqm2.iterations == 0
        assert eqm2.residual <= sa._FP_TOL

    def test_nonconvergence_reports_trajectory(self, worked, monkeypatch):
        monkeypatch.setattr(sa, "_MAX_ITER", 2)
        with pytest.raises(RuntimeError, match="did not converge in 2 steps.*trajectory tail"):
            sa.fixed_point(worked)

    def test_fixture_converges_in_few_iterations(self, equilibrium):
        assert equilibrium.iterations <= 8
        assert len(equilibrium.trajectory) == equilibrium.iterations + 1

    @pytest.mark.parametrize("beta", [0.3, 0.4, 0.6, BETA, 0.8, 0.9])
    def test_worked_family_root_and_solved_pairs(self, beta):
        problem = sa.AgencyProblem(
            beta=beta,
            agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
            principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
        )
        eqm = sa.fixed_point(problem)
        root = _closed_form_root(beta)
        for j in (0, 1):
            assert abs(eqm.x[j] - root) <= 1e-3
            # participation binds at the lowest type: y = sqrt(3 x), cutoff 3
            assert abs(eqm.y[j] - math.sqrt(3.0 * eqm.x[j])) <= 1e-9
            assert abs(eqm.cutoffs[j] - 3.0) <= 1e-9


_COORD = st.sampled_from(_CURVE_OFFERS) | st.floats(0.0, 5.0)


class TestSeededFixedPoint:
    """Best responses handed to ``fixed_point`` leave its result unchanged."""

    @given(beta=st.floats(0.3, 0.9), start=st.tuples(_COORD, _COORD), symmetric=st.booleans())
    @example(beta=BETA, start=(0.0, 0.0), symmetric=True)
    @example(beta=0.45, start=(0.0, 0.0), symmetric=False)
    @example(beta=0.6, start=(1.5, 2.7), symmetric=False)
    @settings(max_examples=4, deadline=None)
    def test_seeded_equals_unseeded(self, beta, start, symmetric):
        problem = _worked_family(beta)
        if not symmetric:  # principal 2 pays 1.2 x^2
            problem = dataclasses.replace(
                problem, principal_payoffs=(problem.principal_payoffs[0], "(1 + beta*x_other)*y*theta - 1.2*x^2")
            )
        curve = sa.best_response(problem, 0, _CURVE_OFFERS)
        seeded = sa.fixed_point(problem, start, dict(zip(_CURVE_OFFERS, curve.tolist())))
        plain = sa.fixed_point(problem, start)
        for name in plain.__slots__:
            assert getattr(seeded, name) == getattr(plain, name), name


class TestQuadratureCheck:
    def test_equilibrium_reports_its_quadrature(self, equilibrium):
        assert equilibrium.gauss == (ss._GL_NODES, ss._GL_NODES)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_failed_check_reruns_on_simpson(self, worked, monkeypatch, symmetric):
        problem = worked if symmetric else dataclasses.replace(
            worked, principal_payoffs=(worked.principal_payoffs[0], "(1 + beta*x_other)*y*theta - 1.2*x^2")
        )
        monkeypatch.setattr(ss, "_CHECK_TOL", -1.0)  # every Gauss pair fails its check
        curve = sa.best_response(problem, 0, _CURVE_OFFERS)
        eqm = sa.fixed_point(problem, responses=dict(zip(_CURVE_OFFERS, curve.tolist())))
        assert eqm == sa.fixed_point(ss.with_gauss(problem, (0, 0)))
        assert eqm.gauss == (0, 0)

    def test_menus_are_valued_on_the_equilibriums_quadrature(self, worked, equilibrium, monkeypatch):
        seen, reduce = [], sa.bilateral_reduce

        def recorded(problem, *args, **kwargs):
            seen.append(problem.gauss)
            return reduce(problem, *args, **kwargs)

        monkeypatch.setattr(sa, "bilateral_reduce", recorded)
        menus = {0: [[1.0, 2.0, 3.0]], 1: [[2.0, 4.0]]}
        for gauss in ((0, 0), (ss._GL_NODES, 0)):
            seen.clear()
            sa.robustness_check(worked, dataclasses.replace(equilibrium, gauss=gauss), menus)
            assert seen == [gauss, gauss]


def _closed_form_root(beta: float) -> float:
    """Positive root of x = worked_family_best_response(beta, x), by bisection."""
    lo, hi = 0.0, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cf.worked_family_best_response(beta, mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCutoffValueShape:
    def test_numerator_at_three(self):
        factor, num = cf.cutoff_value_shape(3.0)
        assert num == pytest.approx(-37.0)
        assert factor == pytest.approx(1.0 * 3 ** (2 / 3) * 7 ** (4 / 3))

    def test_factor_vanishes_at_four(self):
        factor, _ = cf.cutoff_value_shape(3.9999999)
        assert factor == pytest.approx(0.0, abs=1e-4)
        with pytest.raises(ValueError):
            cf.cutoff_value_shape(4.0)

    def test_negative_numerator_and_argmax_on_grid(self):
        ts = np.linspace(3.0, 4.0, 1002)[:-1]
        factors = []
        for t in ts:
            factor, num = cf.cutoff_value_shape(float(t))
            assert num < 0.0
            factors.append(factor)
        assert int(np.argmax(factors)) == 0


class TestRobustnessCheck:
    def test_own_offer_menu_no_gain(self, worked, equilibrium):
        ok, findings = sa.robustness_check(
            worked, equilibrium, {0: [[equilibrium.x[0]]]}
        )
        assert ok
        assert findings[0].deviation_value == pytest.approx(
            equilibrium.values[0], abs=1e-6
        )

    def test_grid_menu_no_safe_deviation(self, worked, equilibrium):
        menu = list(np.linspace(0.0, 5.0, 21))
        ok, findings = sa.robustness_check(worked, equilibrium, {0: [menu], 1: [menu]})
        assert ok
        f = findings[0]
        assert f.best_offer == pytest.approx(3.0, abs=0.26)
        assert f.deviation_value <= equilibrium.values[0] + 1e-6

    def test_menu_bound_is_best_inner_value(self, worked, equilibrium):
        menu = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        _, findings = sa.robustness_check(worked, equilibrium, {1: [menu]})
        single = sa.bilateral_reduce(worked, 1, equilibrium.x[0])
        per_offer = [max(float(ss._inner_rows(single, np.array([x]))[0][0]), 0.0) for x in menu]
        assert findings[0].deviation_value == pytest.approx(max(per_offer), abs=1e-9)
        assert findings[0].best_offer == menu[int(np.argmax(per_offer))]

    def test_decoupled_menu_bounded_by_single_optimum(self):
        problem = sa.AgencyProblem(
            beta=0.0,
            agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
            principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
        )
        eqm = sa.fixed_point(problem)
        menu = list(np.linspace(0.0, 5.0, 11))
        ok, findings = sa.robustness_check(problem, eqm, {0: [menu]})
        assert ok
        _, _, single_value = cf.labor_profile(3.0)
        assert findings[0].deviation_value <= single_value + 1e-3


class TestBilateralProfitFormula:
    def test_scaled_cutoff_profit_identity(self, worked):
        """Bilateral expected profit matches (4-t)(A K(t) sqrt(x) - x^2)."""
        for x_other in (0.0, 1.5, 3.0):
            A = 1.0 + BETA * x_other
            single = sa.bilateral_reduce(worked, 0, x_other)
            for x in (0.9, 1.8):
                for t in (3.0, 3.4, 3.8):
                    K = math.sqrt(t) * (t + 4.0) / 2.0
                    y = math.sqrt(x * t)
                    want = (4.0 - t) * (A * K * math.sqrt(x) - x * x)
                    got = ss.expected_profit(single, x, y)
                    assert got == pytest.approx(want, abs=1e-6)
