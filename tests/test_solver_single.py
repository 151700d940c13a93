import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contract_forge import contracts as ct
from contract_forge import env_core as ec
from contract_forge import equilibrium as eq
from contract_forge import solver_agency as sa
from contract_forge import solver_single as ss
from contract_forge.optimize import golden_rows


@pytest.fixture(scope="module")
def labor() -> ss.SingleProblem:
    return ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2")


@pytest.fixture(scope="module")
def labor_solution(labor):
    return ss.solve(labor)


class TestCutoff:
    def test_interior_matches_closed_form(self, labor):
        res = ss.cutoff(labor, 1.32, 1.99)
        assert res.kind == "interior"
        assert res.theta == pytest.approx(1.99**2 / 1.32, abs=1e-4)
        assert res.theta == pytest.approx(3.0001, abs=1e-3)

    def test_all_stay_when_intensity_zero(self, labor):
        assert ss.cutoff(labor, 1.0, 0.0).kind == "all-stay"

    def test_none_stay_without_compensation(self, labor):
        assert ss.cutoff(labor, -1.0, 1.0).kind == "none-stay"
        assert ss.cutoff(labor, 0.0, 1.0).kind == "none-stay"

    def test_interior_root_is_a_zero(self, labor):
        for x, y in [(1.0, 1.8), (1.5, 2.2), (2.0, 2.7)]:
            res = ss.cutoff(labor, x, y)
            if res.kind == "interior":
                assert abs(
                    float(labor.u_fn(x, y, np.array(res.theta)))
                ) <= 1e-8

    def test_closed_form_everywhere(self, labor):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = float(rng.uniform(0.3, 3.0))
            y = float(rng.uniform(0.0, 4.0))
            res = ss.cutoff(labor, x, y)
            t = y * y / x
            if t <= 3.0:
                assert res.kind == "all-stay"
            elif t >= 4.0:
                assert res.kind == "none-stay"
            else:
                assert res.theta == pytest.approx(t, abs=1e-10)

    def test_monotonicity_audit_error(self):
        bad = ss.SingleProblem(u="x - theta", v="y*theta")  # decreasing, positive at lo
        with pytest.raises(ss.MonotonicityError):
            ss.cutoff(bad, 5.0, 1.0)


def _counted(problem: ss.SingleProblem) -> list:
    """Count the agent-utility evaluations the kernel makes on ``problem``."""
    calls = []
    u_fn = problem.u_fn
    problem.u_fn = lambda *args: calls.append(1) or u_fn(*args)
    return calls


class TestKernel:
    """The participation kernel ``_profit`` and its bracketed root finder."""

    @given(x=st.floats(0.3, 3.0), t=st.floats(3.0, 4.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=80, deadline=None)
    def test_cutoff_matches_closed_form(self, labor, x, t):
        y = math.sqrt(x * t)
        for audit in (True, False):
            _, _, cut = ss._profit(labor, [x], [y], audit=audit)
            assert abs(cut[0] - y * y / x) <= 1e-12

    @pytest.mark.parametrize("audit", [True, False])
    def test_indifferent_type_stays(self, audit):
        # u = theta - 4 on [3, 5]: the type 4 is exactly indifferent
        p = ss.SingleProblem(u="x*theta - y^2", v="y*theta", types=ec.TypeSpace.interval(3.0, 5.0))
        _, stay, cut = ss._profit(p, [1.0], [2.0], audit=audit)
        assert cut[0] == 4.0
        assert stay[0] == pytest.approx(0.5, abs=1e-12)
        assert ss.cutoff(p, 1.0, 2.0) == ss.CutoffResult("interior", 4.0)

    @pytest.mark.parametrize("audit", [True, False])
    def test_all_stay_and_none_stay_rows(self, labor, audit):
        value, stay, cut = ss._profit(labor, [1.0, 1.0, 1.0], [0.0, 1.9, 3.0], audit=audit)
        assert cut[0] == 3.0 and stay[0] == pytest.approx(1.0, abs=1e-12)
        assert cut[1] == pytest.approx(1.9**2, abs=1e-12)
        assert stay[1] == pytest.approx(4.0 - 1.9**2, abs=1e-12)
        assert math.isnan(cut[2]) and stay[2] == 0.0 and value[2] == 0.0
        assert value[0] == pytest.approx(-1.0, abs=1e-12)  # v = -x^2 for everyone

    def test_smooth_rows_need_few_evaluations(self, labor):
        problem = ss.SingleProblem(u=labor.u, v=labor.v)
        calls = _counted(problem)
        rng = np.random.default_rng(5)
        X = rng.uniform(0.3, 3.0, 500)
        Y = np.sqrt(X * rng.uniform(3.0, 4.0, 500))
        _, _, cut = ss._profit(problem, X, Y, audit=False)
        assert np.max(np.abs(cut - Y * Y / X)) <= 1e-12
        assert len(calls) <= 10  # the end sweep plus the root steps

    @pytest.mark.parametrize(
        "u, max_calls",
        [
            ("min(x*theta - y^2, 2*(x*theta - y^2))", 20),  # kink at the root
            ("min(x*theta - y^2, 4*x - y^2 + 0.5*(theta - 4))", 8),  # kink beside it
        ],
    )
    def test_kinked_utility(self, u, max_calls):
        p = ss.SingleProblem(u=u, v="y*theta - x^2")
        rng = np.random.default_rng(6)
        X = rng.uniform(0.5, 2.0, 200)
        Y = np.sqrt(X * rng.uniform(3.05, 3.95, 200))
        calls = _counted(p)
        for audit in (True, False):
            calls.clear()
            _, _, cut = ss._profit(p, X, Y, audit=audit)
            assert np.max(np.abs(cut - Y * Y / X)) <= 1e-12
            assert len(calls) <= max_calls  # the sweep plus the root steps

    def test_finite_type_space(self):
        types = ec.TypeSpace.uniform_finite([3.0, 4.0, 5.0])
        p = ss.SingleProblem(u="x*theta - y^2", v="y*theta", types=types)
        y = math.sqrt(3.2)
        value, stay, cut = ss._profit(p, [1.0], [y])
        assert cut[0] == pytest.approx(3.2, abs=1e-12)
        assert ss.cutoff(p, 1.0, y).theta == pytest.approx(3.2, abs=1e-12)
        assert stay[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert value[0] == pytest.approx(y * (4.0 + 5.0) / 3.0, abs=1e-12)
        # u = theta - 4: the indifferent type 4 stays and is the exact cutoff
        value, stay, cut = ss._profit(p, [1.0], [2.0])
        assert cut[0] == 4.0
        assert stay[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestExpectedProfit:
    def test_profit_at_unit_offer(self, labor):
        # all stay at t = 3: (4-3) * (K(3) * sqrt(1) - 1)
        v = ss.expected_profit(labor, 1.0, math.sqrt(3.0))
        assert v == pytest.approx(5.0622, abs=1e-3)

    def test_none_stay_zero(self, labor):
        assert ss.expected_profit(labor, 0.0, 1.0) == 0.0

    def test_profit_at_optimum(self, labor):
        _, x_star, _ = ss.labor_profile(3.0)
        v = ss.expected_profit(labor, x_star, math.sqrt(3.0 * x_star))
        assert v == pytest.approx(5.2225, abs=1e-3)

    def test_matches_profit_formula_on_band(self, labor):
        # expected_profit(x, y(t)) equals (4 - t)(K(t) sqrt(x) - x^2)
        for x in (0.8, 1.3, 2.0):
            for t in (3.0, 3.25, 3.5, 3.75, 3.9):
                K = math.sqrt(t) * (t + 4.0) / 2.0
                y = math.sqrt(x * t)
                want = (4.0 - t) * (K * math.sqrt(x) - x * x)
                assert ss.expected_profit(labor, x, y) == pytest.approx(want, abs=1e-6)


class TestSolve:
    def test_labor_optimum(self, labor_solution):
        r = labor_solution
        assert r.x == pytest.approx(1.3193, abs=1e-3)
        assert r.y == pytest.approx(1.9895, abs=1e-3)
        assert r.y**2 / r.x == pytest.approx(3.0, abs=1e-4)
        assert r.value == pytest.approx(5.2225, abs=1e-3)
        assert r.stay_prob == pytest.approx(1.0, abs=1e-9)

    def test_no_trade_when_value_negative(self):
        p = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="0 - 1")
        r = ss.solve(p)
        assert r.no_trade
        assert r.value == 0.0
        assert r.x is None

    def test_density_the_kernel_cannot_integrate_is_rejected(self):
        narrow = ec.TypeSpace.interval(3.0, 4.0, density="normal", mean=3.5, sd=0.002)
        with pytest.raises(ValueError, match="density integrates to 0.828462937177.* at 256 panels"):
            ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2", types=narrow)

    def test_scaled_family_matches_base(self, labor_solution):
        p = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="1*y*theta - x^2")
        r = ss.solve(p)
        assert r.x == pytest.approx(labor_solution.x, abs=1e-6)

    def test_solver_dominates_audit_grid(self, labor, labor_solution):
        xs = np.linspace(labor.x_box[0], labor.x_box[1], 64)
        ys = np.linspace(labor.y_box[0], labor.y_box[1], 64)
        grid = ss._profit_grid(labor, xs, ys)
        assert labor_solution.value >= float(np.max(grid)) - 1e-9

    def test_zoom_agrees_with_solve(self, labor, labor_solution):
        (value,), (x,), (y,) = ss.zoom_solve(labor)
        assert value == pytest.approx(labor_solution.value, abs=1e-6)
        assert x == pytest.approx(labor_solution.x, abs=1e-3)


def _grid_bracket(problem: ss.SingleProblem, x: float) -> tuple[float, float, float]:
    """The y-grid's bracket [a, b] around its best point, and that point's value."""
    ys = np.linspace(problem.y_box[0], problem.y_box[1], problem.y_grid)
    grid = ss._profit_grid(problem, np.array([x]), ys)[0]
    i = int(np.argmax(grid))
    return ys[max(i - 1, 0)], ys[min(i + 1, ys.size - 1)], float(grid[i])


def _golden_inner(problem: ss.SingleProblem, x: float) -> float:
    """The inner value by golden section on the grid bracket alone, with
    the audited re-evaluation kept only when it beats the grid value: the
    search ``_inner_rows`` ran before it solved for the participation kink."""
    a, b, grid_value = _grid_bracket(problem, x)
    y = golden_rows(
        lambda _, yk: ss._profit(problem, np.full(yk.size, x), yk, audit=False)[0], a, b, problem.opt_tol
    )
    return max(float(ss._profit(problem, [x], y)[0][0]), grid_value)


def _dense_bracket(problem: ss.SingleProblem, x: float, n: int = 4001) -> tuple[float, float]:
    """The best audited value on an n-point grid over the grid bracket,
    and a bound on how far the bracket's supremum can lie from it: twice
    the largest step between neighbouring grid values."""
    a, b, _ = _grid_bracket(problem, x)
    f = ss._profit(problem, np.full(n, x), np.linspace(a, b, n))[0]
    return float(np.max(f)), 2.0 * float(np.max(np.abs(np.diff(f))))


class TestInnerRows:
    @given(
        family=st.sampled_from(["labor", "agency", "finite"]),
        x=st.floats(0.2, 3.5),
        rival=st.floats(0.0, 4.0),
        beta=st.floats(0.3, 0.9),
        gap=st.floats(0.001, 0.3),
        low_weight=st.floats(0.01, 0.3),
        y_lo=st.floats(0.0, 2.0),
        width=st.floats(2.0, 5.0),
        y_grid=st.integers(8, 64),
    )
    # an interior optimum a grid step past the kink, where y_k is not the peak
    @example(family="labor", x=3.1127109921462273, rival=0.0, beta=0.5, gap=0.1, low_weight=0.1,
             y_lo=1.0640221437690411, width=3.089129954713441, y_grid=9)
    @example(family="agency", x=3.4952443391506236, rival=0.3916822445845134, beta=0.5983404905276557,
             gap=0.1, low_weight=0.1, y_lo=1.0264751101374088, width=4.373023572076404, y_grid=20)
    # a light low type just below a heavy one: the heavy type's drop in the
    # kink's bracket beats the kink (4.16 against 4.01)
    @example(family="finite", x=1.8921037867648574, rival=0.0, beta=0.5, gap=0.18469760083775,
             low_weight=0.018225955882921106, y_lo=0.03198345904714395, width=4.273853007069285, y_grid=37)
    @settings(max_examples=60, deadline=None)
    def test_kink_rule_never_loses_to_golden_section(self, family, x, rival, beta, gap, low_weight, y_lo, width, y_grid):
        # the worked labor and agency families, and the labor payoffs over
        # two finite types; the y-box and grid size set the bracket that the
        # kink rule and golden section refine
        box = {"y_box": (y_lo, y_lo + width), "y_grid": y_grid}
        if family == "agency":
            family = sa.AgencyProblem(
                beta=beta,
                agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
                principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
            )
            problem = dataclasses.replace(sa.bilateral_reduce(family, 0, rival), **box)
        else:
            types = {}
            if family == "finite":
                types["types"] = ec.TypeSpace.from_finite([("a", 3.0, low_weight), ("b", 3.0 + gap, 1.0 - low_weight)])
            problem = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2", **types, **box)
        (value,), _ = ss._inner_rows(problem, np.array([x]))
        golden = _golden_inner(problem, x)
        assert value >= golden - 1e-12 * max(1.0, abs(golden))
        if problem.types.kind == "interval":  # finite types' drops break unimodality
            best, slack = _dense_bracket(problem, x)
            for found in (value, golden):
                assert best - slack <= found <= best + slack


class TestLaborProfile:
    def test_point_values(self):
        K, x, value = ss.labor_profile(3.0)
        assert K == pytest.approx(math.sqrt(3.0) * 7.0 / 2.0, abs=1e-12)
        assert x == pytest.approx((K / 4.0) ** (2.0 / 3.0), abs=1e-12)
        assert value == pytest.approx(5.2225, abs=1e-3)

    def test_boundary_factor_vanishes(self):
        K, x, value = ss.labor_profile(3.999999)
        assert value == pytest.approx(0.0, abs=1e-4)
        with pytest.raises(ValueError):
            ss.labor_profile(4.0)

    def test_cutoff_three_is_best(self):
        ts = np.linspace(3.0, 4.0, 200, endpoint=False)
        values = [ss.labor_profile(float(t))[2] for t in ts]
        assert int(np.argmax(values)) == 0


class TestRentProbe:
    @pytest.fixture
    def probe_problem(self):
        return ss.SingleProblem(u="x*theta - y^2", v="y*theta")

    def test_fixture_values(self, probe_problem):
        belief = ec.Belief.from_typespace(ec.TypeSpace.interval(3.0, 4.0))
        res = ss.rent_probe(probe_problem, 1.0, 1.5, belief, steps=(0.1, 0.2))
        assert res.success
        assert res.kappa == pytest.approx(0.75, abs=1e-9)
        assert res.step == pytest.approx(0.1)
        assert res.improvement == pytest.approx(5.6 - 5.25, abs=1e-9)

    def test_binding_type_rejected(self, probe_problem):
        belief = ec.Belief.from_typespace(ec.TypeSpace.interval(3.0, 4.0))
        # y^2 = 3x makes the lowest type exactly indifferent: kappa = 0
        with pytest.raises(ValueError, match="common slack"):
            ss.rent_probe(probe_problem, 1.0, math.sqrt(3.0), belief)

    def test_wrong_monotonicity_rejected(self):
        p = ss.SingleProblem(u="x*theta - y^2", v="0 - y*theta")
        belief = ec.Belief.from_typespace(ec.TypeSpace.interval(3.0, 4.0))
        with pytest.raises(ss.MonotonicityError):
            ss.rent_probe(p, 1.0, 1.5, belief)

    @given(
        x=st.floats(0.8, 2.5),
        y_frac=st.floats(0.0, 0.9),
        lo=st.floats(3.0, 3.4),
        width=st.floats(0.2, 0.6),
    )
    @settings(max_examples=60, deadline=None)
    def test_succeeds_whenever_slack_exceeds_point_one(self, x, y_frac, lo, width):
        p = ss.SingleProblem(u="x*theta - y^2", v="y*theta")
        belief = ec.Belief.from_typespace(
            ec.TypeSpace.interval(lo, lo + width, grid_points=65)
        )
        y = y_frac * math.sqrt(x * lo)
        kappa = x * lo - y * y
        if kappa < 0.1:
            return
        res = ss.rent_probe(
            p, x, y, belief, steps=tuple(0.1 * 0.5**k for k in range(12))
        )
        assert res.success
        assert res.improvement > 0.0


class TestSingleCrossingAudit:
    def test_labor_family_passes(self):
        rep = ss.single_crossing_audit(
            "(x*theta - y^2)/sqrt(theta)",
            (1.0, 1.0),
            (2.0, 2.0),
            np.linspace(3.0, 4.0, 65),
        )
        assert rep.passed

    def test_equal_pairs_degenerate(self):
        rep = ss.single_crossing_audit(
            "(x*theta - y^2)/sqrt(theta)",
            (1.0, 1.0),
            (1.0, 1.0),
            np.linspace(3.0, 4.0, 65),
        )
        assert rep.degenerate_equal

    def test_double_crossing_fails(self):
        # difference sin-like in theta: two sign changes on the grid
        rep = ss.single_crossing_audit(
            lambda x, y, th: x * (th - 3.2) * (th - 3.8),
            (1.0, 0.0),
            (0.0, 0.0),
            np.linspace(3.0, 4.0, 65),
        )
        assert not rep.passed


class TestMenuDominance:
    def test_best_menu_equilibrium_below_single_offer(self):
        """Finite menus with recommendations cannot beat the best single offer."""
        types = ec.TypeSpace.uniform_finite([3.0, 3.5, 4.0])
        y_grid = [0.0, 1.0, 1.9, 2.4]
        spec = ec.PrincipalSpec(
            contractible=(ec.ActionValue("x1", 1.0), ec.ActionValue("x2", 1.8)),
            noncontractible=tuple(
                ec.ActionValue(f"y{i}", v) for i, v in enumerate(y_grid)
            ),
            feasible={
                "x1": tuple(f"y{i}" for i in range(len(y_grid))),
                "x2": tuple(f"y{i}" for i in range(len(y_grid))),
            },
        )
        env = ec.Environment(
            types=types,
            principals=(spec,),
            payoffs=ec.PayoffModel.from_expressions(
                "(x*theta - y^2)/sqrt(theta)", ["y*theta - x^2"]
            ),
        )
        problem = ss.SingleProblem(
            u="(x*theta - y^2)/sqrt(theta)",
            v="y*theta - x^2",
            types=types,
            x_box=(0.0, 3.0),
            y_box=(0.0, 3.0),
        )
        single = ss.solve(problem)
        best = -math.inf
        for menu in (["x1"], ["x2"], ["x1", "x2"]):
            mech = ct.menu_rec(env, 0, menu)
            for fe in eq.enumerate_equilibria(
                env, (mech,), eq.SearchOptions(policies=("prior",))
            ):
                best = max(best, fe.values[0])
        assert best <= single.value + 1e-9
