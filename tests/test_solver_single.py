import copy
import dataclasses
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contract_forge import contracts as ct
from contract_forge import env_core as ec
from contract_forge import exprlang as el
from contract_forge import equilibrium as eq
from contract_forge import solver_agency as sa
from contract_forge import solver_single as ss

import closed_forms as cf
from golden_section_reference import golden_rows_reference
from kernel_reference import profit_reference, stay_reference


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
    """The participation kernel ``_profit``, its bracketed root finder, and
    the stay probability ``_stay`` read at the kernel's cutoff."""

    @given(x=st.floats(0.3, 3.0), t=st.floats(3.0, 4.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=80, deadline=None)
    def test_cutoff_matches_closed_form(self, labor, x, t):
        y = math.sqrt(x * t)
        for audit in (True, False):
            _, cut = ss._profit(labor, [x], [y], audit=audit)
            assert abs(cut[0] - y * y / x) <= 1e-12

    @pytest.mark.parametrize("audit", [True, False])
    def test_indifferent_type_stays(self, audit):
        # u = theta - 4 on [3, 5]: the type 4 is exactly indifferent
        p = ss.SingleProblem(u="x*theta - y^2", v="y*theta", types=ec.TypeSpace.interval(3.0, 5.0))
        _, cut = ss._profit(p, [1.0], [2.0], audit=audit)
        assert cut[0] == 4.0
        assert ss._stay(p, [1.0], [2.0], cut)[0] == pytest.approx(0.5, abs=1e-12)
        assert ss.cutoff(p, 1.0, 2.0) == ss.CutoffResult("interior", 4.0)

    @pytest.mark.parametrize("audit", [True, False])
    def test_all_stay_and_none_stay_rows(self, labor, audit):
        value, cut = ss._profit(labor, [1.0, 1.0, 1.0], [0.0, 1.9, 3.0], audit=audit)
        stay = ss._stay(labor, [1.0, 1.0, 1.0], [0.0, 1.9, 3.0], cut)
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
        _, cut = ss._profit(problem, X, Y, audit=False)
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
            _, cut = ss._profit(p, X, Y, audit=audit)
            assert np.max(np.abs(cut - Y * Y / X)) <= 1e-12
            assert len(calls) <= max_calls  # the sweep plus the root steps

    def test_finite_type_space(self):
        types = ec.TypeSpace.uniform_finite([3.0, 4.0, 5.0])
        p = ss.SingleProblem(u="x*theta - y^2", v="y*theta", types=types)
        y = math.sqrt(3.2)
        value, cut = ss._profit(p, [1.0], [y])
        assert cut[0] == pytest.approx(3.2, abs=1e-12)
        assert ss.cutoff(p, 1.0, y).theta == pytest.approx(3.2, abs=1e-12)
        assert ss._stay(p, [1.0], [y], cut)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert value[0] == pytest.approx(y * (4.0 + 5.0) / 3.0, abs=1e-12)
        # u = theta - 4: the indifferent type 4 stays and is the exact cutoff
        value, cut = ss._profit(p, [1.0], [2.0])
        assert cut[0] == 4.0
        assert ss._stay(p, [1.0], [2.0], cut)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


_KINKED = "y*sqrt(theta) - x^2"
_SMOOTH = "y*theta^2 - x*theta - x^2"


@functools.lru_cache(maxsize=None)
def _mixed(density: str, v: str = _KINKED) -> ss.SingleProblem:
    """u = x*(theta - 3) + 1 - y^2 on types in [3, 4.5]: with x > 0 all
    stay at y <= 1, the cutoff is 3 + (y^2 - 1)/x past that, and none stay
    once it passes 4.5; with x <= 0 and y < 1 u is positive and does not
    rise, failing the audit. The default v takes a square root of theta,
    so node rows meet a ufunc and the stay integral is Simpson's;
    ``_SMOOTH`` takes Gauss-Legendre nodes under the uniform density. The
    uniform density 2/3 is no power of two."""
    types = {
        "uniform": ec.TypeSpace.interval(3.0, 4.5),
        "normal": ec.TypeSpace.interval(3.0, 4.5, density="normal", mean=3.4, sd=0.5),
        "finite": ec.TypeSpace.from_finite([("a", 3.0, 0.2), ("b", 3.4, 0.5), ("c", 4.0, 0.3)]),
    }[density]
    return ss.SingleProblem(u="x*(theta - 3) + 1 - y^2", v=v, types=types)


def _with_gauss(problem: ss.SingleProblem, gauss: int) -> ss.SingleProblem:
    """A copy of ``problem`` whose stay integral takes ``gauss`` nodes (0: Simpson's rule)."""
    (out := copy.copy(problem)).gauss = gauss
    return out


class TestKernelChunks:
    """``_profit`` and ``_stay`` bound their own workspace: rows run in
    chunks, all-stay rows share one node row, and no bit moves. The
    frozen one-pass kernel integrates by Simpson's rule, which every
    problem off the Gauss rule's exact class keeps."""

    @pytest.mark.parametrize("density", ["uniform", "normal", "finite"])
    @pytest.mark.parametrize("audit", [True, False])
    @pytest.mark.parametrize("v", [_KINKED, "y*abs(theta - 3.37) - x^2", "callable"])
    def test_matches_the_one_pass_kernel_bit_for_bit(self, density, audit, v):
        # 3,000 rows cross the Simpson pass's 255-row chunks; at x = 0 u is
        # flat in theta, which the audit's strict increase rejects. A
        # callable v, even of a smooth expression, keeps Simpson's rule.
        if v == "callable":
            p = dataclasses.replace(_mixed(density), v=el.compile_fn(el.parse(_SMOOTH), ["x", "y", "theta"]))
        else:
            p = _mixed(density, v)
        assert p.gauss == 0
        rng = np.random.default_rng(8)
        X, Y = rng.uniform(-1.0, 3.0, 3000), rng.uniform(0.0, 3.0, 3000)
        X[:50] = 0.0
        value, cut = ss._profit(p, X, Y, audit=audit)
        want_value, want_cut = profit_reference(p, X, Y, audit=audit)
        assert value.tobytes() == want_value.tobytes()
        assert cut.tobytes() == want_cut.tobytes()
        assert ss._stay(p, X, Y, cut).tobytes() == stay_reference(p, X, Y, cut).tobytes()
        assert {ss._cutoff_result(p, c).kind for c in cut} == {"all-stay", "interior", "none-stay"}
        assert np.count_nonzero(cut == 3.0) > 100
        assert np.any(value[:50] == -np.inf) == audit

    @given(
        density=st.sampled_from(["uniform", "normal", "finite"]),
        v=st.sampled_from([_KINKED, _SMOOTH]),
        audit=st.booleans(),
        rows=st.lists(st.tuples(st.floats(-1.0, 3.0), st.floats(0.0, 3.0)), min_size=1, max_size=30),
        splits=st.lists(st.integers(0, 30), max_size=3),
        workspace=st.sampled_from([ss._WORKSPACE, 1, 40, 300]),
    )
    @example(density="normal", v=_KINKED, audit=True, rows=[(1.0, 0.5), (1.0, 1.2), (1.0, 2.5), (-1.0, 0.5)],
             splits=[1, 3], workspace=300)
    @example(density="uniform", v=_SMOOTH, audit=True, rows=[(1.0, 0.5), (1.0, 1.2), (1.0, 2.5), (-1.0, 0.5)],
             splits=[1, 3], workspace=20)
    @settings(max_examples=80, deadline=None)
    def test_any_split_of_the_rows_gives_the_same_bits(self, density, v, audit, rows, splits, workspace):
        # the whole mesh in chunks as small as one row, against its parts
        # with the default workspace, on either stay integral rule
        p = _mixed(density, v)
        assert p.gauss == (ss._GL_NODES if v == _SMOOTH and density == "uniform" else 0)
        X, Y = np.array(rows).T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ss, "_WORKSPACE", workspace)
            whole = ss._profit(p, X, Y, audit=audit)
        edges = sorted({min(k, X.size) for k in splits} | {0, X.size})
        parts = [ss._profit(p, X[i:j], Y[i:j], audit=audit) for i, j in zip(edges, edges[1:])]
        for k in (0, 1):
            assert np.concatenate([part[k] for part in parts]).tobytes() == whole[k].tobytes()

    @pytest.mark.parametrize("gauss", [ss._GL_NODES, 0])
    def test_workspace_stays_bounded(self, labor, gauss):
        # one audited call on 20,000 rows, on 16 Gauss nodes or at 256
        # panels; the one-pass Simpson kernel held (rows x 257)-element
        # temporaries, a peak of about 100 MB
        rng = np.random.default_rng(9)
        X = rng.uniform(0.3, 3.0, 20_000)
        Y = np.sqrt(X * rng.uniform(2.5, 4.5, X.size))
        tracemalloc.start()
        try:
            ss._profit(_with_gauss(labor, gauss), X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestGaussRule:
    """Gauss-Legendre stay integrals where 16 nodes are exact: v of degree
    at most 31 in theta under a uniform density; Simpson's rule elsewhere."""

    @given(
        coefs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32),
        lo=st.floats(0.0, 2.0),
        width=st.floats(0.1, 2.0),
        cut=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    )
    @example(coefs=[5e-324], lo=0.0, width=1.0, cut=0.0)  # every node's term underflows to 0
    @settings(max_examples=60, deadline=None)
    def test_exact_for_polynomials_of_degree_31(self, coefs, lo, width, cut):
        # u = theta - x puts the cutoff at x; with coefficients >= 0 the
        # closed form has no cancellation, so rounding stays relative down
        # to the normal range, below which doubles keep no relative bound
        v = " + ".join(f"{c!r}*theta^{k}" for k, c in enumerate(coefs))
        hi = lo + width
        p = ss.SingleProblem(u="theta - x", v=v, types=ec.TypeSpace.interval(lo, hi), x_box=(-1.0, 5.0))
        assert p.gauss == ss._GL_NODES
        x = lo + cut * width
        value, c = ss._profit(p, [x], [0.0])
        a, b = Fraction(float(c[0])), Fraction(hi)
        want = sum(Fraction(ck) * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, ck in enumerate(coefs)) / Fraction(width)
        assert abs(value[0] - float(want)) <= 1e-12 * abs(float(want)) + np.finfo(float).tiny

    def test_sixteen_nodes_are_exact_to_degree_31_and_no_further(self):
        # every type in [-1, 1] stays; v = theta^k integrates to 1/(k + 1)
        # times the density 1/2 for even k, and to 0 for odd k
        for k in range(33):
            p = ss.SingleProblem(u="theta + 2", v=f"theta^{k}", types=ec.TypeSpace.interval(-1.0, 1.0))
            assert p.gauss == (ss._GL_NODES if k < 32 else 0)
            p = _with_gauss(p, ss._GL_NODES)  # degree 32 on the nodes too
            error = abs(ss.expected_profit(p, 0.0, 0.0) - (1.0 / (k + 1) if k % 2 == 0 else 0.0))
            assert error <= 1e-15 if k < 32 else error > 1e-10

    def test_rule_follows_payoff_and_density(self):
        def gauss(v, types=ec.TypeSpace.interval(3.0, 4.0)):
            return ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v=v, types=types).gauss

        assert gauss("y*theta - x^2") == gauss("y*theta^31") == gauss("y*theta^16*exp(x)") == ss._GL_NODES
        assert gauss("y*theta^32") == gauss("y*exp(theta)") == gauss("y*exp(30*theta)") == 0
        assert gauss("y*sqrt(theta) - x^2") == gauss("y*abs(theta - 3.37)") == 0
        assert gauss(lambda x, y, theta, r: y * theta - x * x) == 0
        assert gauss("y*theta", ec.TypeSpace.uniform_finite([3.0, 4.0])) == 0
        assert gauss("y*theta", ec.TypeSpace.interval(3.0, 4.0, density="normal", mean=3.5, sd=0.4)) == 0


class TestExpectedProfit:
    def test_profit_at_unit_offer(self, labor):
        # all stay at t = 3: (4-3) * (K(3) * sqrt(1) - 1)
        v = ss.expected_profit(labor, 1.0, math.sqrt(3.0))
        assert v == pytest.approx(5.0622, abs=1e-3)

    def test_none_stay_zero(self, labor):
        assert ss.expected_profit(labor, 0.0, 1.0) == 0.0

    def test_profit_at_optimum(self, labor):
        _, x_star, _ = cf.labor_profile(3.0)
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

    @given(scale=st.floats(0.25, 4.0), agent_scale=st.floats(0.25, 4.0))
    @example(scale=1.0, agent_scale=1.0)  # the labor_single fixture
    @settings(max_examples=12, deadline=None)
    def test_labor_optimum_within_5e_8_of_closed_form(self, scale, agent_scale):
        """The optimum sits at cutoff 3 (all stay): x* = (3.5*sqrt(3)/4)^(2/3),
        y* = sqrt(3 x*), value from the closed-form profile. Scaling the
        principal's payoff scales the value; scaling the agent's utility
        moves no one's participation."""
        _, x_star, value_star = cf.labor_profile(3.0)
        p = ss.SingleProblem(u=f"{agent_scale!r}*(x*theta - y^2)/sqrt(theta)", v=f"{scale!r}*(y*theta - x^2)")
        r = ss.solve(p)
        assert abs(r.x - x_star) <= 5e-8
        assert abs(r.y - math.sqrt(3.0 * x_star)) <= 5e-8
        assert abs(r.value / scale - value_star) <= 5e-8

    def test_no_trade_when_value_negative(self):
        p = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="0 - 1")
        r = ss.solve(p)
        assert r.no_trade
        assert r.value == 0.0
        assert r.x is None

    @pytest.mark.parametrize("items", [[("a", 3.0, 1.0)], [("a", 3.0, 0.25), ("b", 3.0, 0.75)]])
    def test_one_point_type_span_matches_closed_form(self, items):
        """Types of one value theta = 3 all stay while y <= sqrt(3x), so the
        optimum maximizes 3*sqrt(3x) - x^2: x* = (3*sqrt(3)/4)^(2/3). The
        audit swept 33 copies of theta, found u flat, rejected every offer
        that retains a type and reported no trade."""
        x_star = (3.0 * math.sqrt(3.0) / 4.0) ** (2.0 / 3.0)
        y_star = math.sqrt(3.0 * x_star)
        types = ec.TypeSpace.from_finite(items)
        r = ss.solve(ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2", types=types))
        assert not r.no_trade and r.stay_prob == 1.0
        assert abs(r.x - x_star) <= 1e-6 and abs(r.x - 1.190551) <= 1e-6
        assert abs(r.y - y_star) <= 1e-6 and abs(r.y - 1.889882) <= 1e-6
        assert abs(r.value - (3.0 * y_star - x_star**2)) <= 1e-6 and abs(r.value - 4.252234) <= 1e-6

    def test_no_trade_that_only_the_audit_forces_is_an_error(self):
        """u = x - y is flat in theta, so the audit rejects every offer that
        retains a type; but y = x retains all, worth 3.5x - x^2, 3.0625 at
        x = 1.75. This reported no trade."""
        p = ss.SingleProblem(u="x - y", v="y*theta - x^2")
        with pytest.raises(ss.MonotonicityError, match=(
            r"no trade is not certified: \(x, y\) = \(1.7450980392156863, 1.7450980392156863\) is worth 3.06247"
        )):
            ss.solve(p)

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
        grid = ss._profit_grid(labor, xs, ys, np.zeros(xs.size, int))
        assert labor_solution.value >= float(np.max(grid)) - 1e-9

    def test_zoom_agrees_with_solve(self, labor, labor_solution):
        (value,), (x,), (y,) = ss.zoom_solve(labor)
        assert value == pytest.approx(labor_solution.value, abs=1e-6)
        assert x == pytest.approx(labor_solution.x, abs=1e-3)


def _grid_bracket(problem: ss.SingleProblem, x: float) -> tuple[float, float, float]:
    """The y-grid's bracket [a, b] around its best point, and that point's value."""
    ys = np.linspace(problem.y_box[0], problem.y_box[1], problem.y_grid)
    grid = ss._profit_grid(problem, np.array([x]), ys, np.zeros(1, int))[0]
    i = int(np.argmax(grid))
    return ys[max(i - 1, 0)], ys[min(i + 1, ys.size - 1)], float(grid[i])


def _golden_inner(problem: ss.SingleProblem, x: float) -> float:
    """The inner value by golden section on the grid bracket alone, with
    the audited re-evaluation kept only when it beats the grid value: the
    search ``_inner_rows`` ran before it solved for the participation kink
    and before Brent's method replaced golden section."""
    a, b, grid_value = _grid_bracket(problem, x)
    y = golden_rows_reference(
        lambda _, yk: ss._profit(problem, np.full(yk.size, x), yk, audit=False)[0], a, b, ss.OPT_TOL
    )
    return max(float(ss._profit(problem, [x], y)[0][0]), grid_value)


def _dense_bracket(problem: ss.SingleProblem, x: float, n: int = 4001) -> tuple[float, float]:
    """The best audited value on an n-point grid over the grid bracket,
    and a bound on how far the bracket's supremum can lie from it: twice
    the largest step between neighbouring grid values."""
    a, b, _ = _grid_bracket(problem, x)
    f = ss._profit(problem, np.full(n, x), np.linspace(a, b, n))[0]
    return float(np.max(f)), 2.0 * float(np.max(np.abs(np.diff(f))))


def _agency_family(beta: float) -> sa.AgencyProblem:
    return sa.AgencyProblem(
        beta=beta,
        agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
        principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
    )


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
    # no type stays on the right of the bracket: golden section stepped right
    # on the tie at 0 of its first probes and lost the bump on the left
    @example(family="labor", x=3.34375, rival=0.0, beta=0.5, gap=0.25, low_weight=0.25,
             y_lo=0.0, width=4.453125, y_grid=8)
    @settings(max_examples=60, deadline=None)
    def test_kink_rule_never_loses_to_golden_section(self, family, x, rival, beta, gap, low_weight, y_lo, width, y_grid):
        # the worked labor and agency families, and the labor payoffs over
        # two finite types; the y-box and grid size set the bracket that the
        # kink rule and golden section refine
        box = {"y_box": (y_lo, y_lo + width), "y_grid": y_grid}
        if family == "agency":
            problem = dataclasses.replace(sa.bilateral_reduce(_agency_family(beta), 0, rival), **box)
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

    @given(
        family=st.sampled_from(["labor", "agency"]),
        xs=st.lists(st.floats(0.2, 3.5), min_size=1, max_size=4),
        rival=st.floats(0.0, 4.0),
        beta=st.floats(0.3, 0.9),
        y_lo=st.floats(0.0, 2.0),
        width=st.floats(2.0, 5.0),
        y_grid=st.integers(8, 300),
    )
    @settings(max_examples=80, deadline=None)
    def test_strided_scan_finds_the_full_scan_argmax(self, family, xs, rival, beta, y_lo, width, y_grid):
        box = {"y_box": (y_lo, y_lo + width), "y_grid": y_grid}
        if family == "agency":
            problem = dataclasses.replace(sa.bilateral_reduce(_agency_family(beta), 0, rival), **box)
        else:
            problem = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2", **box)
        xs, ys = np.array(xs), np.linspace(y_lo, y_lo + width, y_grid)
        r = np.zeros(xs.size, int)
        idx, value = ss._y_scan(problem, xs, ys, r)
        full = ss._profit_grid(problem, xs, ys, r)
        assert np.array_equal(idx, np.argmax(full, axis=1))
        assert np.array_equal(value, np.max(full, axis=1))

    def test_bump_narrower_than_the_stride_is_missed(self):
        # everyone stays and f(y) = max(0, 0.05 - |y - 2.03|): only the grid
        # point 2.063 sees the bump, and the coarse samples (stride 4 of 64,
        # 0.317 apart) all read 0, so the window around y = 0 keeps 0
        problem = ss.SingleProblem(u="theta", v="max(0, 0.05 - abs(y - 2.03))", y_grid=64)
        ys = np.linspace(0.0, 5.0, 64)
        xs, r = np.array([1.0]), np.zeros(1, int)
        full = ss._profit_grid(problem, xs, ys, r)[0]
        assert int(np.argmax(full)) == 26 and full[26] > 0.016
        idx, value = ss._y_scan(problem, xs, ys, r)
        assert (idx[0], value[0]) == (0, 0.0)

    def test_row_failing_the_audit_at_every_coarse_sample_is_scanned_in_full(self):
        # u rises in theta only for |y - 2.03| < 0.1, narrower than the
        # stride; elsewhere it falls in theta and is positive, so the audit
        # fails there. The band holds the grid points 1.984 and 2.063.
        problem = ss.SingleProblem(u="theta*(0.01 - (y-2.03)^2) + 30", v="y", y_grid=64)
        xs, ys, r = np.array([1.0]), np.linspace(0.0, 5.0, 64), np.zeros(1, int)
        assert np.all(ss._profit_grid(problem, xs, ys[np.r_[0:64:4, 63]], r) == -np.inf)
        full = ss._profit_grid(problem, xs, ys, r)[0]
        assert list(np.flatnonzero(np.isfinite(full))) == [25, 26]
        idx, value = ss._y_scan(problem, xs, ys, r)
        assert (idx[0], value[0]) == (26, full[26])
        (inner,), (y,) = ss._inner_rows(problem, xs)
        assert inner >= full[26] and 1.93 < y < 2.13


class TestLaborProfile:
    def test_point_values(self):
        K, x, value = cf.labor_profile(3.0)
        assert K == pytest.approx(math.sqrt(3.0) * 7.0 / 2.0, abs=1e-12)
        assert x == pytest.approx((K / 4.0) ** (2.0 / 3.0), abs=1e-12)
        assert value == pytest.approx(5.2225, abs=1e-3)

    def test_boundary_factor_vanishes(self):
        K, x, value = cf.labor_profile(3.999999)
        assert value == pytest.approx(0.0, abs=1e-4)
        with pytest.raises(ValueError):
            cf.labor_profile(4.0)

    def test_cutoff_three_is_best(self):
        ts = np.linspace(3.0, 4.0, 200, endpoint=False)
        values = [cf.labor_profile(float(t))[2] for t in ts]
        assert int(np.argmax(values)) == 0


class TestRentProbe:
    @pytest.fixture
    def probe_problem(self):
        return ss.SingleProblem(u="x*theta - y^2", v="y*theta")

    def test_fixture_values(self, probe_problem):
        belief = ec.Belief.from_typespace(ec.TypeSpace.interval(3.0, 4.0))
        res = cf.rent_probe(probe_problem, 1.0, 1.5, belief, steps=(0.1, 0.2))
        assert res.success
        assert res.kappa == pytest.approx(0.75, abs=1e-9)
        assert res.step == pytest.approx(0.1)
        assert res.improvement == pytest.approx(5.6 - 5.25, abs=1e-9)

    def test_binding_type_rejected(self, probe_problem):
        belief = ec.Belief.from_typespace(ec.TypeSpace.interval(3.0, 4.0))
        # y^2 = 3x makes the lowest type exactly indifferent: kappa = 0
        with pytest.raises(ValueError, match="common slack"):
            cf.rent_probe(probe_problem, 1.0, math.sqrt(3.0), belief)

    def test_wrong_monotonicity_rejected(self):
        p = ss.SingleProblem(u="x*theta - y^2", v="0 - y*theta")
        belief = ec.Belief.from_typespace(ec.TypeSpace.interval(3.0, 4.0))
        with pytest.raises(ss.MonotonicityError):
            cf.rent_probe(p, 1.0, 1.5, belief)

    @given(
        x=st.floats(0.8, 2.5),
        y_frac=st.floats(0.0, 0.9),
        lo=st.floats(3.0, 3.4),
        width=st.floats(0.2, 0.6),
    )
    @settings(max_examples=60, deadline=None)
    def test_succeeds_whenever_slack_exceeds_point_one(self, x, y_frac, lo, width):
        p = ss.SingleProblem(u="x*theta - y^2", v="y*theta")
        belief = cf.interval_belief(lo, lo + width, 65)
        y = y_frac * math.sqrt(x * lo)
        kappa = x * lo - y * y
        if kappa < 0.1:
            return
        res = cf.rent_probe(
            p, x, y, belief, steps=tuple(0.1 * 0.5**k for k in range(12))
        )
        assert res.success
        assert res.improvement > 0.0


class TestSingleCrossingAudit:
    def test_labor_family_passes(self):
        rep = cf.single_crossing_audit(
            "(x*theta - y^2)/sqrt(theta)",
            (1.0, 1.0),
            (2.0, 2.0),
            np.linspace(3.0, 4.0, 65),
        )
        assert rep.passed

    def test_equal_pairs_degenerate(self):
        rep = cf.single_crossing_audit(
            "(x*theta - y^2)/sqrt(theta)",
            (1.0, 1.0),
            (1.0, 1.0),
            np.linspace(3.0, 4.0, 65),
        )
        assert rep.degenerate_equal

    def test_double_crossing_fails(self):
        # difference sin-like in theta: two sign changes on the grid
        rep = cf.single_crossing_audit(
            lambda x, y, th: x * (th - 3.2) * (th - 3.8),
            (1.0, 0.0),
            (0.0, 0.0),
            np.linspace(3.0, 4.0, 65),
        )
        assert not rep.passed

    @given(signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_zero_runs_equal_the_loop_count(self, signs):
        """The zero runs of the difference, against the loop that counted them."""
        d = np.array(signs)
        runs, in_run = 0, False
        for s in d:
            runs += s == 0 and not in_run
            in_run = s == 0
        rep = cf.single_crossing_audit(lambda x, y, th: x * d, (1.0, 0.0), (0.0, 0.0), np.zeros(d.size))
        assert rep.zero_runs == runs


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
