import math

import numpy as np
import pytest

from contract_forge import solver_agency as sa
from contract_forge import solver_single as ss

BETA = 17.0 / 21.0


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

    def test_zero_rival_offer_neutral(self, worked):
        s = sa.bilateral_reduce(worked, 1, 0.0)
        base = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2")
        assert ss.expected_profit(s, 1.3, 1.9) == pytest.approx(
            ss.expected_profit(base, 1.3, 1.9), abs=1e-12
        )


class TestBestResponse:
    def test_closed_form_fixed_point_exact(self):
        assert sa.worked_family_best_response(BETA, 3.0) == pytest.approx(
            3.0, abs=1e-9
        )

    def test_decoupled_reduces_to_single(self, worked):
        x, _ = sa.best_response(worked, 0, 0.0)
        assert x == pytest.approx(1.3193, abs=1e-3)

    def test_numeric_matches_closed_form(self, worked):
        for xo in (0.0, 1.0, 2.0, 3.0):
            x, _ = sa.best_response(worked, 0, xo)
            assert x == pytest.approx(
                sa.worked_family_best_response(BETA, xo), abs=1e-3
            )

    def test_half_grid_matches_closed_form(self, worked):
        for xo in np.arange(0.0, 3.01, 0.5):
            x, _ = sa.best_response(worked, 0, float(xo), fast=True)
            assert x == pytest.approx(
                sa.worked_family_best_response(BETA, float(xo)), abs=1e-3
            )


class TestFixedPoint:
    def test_symmetric_equilibrium(self, equilibrium):
        assert equilibrium.converged
        assert equilibrium.x[0] == pytest.approx(3.0, abs=1e-3)
        assert equilibrium.x[1] == pytest.approx(3.0, abs=1e-3)
        assert equilibrium.y[0] == pytest.approx(3.0, abs=1e-3)
        assert equilibrium.cutoffs[0] == pytest.approx(3.0, abs=1e-4)
        assert equilibrium.cutoffs[1] == pytest.approx(3.0, abs=1e-4)

    def test_residual_meets_tolerance(self, worked, equilibrium):
        assert equilibrium.residual <= worked.fp_tol
        # re-evaluating the best response at the fixed point reproduces it
        for j in (0, 1):
            br, _ = sa.best_response(worked, j, equilibrium.x[1 - j])
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
        assert eqm2.residual <= worked.fp_tol

    def test_nonconvergence_reports_trajectory(self, worked):
        with pytest.raises(RuntimeError, match="did not converge"):
            sa.fixed_point(worked, max_iter=2)

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


def _closed_form_root(beta: float) -> float:
    """Positive root of x = worked_family_best_response(beta, x), by bisection."""
    lo, hi = 0.0, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sa.worked_family_best_response(beta, mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCutoffValueShape:
    def test_numerator_at_three(self):
        factor, num = sa.cutoff_value_shape(3.0)
        assert num == pytest.approx(-37.0)
        assert factor == pytest.approx(1.0 * 3 ** (2 / 3) * 7 ** (4 / 3))

    def test_factor_vanishes_at_four(self):
        factor, _ = sa.cutoff_value_shape(3.9999999)
        assert factor == pytest.approx(0.0, abs=1e-4)
        with pytest.raises(ValueError):
            sa.cutoff_value_shape(4.0)

    def test_negative_numerator_and_argmax_on_grid(self):
        ts = np.linspace(3.0, 4.0, 1002)[:-1]
        factors = []
        for t in ts:
            factor, num = sa.cutoff_value_shape(float(t))
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
        per_offer = [max(ss._inner_solve(single, x)[0], 0.0) for x in menu]
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
        _, _, single_value = ss.labor_profile(3.0)
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
