import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_forge import env_core as ec


def _single_env(feasible, n_y=1, payoffs=("0", ["0"])):
    ys = tuple(ec.ActionValue(f"y{i}") for i in range(n_y))
    spec = ec.PrincipalSpec(
        contractible=tuple(ec.ActionValue(x) for x in feasible),
        noncontractible=ys,
        feasible={k: v for k, v in feasible.items()},
    )
    return ec.Environment(
        types=ec.TypeSpace.uniform_finite([1.0, 2.0]),
        principals=(spec,),
        payoffs=ec.PayoffModel.from_expressions(payoffs[0], payoffs[1]),
    )


def test_validate_flags_empty_feasibility():
    env = _single_env({"x0": (), "x1": ("y0", "y0b")}, n_y=1)
    report = ec.validate(env)
    assert not report.passed
    assert any("empty feasibility" in v for v in report.violations)


def test_validate_flags_single_feasible_pair():
    env = _single_env({"x0": ("y0",)})
    report = ec.validate(env)
    assert not report.passed
    assert any("fewer than two feasible pairs" in v for v in report.violations)


def test_validate_passes_example4(example4_env):
    assert ec.validate(example4_env).passed


def test_payoff_u_labor_point():
    spec = ec.PrincipalSpec(
        contractible=(ec.ActionValue("x", 1.0),),
        noncontractible=(ec.ActionValue("y", 0.0), ec.ActionValue("yb", 1.0)),
        feasible={"x": ("y", "yb")},
    )
    env = ec.Environment(
        types=ec.TypeSpace.uniform_finite([4.0]),
        principals=(spec,),
        payoffs=ec.PayoffModel.from_expressions(
            "(x*theta - y^2)/sqrt(theta)", ["y*theta - x^2"]
        ),
    )
    assert ec.payoff_u(env, (("x", "y"),), 4.0) == pytest.approx(2.0)


def test_payoff_v_single_and_two_principal():
    spec = ec.PrincipalSpec(
        contractible=(ec.ActionValue("x", 3.0),),
        noncontractible=(ec.ActionValue("y", 3.0), ec.ActionValue("y0", 0.0)),
        feasible={"x": ("y", "y0")},
    )
    env1 = ec.Environment(
        types=ec.TypeSpace.uniform_finite([3.0]),
        principals=(spec,),
        payoffs=ec.PayoffModel.from_expressions("0", ["y*theta - x^2"]),
    )
    assert ec.payoff_v(env1, 0, (("x", "y"),), 3.0) == pytest.approx(0.0)

    beta = 17.0 / 21.0
    env2 = ec.Environment(
        types=ec.TypeSpace.uniform_finite([3.0]),
        principals=(spec, spec),
        payoffs=ec.PayoffModel.from_expressions(
            "0",
            [f"(1 + {beta!r}*x2)*y1*theta - x1^2", "0"],
        ),
    )
    v = ec.payoff_v(env2, 0, (("x", "y"), ("x", "y")), 3.0)
    assert v == pytest.approx((1 + 51 / 21) * 9 - 9, abs=1e-3)
    assert v == pytest.approx(21.857, abs=1e-3)


def test_payoff_errors_name_offender():
    spec = ec.PrincipalSpec(
        contractible=(ec.ActionValue("x", 1.0),),
        noncontractible=(ec.ActionValue("y", 0.0), ec.ActionValue("yb", 2.0)),
        feasible={"x": ("y", "yb")},
    )
    env = ec.Environment(
        types=ec.TypeSpace.uniform_finite([1.0]),
        principals=(spec,),
        payoffs=ec.PayoffModel.from_expressions("unknown_var", ["0"]),
    )
    with pytest.raises(ec.EvalError, match="unknown_var"):
        ec.payoff_u(env, (("x", "y"),), 1.0)
    with pytest.raises(ec.EvalError, match="infeasible"):
        ec.payoff_u(env, (("x", "zz"),), 1.0)


def test_expect_finite_midpoint():
    b = ec.Belief((3.0, 4.0), (0.5, 0.5))
    assert ec.expect(lambda t: t, b) == pytest.approx(3.5)


def test_expect_uniform_interval_mean():
    b = ec.Belief.from_typespace(ec.TypeSpace.interval(3.0, 4.0))
    assert ec.expect(lambda t: t, b) == pytest.approx(3.5, abs=1e-9)


def test_expect_reciprocal_analytic():
    b = ec.Belief.from_typespace(ec.TypeSpace.interval(0.5, 1.5))
    assert ec.expect(lambda t: 1.0 / t, b) == pytest.approx(math.log(3.0), abs=1e-6)


@given(st.floats(-5, 5, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_expect_constant_is_exact(c):
    finite = ec.Belief((1.0, 2.0, 5.0), (0.2, 0.3, 0.5))
    assert ec.expect(lambda t: c + 0.0 * t, finite) == pytest.approx(c, abs=1e-12)
    grid = ec.Belief.from_typespace(ec.TypeSpace.interval(0.0, 1.0))
    assert ec.expect(lambda t: c + 0.0 * t, grid) == pytest.approx(c, abs=1e-12)


def test_truncated_normal_density_normalizes():
    ts = ec.TypeSpace.interval(3.0, 4.0, density="normal", mean=3.5, sd=0.4)
    pts, w = ts.grid()
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)
    # mean of the symmetric truncation is the center
    assert float(pts @ w) == pytest.approx(3.5, abs=1e-9)


def test_validate_interval_bounds():
    env = ec.Environment(
        types=ec.TypeSpace.interval(4.0, 3.0),
        principals=(
            ec.PrincipalSpec(
                contractible=(ec.ActionValue("x"),),
                noncontractible=(ec.ActionValue("y"), ec.ActionValue("yb")),
                feasible={"x": ("y", "yb")},
            ),
        ),
        payoffs=ec.PayoffModel.from_expressions("0", ["0"]),
    )
    assert not ec.validate(env).passed


def test_allocation_mass_and_feasibility(example4_env):
    alloc = ec.Allocation(
        {
            "t0": (((("x", "y"), ("x", "yp")), 1.0),),
            "t1": (((("xp", "ypp"), ("x", "y")), 0.5), (ec.OPT_OUT, 0.5)),
        }
    )
    ec.check_allocation(example4_env, alloc)
    # marginal against the prior has total mass 1
    total = sum(
        w * p
        for w, (lab, dist) in zip(
            example4_env.types.weights, sorted(alloc.entries.items())
        )
        for _, p in dist
    )
    assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        ec.Allocation({"t0": (((("x", "y"), ("x", "yp")), 0.7),)})


@pytest.mark.parametrize(
    "weights, message",
    [
        ((1.5, -0.5), "negative belief weight -0.5"),  # sums to 1
        ((float("nan"), float("nan")), "non-finite belief weight nan"),  # NaN passed the sum test
        ((-1e-13, 1.0 + 1e-13), "negative belief weight -1e-13"),  # was allowed down to -1e-12
        ((0.5, 0.5 + 1e-10), "belief weights sum to 1.0000000001, not 1"),  # was allowed within 1e-9
    ],
)
def test_belief_weights_are_a_probability_vector(weights, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ec.Belief((0.0, 1.0), weights)


@pytest.mark.parametrize(
    "dist, message",
    [
        (((ec.OPT_OUT, 1.5), ((("x", "y"), ("x", "yp")), -0.5)), "negative type 't0' allocation weight -0.5"),
        (((ec.OPT_OUT, float("nan")),), "non-finite type 't0' allocation weight nan"),
        (((ec.OPT_OUT, 1.0 + 1e-10),), "type 't0' allocation weights sum to 1.0000000001, not 1"),
    ],
)
def test_allocation_weights_are_a_probability_vector(dist, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ec.Allocation({"t0": dist})


def test_allocation_keys_round_final_actions_and_probabilities():
    a = ec.Allocation({"t0": ((0.1 + 0.2, 0.5), (1.0, 0.5)), "t1": ((2.0, 1.0), (3.0, 0.0))})
    assert a.key() == (("t0", ((0.3, 0.5), (1.0, 0.5))), ("t1", ((2.0, 1.0),)))
    assert a.key() == ec.Allocation({"t1": ((2.0, 1.0),), "t0": ((1.0, 0.5), (0.3, 0.5))}).key()


@pytest.mark.parametrize("payoffs", [(), (1.0, 2.0)])
def test_table_payoffs_hold_one_payoff_per_principal(payoffs):
    # with () validate raised IndexError from the table lookup
    key = ("t0", (("x", "y"),))
    with pytest.raises(ValueError, match=re.escape(f"payoff entry {key!r} has {len(payoffs)} principal payoffs, not 1")):
        ec.PayoffModel.from_table({key: (1.0, payoffs)}, n_principals=1)
    assert ec.PayoffModel.from_table({key: (1.0, (2.0,))}, n_principals=1).table[key] == (1.0, (2.0,))


def test_validate_table_payoff_coverage(necessity_skeleton):
    # expression sweep: finite evaluation over all feasible profiles
    assert ec.validate(necessity_skeleton).passed


def test_validate_rejects_undeclared_expression_variable():
    spec = ec.PrincipalSpec(
        contractible=(ec.ActionValue("x", 1.0),),
        noncontractible=(ec.ActionValue("y", 0.0), ec.ActionValue("yb", 1.0)),
        feasible={"x": ("y", "yb")},
    )
    env = ec.Environment(
        types=ec.TypeSpace.uniform_finite([1.0]),
        principals=(spec,),
        payoffs=ec.PayoffModel.from_expressions("x*shock", ["0"]),
    )
    report = ec.validate(env)
    assert not report.passed
    assert any("undeclared variable 'shock'" in v for v in report.violations)


def test_action_variables_have_one_spelling():
    spec = ec.PrincipalSpec(
        contractible=(ec.ActionValue("x", 1.0),),
        noncontractible=(ec.ActionValue("y", 0.0), ec.ActionValue("yb", 2.0)),
        feasible={"x": ("y", "yb")},
    )
    env = ec.Environment(
        types=ec.TypeSpace.uniform_finite([1.0]),
        principals=(spec, spec),
        payoffs=ec.PayoffModel.from_expressions("x_1*theta", ["y1", "y_2"]),
    )
    assert env.action_context((("x", "yb"), ("x", "y"))) == {"x1": 1.0, "y1": 2.0, "x2": 1.0, "y2": 0.0}
    assert ec.validate(env).violations == (
        "agent utility references undeclared variable 'x_1'",
        "principal 2 utility references undeclared variable 'y_2'",
    )


def test_validate_checks_the_finite_type_rules():
    env = _single_env({"x0": ("y0", "y1")}, n_y=2)
    types = ec.TypeSpace.from_finite([("a", 1.0, -0.25), ("b", 2.0, 0.5), ("a", 3.0, 0.5)])
    assert ec.validate(replace(env, types=types)).violations == (
        "negative prior weight -0.25",
        "duplicate type label 'a'",
        "prior weights sum to 0.75, not 1",
    )
    assert ec.finite_type_violations(env.types.finite) == []


_EXPRESSIONS = (
    "x1*theta - y1^2", "log(theta) + x1", "sqrt(theta)*y1", "y1/(theta - 1)", "theta",
    "exp(1000*theta) - x1",
)
_OUTSIDE = ("0", "theta", "log(theta)", "exp(1000*theta)")


@st.composite
def _random_env(draw):
    """One or two principals with random feasibility, expression or table
    payoffs and an outside option; some expressions raise at one type (log
    or division at 0 or 1) or overflow to inf (exp at 1 and 2)."""
    n = draw(st.integers(1, 2))
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=3, unique=True))
    num = st.floats(-2.0, 2.0, allow_nan=False)
    specs = []
    for _ in range(n):
        xs = tuple(ec.ActionValue(f"x{i}", draw(num)) for i in range(draw(st.integers(1, 2))))
        ys = tuple(ec.ActionValue(f"y{i}", draw(num)) for i in range(draw(st.integers(2, 3))))
        labels = [y.label for y in ys]
        feasible = {
            x.label: tuple(draw(st.lists(st.sampled_from(labels), min_size=1, unique=True)))
            for x in xs
        }
        specs.append(ec.PrincipalSpec(contractible=xs, noncontractible=ys, feasible=feasible))
    exprs = [draw(st.sampled_from(_EXPRESSIONS)) for _ in range(n + 1)]
    outside = draw(st.sampled_from(_OUTSIDE))
    env = ec.Environment(
        types=ec.TypeSpace.uniform_finite(values),
        principals=tuple(specs),
        payoffs=ec.PayoffModel.from_expressions(exprs[0], exprs[1:], outside),
    )
    if draw(st.booleans()):
        return env
    entries = {
        (t, prof): (draw(st.integers(-3, 3)), tuple(draw(num) for _ in range(n)))
        for t in env.types.labels
        for prof in ec._profile_sweep(env.principals)
    }
    return replace(env, payoffs=ec.PayoffModel.from_table(entries, n, outside))


def _scalar_tables(env):
    """The scalar path in the tables' order: every profile at the first
    type, then at the next, and the outside option after the sweep."""
    profiles = ec._profile_sweep(env.principals)
    rows = {prof: [] for prof in profiles}
    for t in env.types.finite:
        for prof in profiles:
            row = [ec.payoff_u(env, prof, t.value)]
            row += [ec.payoff_v(env, j, prof, t.value) for j in range(env.n)]
            if not all(math.isfinite(x) for x in row):
                raise ValueError(f"non-finite payoff at type {t.label!r}, profile {prof!r}")
            rows[prof].append(row)
    outside = []
    for t in env.types.finite:
        outside.append(env.outside_option(t.value))
        if not math.isfinite(outside[-1]):
            raise ValueError(f"non-finite outside option at type {t.label!r}")
    return {
        prof: (np.array([r[0] for r in rs]), np.array([[r[j + 1] for r in rs] for j in range(env.n)]))
        for prof, rs in rows.items()
    }, outside


@given(env=_random_env())
@settings(max_examples=60, deadline=None)
def test_payoff_tables_equal_scalar_path(env):
    """The tables equal the scalar path when every evaluation succeeds and
    is finite; otherwise they raise the scalar path's first failure."""
    try:
        expected, outside = _scalar_tables(env)
    except ValueError as e:  # EvalError included
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            ec.payoff_tables(env)
        assert env._tables is None
        return
    tables = ec.payoff_tables(env)
    assert ec.payoff_tables(env) is tables  # built once per environment
    assert set(tables) == set(expected) | {ec.OPT_OUT}
    for prof, (u, v) in expected.items():
        assert tables[prof][0].dtype == u.dtype and tables[prof][1].dtype == v.dtype
        assert np.array_equal(tables[prof][0], u) and np.array_equal(tables[prof][1], v)
        assert not tables[prof][0].flags.writeable
    assert np.array_equal(tables[ec.OPT_OUT][0], outside)
    assert np.array_equal(tables[ec.OPT_OUT][1], np.zeros((env.n, len(outside))))


def test_profile_raising_at_one_type_raises_at_build():
    from contract_forge import contracts as ct
    from contract_forge import equilibrium as eq

    spec = ec.PrincipalSpec(
        contractible=(ec.ActionValue("a", 1.0),),
        noncontractible=(ec.ActionValue("lo", 0.0), ec.ActionValue("hi", 1.0)),
        feasible={"a": ("lo", "hi")},
    )
    env = ec.Environment(
        types=ec.TypeSpace.uniform_finite([1.0, 0.0]),
        principals=(spec,),
        payoffs=ec.PayoffModel.from_expressions("y*log(theta + 1 - y)", ["y*theta"]),
    )
    # the log's argument is 0 at the type at 0 after "hi" only
    message = r"^log of nonpositive value in log\(\(\(theta\+1\)-y\)\)$"
    with pytest.raises(ec.EvalError, match=message):
        ec.payoff_tables(env)
    assert ec.validate(env).violations == (
        "payoff evaluation failed: log of nonpositive value in log(((theta+1)-y))",
    )
    mech = ct.menu_rec(env, 0, ["a"])
    strategy = {"t0": ((("a|hi",), 1.0),), "t1": ((("a|lo",), 1.0),)}
    # the game reads the tables when it is built, so building the assessment raises
    with pytest.raises(ec.EvalError, match=message):
        eq.build_assessment(env, (mech,), strategy)
