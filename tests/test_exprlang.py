import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_forge import exprlang as el


def test_precedence():
    assert el.evaluate(el.parse("1+2*3"), {}) == 7.0


def test_text_and_parsed_expressions_are_one_input():
    expr = el.parse("x + theta")
    assert el.as_expr("x + theta") == expr and el.as_expr(expr) is expr
    with pytest.raises(el.ParseError):
        el.as_expr("x +")


def test_power_right_associative():
    assert el.evaluate(el.parse("2^3^2"), {}) == 512.0


def test_unary_minus_binds_below_power():
    assert el.evaluate(el.parse("-2^2"), {}) == -4.0


def test_labor_utility_example():
    e = el.parse("(x*theta - y^2)/sqrt(theta)")
    assert el.evaluate(e, {"x": 1.0, "y": 0.0, "theta": 4.0}) == pytest.approx(2.0)


def test_variable_identity_and_min():
    assert el.evaluate(el.parse("theta"), {"theta": 4.0}) == 4.0
    assert el.evaluate(el.parse("min(2, 5)"), {}) == 2.0
    assert el.evaluate(el.parse("max(2, 5)"), {}) == 5.0


def test_intensity_at_optimal_offer():
    # y = sqrt(3 x) at the worked example's offer
    assert el.evaluate(el.parse("sqrt(3*1.3193)"), {}) == pytest.approx(1.98947, abs=1e-4)


@pytest.mark.parametrize("exponent", ["exp(1000*x)", "(exp(1000*x)-exp(1000*x))", "(0-exp(1000*x))"])
def test_non_finite_exponent_of_a_negative_base_is_an_eval_error(exponent):
    """int(b) raised OverflowError or ValueError on an infinite or nan exponent."""
    source = f"(0-2)^{exponent}"
    with pytest.raises(el.EvalError, match=r"negative base with non-integer exponent in \(\(0-2\)\^"):
        el.evaluate(el.parse(source), {"x": 1.0})


def test_depth_bound():
    """Every operator, unary minus, call and parenthesized group is a level."""
    deepest = [
        "(" * 99 + "x" + ")" * 99,
        "-" * 99 + "x",
        "+".join(["x"] * 100),
        "2^" * 99 + "x",
        "sqrt(" * 99 + "x" + ")" * 99,
    ]
    for source in deepest:
        e = el.parse(source)
        assert el.to_source(e)  # fully parenthesized, so it may nest deeper than the bound
        assert el.evaluate(e, {"x": 0.25}) == pytest.approx(float(el.compile_fn(e, ["x"])(0.25)))
        assert el.free_vars(e) == {"x"}
        with pytest.raises(el.ParseError, match="nests deeper than 100 levels"):
            el.parse(f"({source})")
    with pytest.raises(el.ParseError, match="nests deeper than 100 levels") as err:
        el.parse("(" * 5000 + "x" + ")" * 5000)
    assert err.value.offset == 100


def test_free_vars():
    assert el.free_vars(el.parse("x*theta")) == {"x", "theta"}
    assert el.free_vars(el.parse("1+2")) == frozenset()
    assert el.free_vars(el.parse("(x1*theta - y1^2)/sqrt(theta)")) == {
        "x1",
        "y1",
        "theta",
    }


def test_parse_errors_carry_offsets():
    with pytest.raises(el.ParseError) as err:
        el.parse("x*theta -")
    assert err.value.offset == 9
    with pytest.raises(el.ParseError):
        el.parse("foo(1)")  # unknown function
    with pytest.raises(el.ParseError):
        el.parse("min(1)")  # wrong arity
    with pytest.raises(el.ParseError):
        el.parse("min(1, 2, 3)")


@pytest.mark.parametrize(
    "source, offset",
    [("1e999", 0), ("(0-1)^1e999", 6), ("sqrt(0-1e999)", 7), ("log(0-1e999)", 6),
     ("(0-2)^(0-1e999)", 9), ("theta^(0-1e999)", 9), ("x + " + "9" * 400, 4)],
)
def test_literal_that_is_not_a_finite_double_is_a_parse_error(source, offset):
    """1e999 parsed to inf, and to_source then raised OverflowError on int(inf)."""
    with pytest.raises(el.ParseError, match="is not a finite double") as err:
        el.parse(source)
    assert err.value.offset == offset


def test_largest_and_smallest_literals_parse():
    assert el.evaluate(el.parse("1.7976931348623157e308"), {}) == 1.7976931348623157e308
    assert el.evaluate(el.parse("1e-999"), {}) == 0.0


def test_eval_errors_name_offenders():
    with pytest.raises(el.EvalError, match="unbound variable 'z'"):
        el.evaluate(el.parse("z+1"), {})
    with pytest.raises(el.EvalError, match="sqrt"):
        el.evaluate(el.parse("sqrt(0-4)"), {})
    with pytest.raises(el.EvalError, match="log"):
        el.evaluate(el.parse("log(0)"), {})
    with pytest.raises(el.EvalError, match="division by zero"):
        el.evaluate(el.parse("1/(2-2)"), {})


def test_compile_fn_matches_evaluate():
    e = el.parse("(x*theta - y^2)/sqrt(theta)")
    f = el.compile_fn(e, ["x", "y", "theta"])
    out = f(1.0, 0.5, np.array([3.0, 4.0]))
    expected = [el.evaluate(e, {"x": 1.0, "y": 0.5, "theta": t}) for t in (3.0, 4.0)]
    assert np.allclose(out, expected)


@st.composite
def expressions(draw, depth=0):
    if depth > 4 or draw(st.booleans()):
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            return el.Num(draw(st.floats(0.1, 100.0, allow_nan=False)))
        if leaf == 1:
            return el.Var(draw(st.sampled_from(["x", "y", "theta", "a_1"])))
        return el.Neg(draw(expressions(depth=depth + 1)))
    kind = draw(st.integers(0, 1))
    if kind == 0:
        op = draw(st.sampled_from("+-*/^"))
        return el.Bin(op, draw(expressions(depth=depth + 1)), draw(expressions(depth=depth + 1)))
    fn = draw(st.sampled_from(sorted(["sqrt", "exp", "log", "abs", "min", "max"])))
    arity = 2 if fn in ("min", "max") else 1
    return el.Call(fn, tuple(draw(expressions(depth=depth + 1)) for _ in range(arity)))


@given(expressions())
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(expr):
    assert el.parse(el.to_source(expr)) == expr


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_arbitrary_text(source):
    try:
        el.parse(source)
    except el.ParseError as e:
        assert isinstance(e.offset, int)


def test_evaluate_referentially_transparent():
    e = el.parse("exp(x) / (1 + theta^2)")
    ctx = {"x": 0.37, "theta": 1.91}
    a = el.evaluate(e, ctx)
    b = el.evaluate(e, ctx)
    assert math.isfinite(a)
    assert a == b  # bit-identical


@pytest.mark.parametrize(
    "source, smooth",
    [
        ("theta", True),
        ("x*y + 3", True),  # theta-free: every function and power allowed
        ("sqrt(x) + log(y) + abs(x) + min(x, y) + max(x, y) + x^0.5 + 2^y + 1/y", True),
        ("-theta", True),
        ("theta + x", True),
        ("x - theta", True),
        ("theta*theta*y", True),
        ("theta/x", True),
        ("theta/(x + sqrt(y))", True),
        ("exp(30*theta)", True),
        ("theta^0", True),
        ("(theta - 3)^31", True),
        ("(1 + 0.5*x)*y*theta - x^2", True),
        ("exp(-(theta - 3.5)^2/2)*sqrt(x)", True),
        ("x/theta", False),  # theta in a divisor
        ("1/(theta + 1)", False),
        ("theta^0.5", False),  # non-integer power of theta
        ("theta^x", False),  # non-constant exponent
        ("theta^(1+1)", False),
        ("theta^-2", False),
        ("2^theta", False),  # theta in an exponent other than exp's
        ("x^theta", False),
        ("sqrt(theta)", False),
        ("log(theta)", False),
        ("abs(theta - 3.37)", False),
        ("min(theta, 4)", False),
        ("max(x, theta)", False),
        ("y*theta + abs(theta - 3.37)", False),  # one kinked term is enough
        ("exp(sqrt(theta))", False),
        ("-(theta^2)*sqrt(theta)", False),
    ],
)
def test_smooth_in(source, smooth):
    assert el.smooth_in(el.parse(source), "theta") is smooth


def test_smooth_in_names_the_variable():
    expr = el.parse("sqrt(x)*theta")
    assert el.smooth_in(expr, "theta") and not el.smooth_in(expr, "x")
    assert el.smooth_in(el.Bin("^", el.Var("theta"), el.Num(2.0)), "theta")
    # a hand-built negative literal is a negative power, not a polynomial
    assert not el.smooth_in(el.Bin("^", el.Var("theta"), el.Num(-2.0)), "theta")
