"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured quantities at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from contract_forge import contracts as ct
from contract_forge import env_core as ec
from contract_forge import equilibrium as eq
from contract_forge import revisable as rv
from contract_forge import solver_agency as sa
from contract_forge import solver_single as ss

import closed_forms as cf
from oracle_bruteforce import (
    engine_allocation_keys,
    oracle_allocations,
    random_instance,
)

BETA = 17.0 / 21.0


def _report(n: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _oracle_labor_value(x: float, y: float, panels: int = 100_000) -> float:
    """Independent high-resolution Simpson quadrature of the labor payoff."""
    theta = np.linspace(3.0, 4.0, panels + 1)
    coef = np.ones(panels + 1)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    integrand = (y * theta - x * x) * 1.0  # uniform density on [3, 4]
    h = 1.0 / panels
    return float(np.sum(coef * integrand) * h / 3.0)


def test_criterion_1_labor_single_principal():
    problem = ss.SingleProblem(u="(x*theta - y^2)/sqrt(theta)", v="y*theta - x^2")
    t0 = time.perf_counter()
    result = ss.solve(problem)
    elapsed = time.perf_counter() - t0
    t_star = result.y**2 / result.x
    oracle = _oracle_labor_value(result.x, result.y)
    ok = (
        abs(result.x - 1.3193) <= 1e-3
        and abs(result.y - 1.9895) <= 1e-3
        and abs(t_star - 3.0) <= 1e-4
        and abs(result.value - 5.2225) <= 1e-3
        and abs(result.value - oracle) <= 1e-3
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"x*={result.x:.5f} y*={result.y:.5f} t*={t_star:.6f} "
        f"value={result.value:.5f} oracle={oracle:.5f} runtime={elapsed:.2f}s",
    )


def test_criterion_2_common_agency():
    problem = sa.AgencyProblem(
        beta=BETA,
        agent_utilities=("(x*theta - y^2)/sqrt(theta)",) * 2,
        principal_payoffs=("(1 + beta*x_other)*y*theta - x^2",) * 2,
    )
    closed = cf.worked_family_best_response(BETA, 3.0)
    t0 = time.perf_counter()
    eqm = sa.fixed_point(problem, start=(0.0, 0.0))
    elapsed = time.perf_counter() - t0
    br_errors = []
    for xo in (0.0, 1.0, 2.0, 3.0):
        numeric = sa.best_response(problem, 0, xo)
        br_errors.append(abs(numeric - cf.worked_family_best_response(BETA, xo)))
    ok = (
        abs(closed - 3.0) <= 1e-9
        and abs(eqm.x[0] - 3.0) <= 1e-3
        and abs(eqm.x[1] - 3.0) <= 1e-3
        and elapsed < 10.0
        and max(br_errors) <= 1e-3
    )
    _report(
        2,
        ok,
        f"BR(3)={closed!r} fixed point=({eqm.x[0]:.5f}, {eqm.x[1]:.5f}) in "
        f"{elapsed:.2f}s; max BR deviation={max(br_errors):.2e}",
    )


def test_criterion_3_canonical_space_counts(example4_env):
    t0 = time.perf_counter()
    n_star = len(ct.enumerate_gstar(example4_env, 0))
    n_sharp = len(ct.enumerate_gsharp(example4_env, 0))
    n_private = len(ct.enumerate_private(example4_env, 0))
    elapsed = time.perf_counter() - t0
    ok = (n_star, n_sharp, n_private) == (3, 31, 6) and elapsed < 1.0
    _report(
        3,
        ok,
        f"menus-with-recommendations={n_star} submenus={n_sharp} "
        f"private={n_private} runtime={elapsed:.3f}s",
    )


def test_criterion_4_revisable_equivalence():
    types = ec.TypeSpace.uniform_finite([0.0, 0.25, 0.5, 0.75, 1.0])
    model = rv.RevisableModel.additive(
        "-(z - theta)^2",
        "-(z - 0.05 - 0.7*theta)^2",
        types,
        alpha=0.0,
        z_range=(-1.0, 2.0),
        ideal_form=("affine", 0.05, 0.7),
    )
    z = tuple(np.linspace(0.0, 1.0, 9))
    t0 = time.perf_counter()
    report = rv.check_gamma_equal(model, z, 1)
    elapsed = time.perf_counter() - t0
    ok = report.equal and report.transforms_ok and elapsed < 60.0
    _report(
        4,
        ok,
        f"|limited|={report.n_limited} |full|={report.n_full} equal={report.equal} "
        f"lift failures={report.lift_failures} collapse failures="
        f"{report.collapse_failures} runtime={elapsed:.1f}s",
    )


def test_criterion_5_quadratic_delegation():
    t1, t2, valid = cf.ms_thresholds(0.2, 0.5)
    lift = cf.ms_lift_check(0.2, 0.5, 0.3, theta_grid=101)
    ok = (
        abs(t1 - 0.26667) <= 1e-5
        and abs(t2 - 0.6) <= 1e-6
        and valid
        and lift["worst_deviation"] <= lift["scan_step"] + 1e-12
    )
    _report(
        5,
        ok,
        f"thresholds=({t1:.6f}, {t2:.6f}) lift worst deviation="
        f"{lift['worst_deviation']:.2e} (scan step {lift['scan_step']:.0e})",
    )


def test_criterion_6_rent_extraction_probe():
    problem = ss.SingleProblem(u="x*theta - y^2", v="y*theta")
    belief = ec.Belief.from_typespace(ec.TypeSpace.interval(3.0, 4.0))
    res = cf.rent_probe(problem, 1.0, 1.5, belief, steps=(0.1, 0.2))
    fixture_ok = (
        res.success
        and abs(res.kappa - 0.75) <= 1e-9
        and res.step == 0.1
        and abs(res.improvement - (5.6 - 5.25)) <= 1e-9
    )
    rng = np.random.default_rng(6)
    generated = 0
    property_ok = True
    while generated < 40:
        x = float(rng.uniform(0.8, 2.5))
        lo = float(rng.uniform(3.0, 3.4))
        width = float(rng.uniform(0.2, 0.6))
        y = float(rng.uniform(0.0, 0.95)) * math.sqrt(x * lo)
        if x * lo - y * y < 0.1:
            continue
        generated += 1
        bel = cf.interval_belief(lo, lo + width, 65)
        out = cf.rent_probe(
            problem, x, y, bel, steps=tuple(0.1 * 0.5**k for k in range(12))
        )
        if not (out.success and out.improvement > 0.0 and out.kappa >= 0.1):
            property_ok = False
            break
    ok = fixture_ok and property_ok
    _report(
        6,
        ok,
        f"kappa={res.kappa} step={res.step} improvement={res.improvement:.4f} "
        f"(5.25 -> 5.6); property cases={generated} all succeeded={property_ok}",
    )


def test_criterion_7_private_counterexample():
    env, assessment, deviation, meta = ct.plain_menu_scenario()
    state_vals = eq.principal_state_values(env, assessment, 0)
    separating_ok = state_vals["theta1"] == 2.0 and state_vals["theta2"] == 1.0
    options = eq.SearchOptions(policies=("prior",))
    post = eq.private_post_deviation_values(env, assessment, 0, deviation, options)
    post_ok = len(post) > 0 and set(float(v) for v in post) == {2.0}
    robust = eq.check_robust(env, assessment, options=options)
    flagged = [
        f
        for f in robust.findings
        if f.outcome == "safe-profitable" and f.deviation.kind == "plain"
    ]
    ok = separating_ok and post_ok and not robust.passed and len(flagged) == 1
    _report(
        7,
        ok,
        f"separating deviator payoffs=({state_vals['theta1']}, {state_vals['theta2']}) "
        f"post-deviation values={sorted(set(float(v) for v in post))} "
        f"safe-profitable plain-menu deviations={len(flagged)}",
    )


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(20250810)
    options = eq.SearchOptions(policies=("prior",))
    mismatches = 0
    canonical_failures = 0
    checked_eq = 0
    t0 = time.perf_counter()
    for _ in range(100):
        env, contracts = random_instance(rng)
        oracle = oracle_allocations(env, contracts)
        found = eq.enumerate_equilibria(env, contracts, options)
        if engine_allocation_keys(found) != oracle:
            mismatches += 1
            continue
        for fe in found:
            canon = eq.canonicalize(env, fe.assessment)
            rep = eq.check_continuation(env, canon)
            same_alloc = rep.allocation.key(digits=12) == fe.allocation.key(digits=12)
            same_vals = all(
                abs(a - b) <= 1e-12 for a, b in zip(rep.values, fe.values)
            )
            if not (rep.passed and same_alloc and same_vals):
                canonical_failures += 1
            checked_eq += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and canonical_failures == 0
    _report(
        8,
        ok,
        f"100 instances, allocation-set mismatches={mismatches}; "
        f"canonicalize checked on {checked_eq} equilibria, failures="
        f"{canonical_failures} ({elapsed:.1f}s)",
    )


def test_criterion_9_necessity_environments():
    # dyadic prior weights make the unit payoff exactly representable
    skeleton = ec.Environment(
        types=ec.TypeSpace.from_finite(
            [("t0", 1.0, 0.25), ("t1", 2.0, 0.25), ("t2", 3.0, 0.5)]
        ),
        principals=(
            ec.PrincipalSpec(
                contractible=(
                    ec.ActionValue("a"),
                    ec.ActionValue("b"),
                    ec.ActionValue("c"),
                ),
                noncontractible=(ec.ActionValue("w"),),
                feasible={"a": ("w",), "b": ("w",), "c": ("w",)},
            ),
            ec.PrincipalSpec(
                contractible=(ec.ActionValue("d"),),
                noncontractible=(ec.ActionValue("e"), ec.ActionValue("f")),
                feasible={"d": ("e", "f")},
            ),
        ),
        payoffs=ec.PayoffModel.from_expressions("0", ["0", "0"]),
    )
    x_labels = skeleton.principals[0].x_labels
    menus = [
        [x for i, x in enumerate(x_labels) if mask >> i & 1]
        for mask in range(1, 1 << len(x_labels))
    ]
    failures = []
    for menu in menus:
        env, ref_alloc, phi = ct.necessity_environment(skeleton, 0, menu)
        contracts = (ct.menu_rec(env, 0, menu), ct.menu_rec(env, 1, ["d"]))
        strategy = {
            lab: (((f"{phi[lab]}|w", "d|e"), 1.0),) for lab in env.types.labels
        }
        assessment = eq.build_assessment(env, contracts, strategy)
        rep = eq.check_continuation(env, assessment)
        if not rep.passed or any(v != 1.0 for v in rep.values):
            failures.append((menu, "reference", rep.values))
            continue
        found = eq.enumerate_equilibria(env, contracts, eq.SearchOptions())
        used = set()
        for fe in found:
            for dist in fe.allocation.entries.values():
                for outcome, p in dist:
                    if outcome != ec.OPT_OUT and p > 0:
                        used.add(outcome[0][0])
        if used != set(menu):
            failures.append((menu, "image", sorted(used)))
    ok = not failures
    _report(
        9,
        ok,
        f"{len(menus)} menus checked; reference payoffs exactly 1 and "
        f"equilibrium images match menus; failures={failures!r}",
    )


def test_criterion_10_cutoff_sign_condition():
    ts = np.linspace(3.0, 4.0, 1002)[:-1]
    assert len(ts) == 1001
    factors = np.empty(len(ts))
    worst_numerator = -np.inf
    for i, t in enumerate(ts):
        factor, numerator = cf.cutoff_value_shape(float(t))
        factors[i] = factor
        worst_numerator = max(worst_numerator, numerator)
    argmax = int(np.argmax(factors))
    ok = worst_numerator < 0.0 and argmax == 0 and ts[argmax] == 3.0
    _report(
        10,
        ok,
        f"max numerator over 1001 grid points={worst_numerator:.3f} (< 0); "
        f"value-factor argmax at t={ts[argmax]}",
    )
