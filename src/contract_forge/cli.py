"""Scenario ingestion, command dispatch, and report emission.

A scenario is a JSON file with a schema version, a command, the blocks
that command needs, and an options block. Unknown fields are rejected
with their path. Reports are deterministic: identical inputs produce
byte-identical report.json and CSV outputs.

Exit codes: 0 on pass, 1 on domain findings (a failed equilibrium check,
a safe-profitable deviation, a gamma-set mismatch), 2 on errors.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import click
import numpy as np

from . import contracts as ct
from . import env_core as ec
from . import equilibrium as eq
from . import exprlang
from . import revisable as rv
from . import solver_agency as sa
from . import solver_single as ss
from .reportio import dumps, write_report_files

SCHEMA_VERSION = 1
COMMANDS = (
    "solve-single",
    "solve-agency",
    "revisable-check",
    "enumerate-canonical",
    "check-equilibrium",
    "robust-check",
    "private-check",
    "necessity-env",
    "plain-menu-demo",
)


class ScenarioError(ValueError):
    """Schema or expression error located by a JSON path."""


def _check_keys(obj: Mapping, allowed: Sequence[str], required: Sequence[str], path: str):
    if not isinstance(obj, Mapping):
        raise ScenarioError(f"schema error at {path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"schema error at {path}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"schema error at {path}: missing field {key!r}")


def _parse_expr(text, path: str) -> exprlang.Expr:
    if not isinstance(text, str):
        raise ScenarioError(f"schema error at {path}: expected an expression string")
    try:
        return exprlang.parse(text)
    except exprlang.ParseError as e:
        raise ScenarioError(f"expression error at {path}: {e}") from None


@dataclass(frozen=True, slots=True)
class ScenarioFile:
    command: str
    raw: Mapping
    path: str
    # built and validated blocks by name ("environment", "problem",
    # "agency", "revisable", "options"); handlers read these, not ``raw``
    blocks: Mapping = field(default_factory=dict)


@dataclass(slots=True)
class RunReport:
    command: str
    config_hash: str
    payload: dict
    tables: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    exit_code: int = 0
    wall_time: float = 0.0  # informational; never serialized


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = (
    "schema",
    "command",
    "environment",
    "assessment",
    "problem",
    "agency",
    "revisable",
    "options",
)

_BLOCKS_BY_COMMAND = {
    "solve-single": ("problem",),
    "solve-agency": ("agency",),
    "revisable-check": ("revisable",),
    "enumerate-canonical": ("environment",),
    "check-equilibrium": ("environment", "assessment"),
    "robust-check": ("environment", "assessment"),
    "private-check": ("environment", "assessment"),
    "necessity-env": ("environment",),
    "plain-menu-demo": (),
}


def parse_scenario(path: str | Path) -> ScenarioFile:
    """Load and schema-validate a scenario file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON at offset {e.pos}: {e.msg}") from None
    _check_keys(raw, _TOP_KEYS, ("schema", "command"), "$")
    if raw["schema"] != SCHEMA_VERSION:
        raise ScenarioError(f"schema error at $.schema: unsupported version {raw['schema']!r}")
    command = raw["command"]
    if command not in COMMANDS:
        raise ScenarioError(f"schema error at $.command: unknown command {command!r}")
    for block in _BLOCKS_BY_COMMAND[command]:
        if block not in raw:
            raise ScenarioError(f"schema error at $: command {command!r} needs {block!r}")
    return ScenarioFile(command=command, raw=raw, path=str(path), blocks=_build_blocks(raw))


def _build_blocks(raw: Mapping) -> dict:
    """Build (and so validate) every block present, once."""
    builders = {
        "environment": _environment_from,
        "problem": _single_problem_from,
        "agency": _agency_problem_from,
        "revisable": _revisable_from,
    }
    blocks = {name: build(raw[name], f"$.{name}") for name, build in builders.items() if name in raw}
    blocks["options"] = _options_from(raw)
    return blocks


def _typespace_from(obj, path: str) -> ec.TypeSpace:
    _check_keys(
        obj,
        ("kind", "items", "lo", "hi", "density", "mean", "sd", "grid"),
        ("kind",),
        path,
    )
    if obj["kind"] == "finite":
        items = obj.get("items")
        if not isinstance(items, list) or not items:
            raise ScenarioError(f"schema error at {path}.items: expected a nonempty list")
        rows = []
        for i, it in enumerate(items):
            _check_keys(it, ("label", "value", "weight"), ("label", "value", "weight"), f"{path}.items[{i}]")
            rows.append((str(it["label"]), float(it["value"]), float(it["weight"])))
        return ec.TypeSpace.from_finite(rows)
    if obj["kind"] == "interval":
        _check_keys(
            obj,
            ("kind", "lo", "hi", "density", "mean", "sd", "grid"),
            ("lo", "hi"),
            path,
        )
        return ec.TypeSpace.interval(
            float(obj["lo"]),
            float(obj["hi"]),
            density=obj.get("density", "uniform"),
            mean=float(obj.get("mean", 0.0)),
            sd=float(obj.get("sd", 1.0)),
            grid_points=int(obj.get("grid", 1025)),
        )
    raise ScenarioError(f"schema error at {path}.kind: expected 'finite' or 'interval'")


def _actions_from(items, path: str) -> tuple[ec.ActionValue, ...]:
    if not isinstance(items, list) or not items:
        raise ScenarioError(f"schema error at {path}: expected a nonempty list")
    out = []
    for i, it in enumerate(items):
        _check_keys(it, ("label", "value"), ("label",), f"{path}[{i}]")
        value = it.get("value")
        out.append(ec.ActionValue(str(it["label"]), None if value is None else float(value)))
    return tuple(out)


def _environment_from(obj, path: str) -> ec.Environment:
    _check_keys(
        obj,
        ("types", "principals", "payoffs", "observability", "optout"),
        ("types", "principals", "payoffs"),
        path,
    )
    types = _typespace_from(obj["types"], f"{path}.types")
    principals = []
    if not isinstance(obj["principals"], list) or not obj["principals"]:
        raise ScenarioError(f"schema error at {path}.principals: expected a nonempty list")
    for j, spec in enumerate(obj["principals"]):
        spath = f"{path}.principals[{j}]"
        _check_keys(spec, ("contractible", "noncontractible", "feasible"), ("contractible", "noncontractible", "feasible"), spath)
        feasible = {
            str(k): tuple(str(y) for y in v) for k, v in spec["feasible"].items()
        }
        principals.append(
            ec.PrincipalSpec(
                contractible=_actions_from(spec["contractible"], f"{spath}.contractible"),
                noncontractible=_actions_from(spec["noncontractible"], f"{spath}.noncontractible"),
                feasible=feasible,
            )
        )
    pay = obj["payoffs"]
    ppath = f"{path}.payoffs"
    _check_keys(pay, ("mode", "agent", "principals", "outside", "entries"), ("mode",), ppath)
    if pay["mode"] == "expressions":
        agent = _parse_expr(pay.get("agent"), f"{ppath}.agent")
        pexprs = [
            _parse_expr(e, f"{ppath}.principals[{i}]")
            for i, e in enumerate(pay.get("principals", []))
        ]
        if len(pexprs) != len(principals):
            raise ScenarioError(f"schema error at {ppath}.principals: need one expression per principal")
        outside = _parse_expr(pay.get("outside", "0"), f"{ppath}.outside")
        payoffs = ec.PayoffModel.from_expressions(agent, pexprs, outside)
    elif pay["mode"] == "table":
        entries = {}
        for i, row in enumerate(pay.get("entries", [])):
            rpath = f"{ppath}.entries[{i}]"
            _check_keys(row, ("state", "pairs", "agent", "principals"), ("state", "pairs", "agent", "principals"), rpath)
            prof = tuple((str(x), str(y)) for x, y in row["pairs"])
            entries[(str(row["state"]), prof)] = (
                float(row["agent"]),
                tuple(float(v) for v in row["principals"]),
            )
        outside = _parse_expr(pay.get("outside", "0"), f"{ppath}.outside")
        payoffs = ec.PayoffModel.from_table(entries, n_principals=len(principals), outside=outside)
    else:
        raise ScenarioError(f"schema error at {ppath}.mode: expected 'expressions' or 'table'")
    env = ec.Environment(
        types=types,
        principals=tuple(principals),
        payoffs=payoffs,
        observability=obj.get("observability", "public"),
        optout=bool(obj.get("optout", True)),
    )
    if env.observability not in ("public", "private"):
        raise ScenarioError(f"schema error at {path}.observability: expected 'public' or 'private'")
    validation = ec.validate(env)
    if not validation.passed:
        raise ScenarioError(f"invalid environment at {path}: {'; '.join(validation.violations)}")
    return env


def _numbers(value, path: str, length: int | None = None) -> tuple[float, ...]:
    """A nonempty list of finite numbers, of ``length`` when given."""
    ok = isinstance(value, list) and len(value) > 0 and length in (None, len(value))
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    if not ok or not all(number(v) for v in value):
        size = f"{length} finite numbers" if length else "finite numbers"
        raise ScenarioError(f"schema error at {path}: expected a list of {size}")
    return tuple(float(v) for v in value)


def _number(value, path: str, ok=math.isfinite, expect: str = "a finite number"):
    """One JSON number (not a boolean) for which ``ok`` holds."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not ok(value):
        raise ScenarioError(f"schema error at {path}: expected {expect}")
    return value


def _integer(value, path: str, lo: int, hi: int, even: bool = False) -> int:
    """A JSON integer in [lo, hi], even when ``even`` is set."""
    ok = lambda v: isinstance(v, int) and lo <= v <= hi and not (even and v % 2)
    kind = "an even integer" if even else "an integer"
    return _number(value, path, ok, f"{kind} in [{lo}, {hi}]")


def _box(value, path: str) -> tuple[float, float]:
    """Two finite numbers, the first below the second."""
    lo, hi = _numbers(value, path, 2)
    if not lo < hi:
        raise ScenarioError(f"schema error at {path}: expected lo < hi")
    return lo, hi


def _single_problem_from(obj, path: str) -> ss.SingleProblem:
    _check_keys(
        obj,
        ("agent", "principal", "types", "x_box", "y_box", "x_grid", "y_grid", "panels"),
        ("agent", "principal", "types"),
        path,
    )
    return ss.SingleProblem(
        u=_parse_expr(obj["agent"], f"{path}.agent"),
        v=_parse_expr(obj["principal"], f"{path}.principal"),
        types=_typespace_from(obj["types"], f"{path}.types"),
        x_box=_box(obj.get("x_box", [0.0, 5.0]), f"{path}.x_box"),
        y_box=_box(obj.get("y_box", [0.0, 5.0]), f"{path}.y_box"),
        x_grid=_integer(obj.get("x_grid", 256), f"{path}.x_grid", 1, 100_000),
        y_grid=_integer(obj.get("y_grid", 256), f"{path}.y_grid", 1, 100_000),
        panels=_integer(obj.get("panels", 256), f"{path}.panels", 2, 100_000, even=True),
    )


def _agency_problem_from(obj, path: str) -> tuple[sa.AgencyProblem, dict]:
    _check_keys(
        obj,
        (
            "beta",
            "agent_utilities",
            "principal_payoffs",
            "types",
            "x_box",
            "y_box",
            "start",
            "damping",
            "fp_tol",
            "max_iter",
            "deviation_menus",
        ),
        ("beta", "agent_utilities", "principal_payoffs", "types"),
        path,
    )
    exprs = {}
    for key in ("agent_utilities", "principal_payoffs"):
        if not isinstance(obj[key], list) or len(obj[key]) != 2:
            raise ScenarioError(f"schema error at {path}.{key}: expected a list of two expressions")
        exprs[key] = tuple(_parse_expr(e, f"{path}.{key}[{i}]") for i, e in enumerate(obj[key]))
    problem = sa.AgencyProblem(
        beta=float(_number(obj["beta"], f"{path}.beta")),
        agent_utilities=exprs["agent_utilities"],
        principal_payoffs=exprs["principal_payoffs"],
        types=_typespace_from(obj["types"], f"{path}.types"),
        x_box=_box(obj.get("x_box", [0.0, 5.0]), f"{path}.x_box"),
        y_box=_box(obj.get("y_box", [0.0, 5.0]), f"{path}.y_box"),
        damping=float(
            _number(obj.get("damping", 0.5), f"{path}.damping", lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
        ),
        fp_tol=float(
            _number(obj.get("fp_tol", 2e-4), f"{path}.fp_tol", lambda v: 0.0 < v < math.inf, "a finite number > 0")
        ),
        max_iter=_integer(obj.get("max_iter", 200), f"{path}.max_iter", 1, 10_000),
    )
    mpath = f"{path}.deviation_menus"
    raw_menus = obj.get("deviation_menus", {})
    if not isinstance(raw_menus, Mapping):
        raise ScenarioError(f"schema error at {mpath}: expected an object")
    menus = {}
    for k, entries in raw_menus.items():
        if k not in ("1", "2"):
            raise ScenarioError(f"schema error at {mpath}.{k}: expected principal '1' or '2'")
        if not isinstance(entries, list):
            raise ScenarioError(f"schema error at {mpath}.{k}: expected a list of menus")
        menus[int(k) - 1] = [list(_numbers(m, f"{mpath}.{k}[{i}]")) for i, m in enumerate(entries)]
    start = _numbers(obj.get("start", [0.0, 0.0]), f"{path}.start", 2)
    return problem, {"start": start, "deviation_menus": menus}


def _revisable_from(obj, path: str) -> tuple[rv.RevisableModel, tuple[float, ...], int]:
    _check_keys(
        obj,
        ("mode", "sender", "receiver", "types", "z_grid", "alpha_steps", "z_range", "ideal_form"),
        ("mode", "sender", "receiver", "types", "z_grid", "alpha_steps"),
        path,
    )
    if obj["mode"] != "additive":
        raise ScenarioError(f"schema error at {path}.mode: grid checks support 'additive'")
    zg, zpath = obj["z_grid"], f"{path}.z_grid"
    _check_keys(zg, ("lo", "hi", "points"), ("lo", "hi", "points"), zpath)
    lo = float(_number(zg["lo"], f"{zpath}.lo"))
    hi = float(_number(zg["hi"], f"{zpath}.hi", lambda v: lo < v < math.inf, "a finite number above lo"))
    points = _integer(zg["points"], f"{zpath}.points", 2, 1000)
    # points - 1 steps already let every baseline reach every final action
    alpha_steps = _integer(obj["alpha_steps"], f"{path}.alpha_steps", 0, points - 1)
    ideal = obj.get("ideal_form")
    model = rv.RevisableModel.additive(
        _parse_expr(obj["sender"], f"{path}.sender"),
        _parse_expr(obj["receiver"], f"{path}.receiver"),
        _typespace_from(obj["types"], f"{path}.types"),
        alpha=0.0,
        z_range=_box(obj.get("z_range", [lo - 1.0, hi + 1.0]), f"{path}.z_range"),
        ideal_form=None if ideal is None else ("affine", *_numbers(ideal, f"{path}.ideal_form", 2)),
    )
    return model, tuple(np.linspace(lo, hi, points)), alpha_steps


_OPTION_KEYS = (
    "tol",
    "policies",
    "mixing",
    "cap",
    "principal",
    "space",
    "menu",
    "deviations",
    "aux_states",
)


def _options_from(raw: Mapping) -> dict:
    obj = raw.get("options", {})
    _check_keys(obj, _OPTION_KEYS, (), "$.options")
    out = dict(obj)
    for key in ("policies",):
        if key in out:
            out[key] = tuple(out[key])
    return out


def _assessment_from(env: ec.Environment, obj, path: str) -> eq.Assessment:
    _check_keys(
        obj,
        ("contracts", "strategy", "continuation", "offpath"),
        ("contracts", "strategy"),
        path,
    )
    mechs = []
    for j, c in enumerate(obj["contracts"]):
        cpath = f"{path}.contracts[{j}]"
        _check_keys(c, ("kind", "menu", "pairs"), ("kind",), cpath)
        needed = {"menu_rec": "menu", "plain": "menu", "submenu": "pairs"}.get(c["kind"])
        if needed is not None and needed not in c:
            raise ScenarioError(f"schema error at {cpath}.{needed}: missing field {needed!r}")
        if c["kind"] == "menu_rec":
            mechs.append(ct.menu_rec(env, j, [str(x) for x in c["menu"]]))
        elif c["kind"] == "plain":
            mechs.append(ct.plain_menu(env, j, [str(x) for x in c["menu"]]))
        elif c["kind"] == "submenu":
            mechs.append(ct.submenu(env, j, [(str(x), str(y)) for x, y in c["pairs"]]))
        else:
            raise ScenarioError(f"schema error at {cpath}.kind: unknown contract kind")
    strategy = {}
    for t_label, rows in obj["strategy"].items():
        dist = []
        for i, row in enumerate(rows):
            rpath = f"{path}.strategy[{t_label!r}][{i}]"
            _check_keys(row, ("profile", "opt_out", "prob"), ("prob",), rpath)
            if row.get("opt_out"):
                dist.append((ec.OPT_OUT, float(row["prob"])))
            else:
                dist.append((tuple(str(m) for m in row["profile"]), float(row["prob"])))
        strategy[str(t_label)] = tuple(dist)
    continuation = obj.get("continuation", "recommendation")
    if isinstance(continuation, list):
        cont: dict[int, dict] = {}
        for i, row in enumerate(continuation):
            rpath = f"{path}.continuation[{i}]"
            _check_keys(row, ("principal", "profile", "message", "action"), ("principal", "action"), rpath)
            j = int(row["principal"]) - 1
            col = cont.setdefault(j, {})
            if env.observability == "private":
                col[str(row["message"])] = str(row["action"])
            else:
                col[tuple(str(m) for m in row["profile"])] = str(row["action"])
        continuation = cont
    return eq.build_assessment(
        env,
        mechs,
        strategy,
        continuation=continuation,
        offpath=obj.get("offpath", "prior"),
    )


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _config_hash(raw: Mapping) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def _search_options(opts: Mapping, tol: float | None) -> eq.SearchOptions:
    return eq.SearchOptions(
        tol=float(opts.get("tol", 1e-9)) if tol is None else tol,
        policies=tuple(opts.get("policies", ("prior",))),
        mixing=opts.get("mixing", "pure"),
        cap=int(opts.get("cap", 5_000_000)),
    )


def _allocation_payload(alloc: ec.Allocation) -> list:
    rows = []
    for t_label in sorted(alloc.entries):
        for outcome, prob in alloc.entries[t_label]:
            if outcome == ec.OPT_OUT:
                rows.append({"type": t_label, "outcome": "opt-out", "prob": prob})
            else:
                rows.append(
                    {
                        "type": t_label,
                        "outcome": [[x, y] for x, y in outcome],
                        "prob": prob,
                    }
                )
    return rows


def _equilibrium_payload(rep: eq.EquilibriumReport) -> dict:
    return {
        "passed": rep.passed,
        "bayes_ok": rep.bayes_ok,
        "bayes_gap": rep.bayes_gap,
        "agent_ok": rep.agent_ok,
        "agent_worst": list(rep.agent_worst) if rep.agent_worst else None,
        "principal_ok": rep.principal_ok,
        "principal_worst": list(rep.principal_worst) if rep.principal_worst else None,
        "values": list(rep.values),
        "ties": len(rep.ties),
        "allocation": _allocation_payload(rep.allocation),
    }


def _mechanism_payload(mech: ct.Mechanism) -> list:
    return [
        {"message": m.label, "action": m.action, "recommendation": m.recommendation}
        for m in mech.messages
    ]


def run(sc: ScenarioFile, tol: float | None = None) -> RunReport:
    """Execute a parsed scenario and assemble its report."""
    start = time.perf_counter()
    report = RunReport(command=sc.command, config_hash=_config_hash(sc.raw), payload={})
    handler = _HANDLERS[sc.command]
    handler(sc, report, sc.blocks["options"], tol)
    report.payload = {
        "command": sc.command,
        "config_hash": report.config_hash,
        "results": report.payload,
        "warnings": list(report.warnings),
    }
    report.wall_time = time.perf_counter() - start
    return report


def _run_solve_single(sc, report, opts, tol):
    result = ss.solve(sc.blocks["problem"])
    report.payload = {
        "x": result.x,
        "y": result.y,
        "cutoff_kind": result.cutoff.kind if result.cutoff else None,
        "cutoff": result.cutoff.theta if result.cutoff else None,
        "value": result.value,
        "stay_prob": result.stay_prob,
        "no_trade": result.no_trade,
    }
    report.tables["solve_trace"] = (
        ("x", "inner_value"),
        [(x, v if np.isfinite(v) else "invalid") for x, v in result.x_trace],
    )


def _run_solve_agency(sc, report, opts, tol):
    problem, extras = sc.blocks["agency"]
    eqm = sa.fixed_point(problem, start=extras["start"])
    report.payload = {
        "x": list(eqm.x),
        "y": list(eqm.y),
        "cutoffs": list(eqm.cutoffs),
        "values": list(eqm.values),
        "residual": eqm.residual,
        "iterations": eqm.iterations,
        "converged": eqm.converged,
    }
    report.tables["trajectory"] = (
        ("iteration", "x1", "x2"),
        [(i, x1, x2) for i, (x1, x2) in enumerate(eqm.trajectory)],
    )
    offers = np.linspace(problem.x_box[0], min(problem.x_box[1], 4.0), 9)
    curve, _ = sa.best_response(problem, 0, offers, fast=True)  # one batched pass
    report.tables["best_response"] = (
        ("x_other", "best_response"),
        [(float(xo), float(br)) for xo, br in zip(offers, curve)],
    )
    menus = extras["deviation_menus"]
    if menus:
        ok, findings = sa.robustness_check(problem, eqm, menus)
        report.payload["robustness"] = [
            {
                "principal": f.principal + 1,
                "menu": list(f.menu),
                "best_offer": f.best_offer,
                "deviation_value": f.deviation_value,
                "equilibrium_value": f.equilibrium_value,
                "safe_profitable": f.safe_profitable,
            }
            for f in findings
        ]
        if not ok:
            report.exit_code = 1
            report.warnings.append("safe-profitable deviation found")


def _run_revisable_check(sc, report, opts, tol):
    model, z, steps = sc.blocks["revisable"]
    gamma = rv.check_gamma_equal(model, z, steps, tol=tol or 1e-9)
    report.payload = {
        "equal": gamma.equal,
        "n_limited": gamma.n_limited,
        "n_full": gamma.n_full,
        "transforms_ok": gamma.transforms_ok,
        "lift_failures": gamma.lift_failures,
        "collapse_failures": gamma.collapse_failures,
    }

    def rows_of(allocs):
        keyed = sorted(allocs, key=lambda fa: repr(fa.key()))
        rows = []
        for idx, fa in enumerate(keyed):
            regime = f"alloc{idx:04d}"
            for t_label in sorted(fa.entries):
                for zv, prob in fa.entries[t_label]:
                    rows.append((t_label, zv, prob, regime))
        return rows

    report.tables["gamma_alpha"] = (("type", "z", "probability", "regime"), rows_of(gamma.limited))
    report.tables["gamma_zero"] = (("type", "z", "probability", "regime"), rows_of(gamma.full))
    if not (gamma.equal and gamma.transforms_ok):
        report.exit_code = 1
        report.warnings.append("allocation sets differ between revision bounds")


def _run_enumerate(sc, report, opts, tol):
    env = sc.blocks["environment"]
    j = int(opts.get("principal", 1)) - 1
    space = opts.get("space", "gstar")
    if space == "gstar":
        mechs = ct.enumerate_gstar(env, j)
    elif space == "gsharp":
        mechs = ct.enumerate_gsharp(env, j)
    elif space == "private":
        mechs = ct.enumerate_private(env, j)
    else:
        raise ScenarioError(f"schema error at $.options.space: unknown space {space!r}")
    report.payload = {
        "principal": j + 1,
        "space": space,
        "count": len(mechs),
        "contracts": [_mechanism_payload(m) for m in mechs],
    }


def _run_check_equilibrium(sc, report, opts, tol):
    env = sc.blocks["environment"]
    assessment = _assessment_from(env, sc.raw["assessment"], "$.assessment")
    rep = eq.check_continuation(env, assessment, tol or float(opts.get("tol", 1e-9)))
    report.payload = _equilibrium_payload(rep)
    if not rep.passed:
        report.exit_code = 1
        report.warnings.append("assessment fails continuation checks")


def _deviation_space_from(env, opts):
    name = opts.get("deviations")
    if name is None:
        return None
    builders = {
        "gstar": ct.enumerate_gstar,
        "gsharp": ct.enumerate_gsharp,
        "private": ct.enumerate_private,
    }
    if name not in builders:
        raise ScenarioError(f"schema error at $.options.deviations: unknown space {name!r}")
    return {j: builders[name](env, j) for j in range(env.n)}


def _run_robust(sc, report, opts, tol, require_private=False):
    env = sc.blocks["environment"]
    if require_private and env.observability != "private":
        raise ScenarioError("private-check requires an environment with private observability")
    assessment = _assessment_from(env, sc.raw["assessment"], "$.assessment")
    options = _search_options(opts, tol)
    base = eq.check_continuation(env, assessment, options.tol)
    if not base.passed:
        report.payload = {"base": _equilibrium_payload(base), "findings": []}
        report.exit_code = 1
        report.warnings.append("assessment fails continuation checks")
        return
    rep = eq.check_robust(
        env, assessment, deviation_space=_deviation_space_from(env, opts),
        options=options, tol=options.tol,
    )
    report.payload = {
        "passed": rep.passed,
        "base": _equilibrium_payload(rep.base),
        "findings": [
            {
                "principal": f.principal + 1,
                "deviation_kind": f.deviation.kind,
                "deviation": _mechanism_payload(f.deviation),
                "outcome": f.outcome,
                "worst_value": f.worst_value,
                "best_value": f.best_value,
                "gain": f.gain,
            }
            for f in rep.findings
        ],
    }
    if not rep.passed:
        report.exit_code = 1
        for f in rep.findings:
            if f.outcome == "safe-profitable":
                report.warnings.append(
                    f"safe-profitable deviation: {f.deviation.kind} for principal {f.principal + 1}"
                )


def _run_necessity(sc, report, opts, tol):
    skeleton = sc.blocks["environment"]
    j = int(opts.get("principal", 1)) - 1
    menu = [str(x) for x in opts.get("menu", skeleton.principals[j].x_labels)]
    env, ref_alloc, phi = ct.necessity_environment(skeleton, j, menu)
    validation = ec.validate(env)
    contracts = []
    for k in range(env.n):
        contracts.append(
            ct.menu_rec(env, k, menu if k == j else [env.principals[k].x_labels[0]])
        )
    strategy = {}
    for lab in env.types.labels:
        prof = []
        for k in range(env.n):
            if k == j:
                x = phi[lab]
            else:
                x = env.principals[k].x_labels[0]
            y = env.principals[k].feasible[x][0]
            prof.append(f"{x}|{y}")
        strategy[lab] = ((tuple(prof), 1.0),)
    assessment = eq.build_assessment(env, contracts, strategy)
    rep = eq.check_continuation(env, assessment, tol or 1e-9)
    options = _search_options(opts, tol)
    found = eq.enumerate_equilibria(env, contracts, options)
    used = set()
    for fe in found:
        for dist in fe.allocation.entries.values():
            for outcome, p in dist:
                if outcome != ec.OPT_OUT and p > 0:
                    used.add(outcome[j][0])
    image_ok = used == set(menu)
    values_ok = all(abs(v - 1.0) <= 1e-12 for v in rep.values)
    report.payload = {
        "menu": menu,
        "phi": {lab: phi[lab] for lab in env.types.labels},
        "validation_passed": validation.passed,
        "reference": _equilibrium_payload(rep),
        "reference_values_are_one": values_ok,
        "n_equilibria": len(found),
        "equilibrium_image": sorted(used),
        "image_matches_menu": image_ok,
    }
    if not (validation.passed and rep.passed and values_ok and image_ok):
        report.exit_code = 1
        report.warnings.append("necessity construction failed a check")


def _run_plain_menu_demo(sc, report, opts, tol):
    env, assessment, deviation, meta = ct.plain_menu_scenario(
        n_aux=int(opts.get("aux_states", 0))
    )
    options = _search_options(opts, tol)
    base = eq.check_continuation(env, assessment, options.tol)
    state_values = eq.principal_state_values(env, assessment, meta["deviator"])
    rep = eq.check_robust(env, assessment, options=options, tol=options.tol)
    post = eq.private_post_deviation_values(
        env, assessment, meta["deviator"], deviation, options
    )
    report.payload = {
        "kappa": meta["kappa"],
        "separating": _equilibrium_payload(base),
        "deviator_state_values": {k: state_values[k] for k in sorted(state_values)},
        "post_deviation_values": sorted(set(round(float(v), 12) for v in post)),
        "robust_passed": rep.passed,
        "findings": [
            {
                "principal": f.principal + 1,
                "deviation_kind": f.deviation.kind,
                "outcome": f.outcome,
                "worst_value": f.worst_value,
            }
            for f in rep.findings
        ],
    }
    if not rep.passed:
        report.exit_code = 1
        for f in rep.findings:
            if f.outcome == "safe-profitable":
                report.warnings.append(
                    f"safe-profitable deviation: {'PlainMenu' if f.deviation.kind == 'plain' else f.deviation.kind}"
                    f" for principal {f.principal + 1}"
                )


_HANDLERS = {
    "solve-single": _run_solve_single,
    "solve-agency": _run_solve_agency,
    "revisable-check": _run_revisable_check,
    "enumerate-canonical": _run_enumerate,
    "check-equilibrium": _run_check_equilibrium,
    "robust-check": lambda sc, r, o, t: _run_robust(sc, r, o, t, False),
    "private-check": lambda sc, r, o, t: _run_robust(sc, r, o, t, True),
    "necessity-env": _run_necessity,
    "plain-menu-demo": _run_plain_menu_demo,
}


def write_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Emit report.json and CSV tables with deterministic bytes."""
    return write_report_files(out_dir, report.payload, report.tables)


@click.command(name="contract-forge")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(), help="Scenario JSON file.")
@click.option("--out", "out_dir", default=None, help="Output directory (default: $CONTRACT_FORGE_OUT or ./reports).")
@click.option("--tol", default=None, type=float, help="Override the scenario tolerance.")
def main(scenario_path, out_dir, tol):
    """Run a scenario and write its report."""
    out = out_dir or os.environ.get("CONTRACT_FORGE_OUT") or "reports"
    try:
        sc = parse_scenario(scenario_path)
        report = run(sc, tol=tol)
        files = write_report(report, out)
    except (ValueError, RuntimeError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    click.echo(f"wrote {', '.join(str(f) for f in files)} in {report.wall_time:.2f}s", err=True)
    for w in report.payload["warnings"]:
        click.echo(f"finding: {w}", err=True)
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()
