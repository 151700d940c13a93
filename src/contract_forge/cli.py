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
from dataclasses import dataclass, field, replace
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
from .reportio import write_report_files

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Schema or expression error located by a JSON path."""


def _check_keys(obj: Mapping, allowed: Sequence[str], required: Sequence[str], path: str):
    if not isinstance(obj, Mapping):
        raise ScenarioError(f"schema error at {path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"schema error at {path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"schema error at {path}: missing field {key!r}")


def _parse_expr(text, path: str, names: Sequence[str] | None = None) -> exprlang.Expr:
    """An expression string, over only ``names`` when given."""
    if not isinstance(text, str):
        raise ScenarioError(f"schema error at {path}: expected an expression string")
    try:
        expr = exprlang.parse(text)
    except exprlang.ParseError as e:
        raise ScenarioError(f"expression error at {path}: {e}") from None
    unknown = sorted(exprlang.free_vars(expr).difference(names)) if names is not None else ()
    if unknown:
        raise ScenarioError(f"expression error at {path}: unknown variable {unknown[0]!r}")
    return expr


def _number(value, path: str, ok=math.isfinite, expect: str = "a finite number"):
    """One JSON number (not a boolean) for which ``ok`` holds."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not ok(value):
        raise ScenarioError(f"schema error at {path}: expected {expect}")
    return value


def _integer(value, path: str, lo: int, hi: int) -> int:
    """A JSON integer in [lo, hi]."""
    return _number(value, path, lambda v: isinstance(v, int) and lo <= v <= hi, f"an integer in [{lo}, {hi}]")


def _text(value, path: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ScenarioError(f"schema error at {path}: expected a string")
    return value


def _choice(value, path: str, choices: Sequence):
    """One of ``choices``, compared with its JSON type (true is not 1)."""
    if not any(type(value) is type(c) and value == c for c in choices):
        listed = ", ".join(json.dumps(c) for c in choices)
        raise ScenarioError(f"schema error at {path}: expected one of {listed}")
    return value


def _list(value, path: str, length: int | None = None) -> list:
    """A nonempty JSON list, of ``length`` items when given."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        raise ScenarioError(f"schema error at {path}: expected a list of {length or 'one or more'} items")
    return value


def _numbers(value, path: str, length: int | None = None) -> tuple[float, ...]:
    """A nonempty list of finite numbers, of ``length`` when given."""
    return tuple(float(_number(v, f"{path}[{i}]")) for i, v in enumerate(_list(value, path, length)))


def _box(value, path: str, bound: float = math.inf) -> tuple[float, float]:
    """Two finite numbers in [-bound, bound], the first below the second."""
    lo, hi = _numbers(value, path, 2)
    if not lo < hi or max(-lo, hi) > bound:
        within = "" if bound == math.inf else f" in [-{bound:g}, {bound:g}]"
        raise ScenarioError(f"schema error at {path}: expected lo < hi{within}")
    return lo, hi


@dataclass(frozen=True, slots=True)
class ScenarioFile:
    command: str
    raw: Mapping
    # built and checked blocks by name ("environment", "assessment",
    # "problem", "agency", "revisable", "options"); handlers read only
    # these, and ``raw`` serves the config hash
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

_TOP_KEYS = ("schema", "command", "environment", "assessment", "problem", "agency", "revisable", "options")

# contract spaces by option value: ``space`` s is enumerated by
# ``ct.enumerate_<s>``, looked up when called
_SPACES = ("gstar", "gsharp", "private")


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
    for block in _COMMAND_SPECS[command][0]:
        if block not in raw:
            raise ScenarioError(f"schema error at $: command {command!r} needs {block!r}")
    return ScenarioFile(command=command, raw=raw, blocks=_build_blocks(raw, command))


def _build_blocks(raw: Mapping, command: str) -> dict:
    """Build (and so check) every block present, once.

    A ValueError that a library constructor raises while a block is
    built is reported as a ScenarioError at that block's path.
    """
    blocks: dict = {}
    builders = {
        "environment": _environment_from,
        "problem": _single_problem_from,
        "agency": _agency_problem_from,
        "revisable": _revisable_from,
        "assessment": lambda obj, path: _assessment_from(blocks.get("environment"), obj, path),
        "options": lambda obj, path: _options_from(obj, path, command, blocks.get("environment")),
    }
    for name, build in builders.items():
        if name in raw or name == "options":
            try:
                blocks[name] = build(raw.get(name, {}), f"$.{name}")
            except ScenarioError:
                raise
            except ValueError as e:
                raise ScenarioError(f"invalid {name} at $.{name}: {e}") from None
    return blocks


def _typespace_from(obj, path: str, kinds: Sequence[str] = ("finite", "interval")) -> ec.TypeSpace:
    _check_keys(obj, ("kind", "items", "lo", "hi", "density", "mean", "sd"), ("kind",), path)
    if _choice(obj["kind"], f"{path}.kind", kinds) == "finite":
        _check_keys(obj, ("kind", "items"), ("items",), path)
        rows = []
        for i, it in enumerate(_list(obj["items"], f"{path}.items")):
            ipath = f"{path}.items[{i}]"
            _check_keys(it, ("label", "value", "weight"), ("label", "value", "weight"), ipath)
            value, weight = (float(_number(it[k], f"{ipath}.{k}")) for k in ("value", "weight"))
            rows.append((_text(it["label"], f"{ipath}.label"), value, weight))
        types = ec.TypeSpace.from_finite(rows)
        for i, key, message in ec.finite_type_violations(types.finite):
            where = f"{path}.items" if i is None else f"{path}.items[{i}].{key}"
            raise ScenarioError(f"invalid types at {where}: {message}")
        return types
    _check_keys(obj, ("kind", "lo", "hi", "density", "mean", "sd"), ("lo", "hi"), path)
    lo = float(_number(obj["lo"], f"{path}.lo"))
    return ec.TypeSpace.interval(
        lo,
        float(_number(obj["hi"], f"{path}.hi", lambda v: lo < v < math.inf, "a finite number above lo")),
        density=_choice(obj.get("density", "uniform"), f"{path}.density", ("uniform", "normal")),
        mean=float(_number(obj.get("mean", 0.0), f"{path}.mean")),
        sd=float(_number(obj.get("sd", 1.0), f"{path}.sd", lambda v: 0.0 < v < math.inf, "a finite number > 0")),
    )


def _actions_from(items, path: str) -> tuple[ec.ActionValue, ...]:
    out = []
    for i, it in enumerate(_list(items, path)):
        ipath = f"{path}[{i}]"
        _check_keys(it, ("label", "value"), ("label",), ipath)
        value = it.get("value")
        label = _text(it["label"], f"{ipath}.label")
        if any(a.label == label for a in out):
            raise ScenarioError(f"schema error at {ipath}.label: duplicate label {label!r}")
        out.append(ec.ActionValue(label, None if value is None else float(_number(value, f"{ipath}.value"))))
    return tuple(out)


def _environment_from(obj, path: str) -> ec.Environment:
    required = ("types", "principals", "payoffs")
    _check_keys(obj, required + ("observability", "optout"), required, path)
    types = _typespace_from(obj["types"], f"{path}.types")
    principals = []
    for j, spec in enumerate(_list(obj["principals"], f"{path}.principals")):
        spath = f"{path}.principals[{j}]"
        _check_keys(spec, ("contractible", "noncontractible", "feasible"), ("contractible", "noncontractible", "feasible"), spath)
        xs = _actions_from(spec["contractible"], f"{spath}.contractible")
        ys = _actions_from(spec["noncontractible"], f"{spath}.noncontractible")
        fpath, y_labels = f"{spath}.feasible", [y.label for y in ys]
        _check_keys(spec["feasible"], [x.label for x in xs], (), fpath)
        feasible = {
            x: tuple(_choice(y, f"{fpath}.{x}[{i}]", y_labels) for i, y in enumerate(_list(v, f"{fpath}.{x}")))
            for x, v in spec["feasible"].items()
        }
        principals.append(ec.PrincipalSpec(contractible=xs, noncontractible=ys, feasible=feasible))
    n = len(principals)
    pay, ppath = obj["payoffs"], f"{path}.payoffs"
    _check_keys(pay, ("mode", "agent", "principals", "outside", "entries"), ("mode",), ppath)
    outside = _parse_expr(pay.get("outside", "0"), f"{ppath}.outside")
    if _choice(pay["mode"], f"{ppath}.mode", ("expressions", "table")) == "expressions":
        _check_keys(pay, ("mode", "agent", "principals", "outside"), ("agent", "principals"), ppath)
        pexprs = _list(pay["principals"], f"{ppath}.principals", n)
        pexprs = [_parse_expr(e, f"{ppath}.principals[{i}]") for i, e in enumerate(pexprs)]
        payoffs = ec.PayoffModel.from_expressions(_parse_expr(pay["agent"], f"{ppath}.agent"), pexprs, outside)
    else:
        _check_keys(pay, ("mode", "outside", "entries"), ("entries",), ppath)
        entries = {}
        for i, row in enumerate(_list(pay["entries"], f"{ppath}.entries")):
            rpath = f"{ppath}.entries[{i}]"
            _check_keys(row, ("state", "pairs", "agent", "principals"), ("state", "pairs", "agent", "principals"), rpath)
            prof = tuple(
                tuple(_text(v, f"{rpath}.pairs[{k}][{m}]") for m, v in enumerate(_list(pair, f"{rpath}.pairs[{k}]", 2)))
                for k, pair in enumerate(_list(row["pairs"], f"{rpath}.pairs", n))
            )
            agent = float(_number(row["agent"], f"{rpath}.agent"))
            entries[(_text(row["state"], f"{rpath}.state"), prof)] = (agent, _numbers(row["principals"], f"{rpath}.principals", n))
        payoffs = ec.PayoffModel.from_table(entries, n_principals=n, outside=outside)
    env = ec.Environment(
        types=types,
        principals=tuple(principals),
        payoffs=payoffs,
        observability=_choice(obj.get("observability", "public"), f"{path}.observability", ("public", "private")),
        optout=_choice(obj.get("optout", True), f"{path}.optout", (True, False)),
    )
    validation = ec.validate(env)
    if not validation.passed:
        raise ScenarioError(f"invalid environment at {path}: {'; '.join(validation.violations)}")
    return env


def _solver_problem(cls, path: str, **fields):
    """``cls(**fields)``; a density that the solver kernel's quadrature
    does not integrate to 1 is an error at the block's ``types``."""
    try:
        return cls(**fields)
    except ec.DensityError as e:
        raise ScenarioError(f"invalid types at {path}.types: {e}") from None


def _boxes(obj, path: str) -> dict:
    """The ``x_box``/``y_box`` fields a block sets; the problem types declare the defaults."""
    return {key: _box(obj[key], f"{path}.{key}") for key in ("x_box", "y_box") if key in obj}


def _single_problem_from(obj, path: str) -> ss.SingleProblem:
    required = ("agent", "principal", "types")
    _check_keys(obj, required + ("x_box", "y_box"), required, path)
    return _solver_problem(
        ss.SingleProblem,
        path,
        u=_parse_expr(obj["agent"], f"{path}.agent"),
        v=_parse_expr(obj["principal"], f"{path}.principal"),
        types=_typespace_from(obj["types"], f"{path}.types"),
        **_boxes(obj, path),
    )


def _agency_problem_from(obj, path: str) -> tuple[sa.AgencyProblem, dict]:
    required = ("beta", "agent_utilities", "principal_payoffs", "types")
    optional = ("x_box", "y_box", "start", "deviation_menus")
    _check_keys(obj, required + optional, required, path)
    exprs = {
        key: tuple(_parse_expr(e, f"{path}.{key}[{i}]") for i, e in enumerate(_list(obj[key], f"{path}.{key}", 2)))
        for key in ("agent_utilities", "principal_payoffs")
    }
    problem = _solver_problem(
        sa.AgencyProblem,
        path,
        beta=float(_number(obj["beta"], f"{path}.beta")),
        agent_utilities=exprs["agent_utilities"],
        principal_payoffs=exprs["principal_payoffs"],
        types=_typespace_from(obj["types"], f"{path}.types"),
        **_boxes(obj, path),
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
    fixed_point = {"start": _numbers(obj["start"], f"{path}.start", 2)} if "start" in obj else {}
    lo, hi = problem.x_box
    if not all(lo <= x <= hi for x in fixed_point.get("start", ())):
        raise ScenarioError(f"schema error at {path}.start: expected two offers in x_box [{lo!r}, {hi!r}]")
    return problem, {"fixed_point": fixed_point, "deviation_menus": menus}


def _revisable_from(obj, path: str) -> tuple[rv.RevisableModel, tuple[float, ...], int]:
    required = ("mode", "sender", "receiver", "types", "z_grid", "alpha_steps")
    _check_keys(obj, required + ("z_range", "ideal_form"), required, path)
    _choice(obj["mode"], f"{path}.mode", ("additive",))  # grid checks support additive revision only
    zg, zpath = obj["z_grid"], f"{path}.z_grid"
    _check_keys(zg, ("lo", "hi", "points"), ("lo", "hi", "points"), zpath)
    # within 1e6 of zero the grid's rounding stays below rv.GRID_TOL, at which grid games match actions
    lo = float(_number(zg["lo"], f"{zpath}.lo", lambda v: abs(v) <= 1e6, "a number in [-1e6, 1e6]"))
    hi = float(_number(zg["hi"], f"{zpath}.hi", lambda v: lo < v <= 1e6, "a number in (lo, 1e6]"))
    points = _integer(zg["points"], f"{zpath}.points", 2, 1000)
    z = np.linspace(lo, hi, points)
    try:
        rv.grid_step(z)
    except ValueError as e:
        raise ScenarioError(f"invalid revisable at {zpath}: {e}") from None
    # points - 1 steps already let every baseline reach every final action
    alpha_steps = _integer(obj["alpha_steps"], f"{path}.alpha_steps", 0, points - 1)
    types = _typespace_from(obj["types"], f"{path}.types", ("finite",))
    if (zero := rv.zero_weight_type(types)) is not None:
        raise ScenarioError(f"invalid revisable at {path}.types.items[{zero[0]}].weight: {zero[1]}")
    values = sorted(types.values)  # the grid game's table payoffs are looked up by type value
    if any(ec.same_value(a, b) for a, b in zip(values, values[1:])):
        raise ScenarioError(f"invalid revisable at {path}.types: table payoffs need distinct type values")
    sender = _parse_expr(obj["sender"], f"{path}.sender", ("z", "theta"))
    receiver = _parse_expr(obj["receiver"], f"{path}.receiver", ("z", "theta"))
    # the grid's bound: beyond it the concavity audit overflows
    z_range = _box(obj["z_range"], f"{path}.z_range", 1e6) if "z_range" in obj else (lo - 1.0, hi + 1.0)
    ideal = ("affine", *_numbers(obj["ideal_form"], f"{path}.ideal_form", 2)) if "ideal_form" in obj else None
    try:
        model = rv.RevisableModel.additive(sender, receiver, types, 0.0, z_range, ideal)
    except rv.ConcavityError as e:
        raise ScenarioError(f"invalid revisable at {path}.receiver: {e}") from None
    except rv.IdealFormError as e:
        raise ScenarioError(f"schema error at {path}.ideal_form: {e}") from None
    for name, fn in (("sender", model.sender_fn), ("receiver", model.receiver_fn)):  # finite, as validated payoffs are
        if not np.all(np.isfinite(fn(z[:, None], types.values))):
            raise ScenarioError(f"invalid revisable at {path}.{name}: not finite at every grid point and type")
    return model, tuple(z), alpha_steps


@dataclass(frozen=True, slots=True)
class Options:
    """The options block, with the default of every option it leaves out."""

    search: eq.SearchOptions = field(default_factory=eq.SearchOptions)  # the _SEARCH options
    principal: int = 0  # 0-based
    space: str = "gstar"
    menu: tuple[str, ...] = ()  # necessity-env: all of the principal's contractible actions by default
    deviations: str | None = None  # None: the audit's own space (private or gstar)
    aux_states: int = 0


# option -> reader(value, path, environment); ``_options_from`` reads ``menu``
# itself, once ``principal`` is known
_OPTION_READERS = {
    "tol": lambda v, p, env: float(_number(v, p, lambda t: 0.0 <= t < math.inf, "a finite number >= 0")),
    "principal": lambda v, p, env: _integer(v, p, 1, env.n) - 1,
    "space": lambda v, p, env: _choice(v, p, _SPACES),
    "deviations": lambda v, p, env: _choice(v, p, _SPACES),
    # plain-menu-demo time grows about 30-fold per auxiliary state
    "aux_states": lambda v, p, env: _integer(v, p, 0, 3),
    "policies": lambda v, p, env: tuple(
        _choice(x, f"{p}[{i}]", eq.OFFPATH_POLICIES) for i, x in enumerate(_list(v, p))
    ),
    "mixing": lambda v, p, env: _choice(v, p, ("pure", "two-point")),
    "cap": lambda v, p, env: _integer(v, p, 1, 1_000_000_000),
}


def _options_from(obj, path: str, command: str, env: ec.Environment | None) -> Options:
    _check_keys(obj, _COMMAND_SPECS[command][1], (), path)
    read = {k: _OPTION_READERS[k](v, f"{path}.{k}", env) for k, v in obj.items() if k != "menu"}
    opts = Options(eq.SearchOptions(**{k: read.pop(k) for k in _SEARCH if k in read}), **read)
    if "menu" not in _COMMAND_SPECS[command][1]:
        return opts
    menu = labels = env.principals[opts.principal].x_labels
    if "menu" in obj:
        menu = tuple(_choice(x, f"{path}.menu[{i}]", labels) for i, x in enumerate(_list(obj["menu"], f"{path}.menu")))
    if len(set(menu)) > len(env.types.finite):  # the construction gives each menu action a type
        raise ScenarioError(f"schema error at {path}.menu: {len(set(menu))} actions for {len(env.types.finite)} types")
    return replace(opts, menu=menu)


def _assessment_from(env: ec.Environment | None, obj, path: str) -> eq.Assessment:
    if env is None:
        raise ScenarioError(f"schema error at {path}: an assessment needs an environment")
    _check_keys(obj, ("contracts", "strategy", "continuation", "offpath"), ("contracts", "strategy"), path)
    mechs = []
    for j, c in enumerate(_list(obj["contracts"], f"{path}.contracts", env.n)):
        cpath = f"{path}.contracts[{j}]"
        _check_keys(c, ("kind", "menu", "pairs"), ("kind",), cpath)
        kind = _choice(c["kind"], f"{cpath}.kind", ("menu_rec", "plain", "submenu"))
        key = "pairs" if kind == "submenu" else "menu"
        items = _list(c.get(key), f"{cpath}.{key}")
        if kind == "submenu":
            pairs = [
                tuple(_text(v, f"{cpath}.pairs[{i}][{k}]") for k, v in enumerate(_list(pair, f"{cpath}.pairs[{i}]", 2)))
                for i, pair in enumerate(items)
            ]
            mechs.append(ct.submenu(env, j, pairs))
        else:
            menu = [_choice(x, f"{cpath}.menu[{i}]", env.principals[j].x_labels) for i, x in enumerate(items)]
            mechs.append((ct.menu_rec if kind == "menu_rec" else ct.plain_menu)(env, j, menu))

    def profile(value, ppath: str) -> tuple[str, ...]:
        """One message per principal, each from that principal's contract."""
        return tuple(_choice(m, f"{ppath}[{k}]", mechs[k].labels) for k, m in enumerate(_list(value, ppath, env.n)))

    spath, strategy = f"{path}.strategy", {}
    _check_keys(obj["strategy"], env.types.labels, env.types.labels, spath)
    for t_label, rows in obj["strategy"].items():
        dist = []
        for i, row in enumerate(_list(rows, f"{spath}.{t_label}")):
            rpath = f"{spath}.{t_label}[{i}]"
            _check_keys(row, ("profile", "opt_out", "prob"), ("prob",), rpath)
            prob = float(_number(row["prob"], f"{rpath}.prob", lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"))
            opt_out = _choice(row.get("opt_out", False), f"{rpath}.opt_out", (True, False))
            dist.append((ec.OPT_OUT if opt_out else profile(row.get("profile"), f"{rpath}.profile"), prob))
        strategy[t_label] = tuple(dist)
    continuation = obj.get("continuation", "recommendation")
    if not isinstance(continuation, list):
        _choice(continuation, f"{path}.continuation", ("recommendation",))
        for j, mech in enumerate(mechs):
            if any(m.recommendation is None for m in mech.messages):
                raise ScenarioError(
                    f"invalid assessment at {path}.contracts[{j}]: contract of principal {j + 1} has messages "
                    "without recommendations, so the \"recommendation\" continuation cannot follow them"
                )
    else:
        private = env.observability == "private"
        cont: dict[int, dict] = {j: {} for j in range(env.n)}
        for i, row in enumerate(_list(continuation, f"{path}.continuation")):
            rpath = f"{path}.continuation[{i}]"
            required = ("principal", "message" if private else "profile", "action")
            _check_keys(row, ("principal", "profile", "message", "action"), required, rpath)
            j = _integer(row["principal"], f"{rpath}.principal", 1, env.n) - 1
            if private:
                key = _choice(row["message"], f"{rpath}.message", mechs[j].labels)
            else:
                key = profile(row["profile"], f"{rpath}.profile")
            x = mechs[j].messages[mechs[j].index_of(key if private else key[j])].action
            cont[j][key] = _choice(row["action"], f"{rpath}.action", env.principals[j].feasible[x])
        # every key is one of principal j's messages (private) or one message profile (public)
        for j in range(env.n):
            need = len(mechs[j].labels) if private else math.prod(len(m.labels) for m in mechs)
            if len(cont[j]) < need:
                raise ScenarioError(
                    f"schema error at {path}.continuation: principal {j + 1} acts at {len(cont[j])} of {need} keys"
                )
        continuation = cont
    offpath = _choice(obj.get("offpath", "prior"), f"{path}.offpath", eq.OFFPATH_POLICIES)
    return eq.build_assessment(env, mechs, strategy, continuation=continuation, offpath=offpath)


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _config_hash(raw: Mapping) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def _allocation_payload(alloc: ec.Allocation) -> list:
    return [
        {"type": t, "outcome": outcome if outcome == ec.OPT_OUT else [[x, y] for x, y in outcome], "prob": prob}
        for t in sorted(alloc.entries)
        for outcome, prob in alloc.entries[t]
    ]


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


def run(sc: ScenarioFile) -> RunReport:
    """Execute a parsed scenario and assemble its report.

    Every checking command uses the scenario's ``options.tol``, else
    ``DEFAULT_TOL``.
    """
    start = time.perf_counter()
    report = RunReport(command=sc.command, config_hash=_config_hash(sc.raw), payload={})
    _COMMAND_SPECS[sc.command][2](sc, report, sc.blocks["options"])
    report.payload = {
        "command": sc.command,
        "config_hash": report.config_hash,
        "results": report.payload,
        "warnings": list(report.warnings),
    }
    report.wall_time = time.perf_counter() - start
    return report


def _quadrature(gauss: int) -> str:
    """The report's name of a stay integral rule of ``gauss`` Gauss nodes."""
    return "gauss-legendre" if gauss else "simpson"


def _run_solve_single(sc, report, opts):
    result = ss.solve(sc.blocks["problem"])
    report.payload = {
        "x": result.x,
        "y": result.y,
        "cutoff_kind": result.cutoff.kind if result.cutoff else None,
        "cutoff": result.cutoff.theta if result.cutoff else None,
        "value": result.value,
        "stay_prob": result.stay_prob,
        "no_trade": result.no_trade,
        "quadrature": _quadrature(result.gauss),
    }
    report.tables["solve_trace"] = (
        ("x", "inner_value"),
        [(x, v if np.isfinite(v) else "invalid") for x, v in result.x_trace],
    )


def _run_solve_agency(sc, report, opts):
    problem, extras = sc.blocks["agency"]
    offers = np.linspace(problem.x_box[0], min(problem.x_box[1], 4.0), 9)
    curve = sa.best_response(problem, 0, offers)  # one batched pass, whose answers the iteration reuses
    eqm = sa.fixed_point(problem, **extras["fixed_point"], responses=dict(zip(offers.tolist(), curve.tolist())))
    if eqm.gauss[0] != problem.gauss[0]:  # the fixed point fell back to Simpson's rule
        curve = sa.best_response(ss.with_gauss(problem, eqm.gauss), 0, offers)
    report.payload = {
        "x": list(eqm.x),
        "y": list(eqm.y),
        "cutoffs": list(eqm.cutoffs),
        "values": list(eqm.values),
        "residual": eqm.residual,
        "iterations": eqm.iterations,
        "converged": eqm.converged,
        "quadrature": [_quadrature(g) for g in eqm.gauss],
    }
    report.tables["trajectory"] = (
        ("iteration", "x1", "x2"),
        [(i, x1, x2) for i, (x1, x2) in enumerate(eqm.trajectory)],
    )
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


def _run_revisable_check(sc, report, opts):
    model, z, steps = sc.blocks["revisable"]
    gamma = rv.check_gamma_equal(model, z, steps, tol=opts.search.tol)
    report.payload = {
        "equal": gamma.equal,
        "n_limited": gamma.n_limited,
        "n_full": gamma.n_full,
        "transforms_ok": gamma.transforms_ok,
        "lift_failures": gamma.lift_failures,
        "collapse_failures": gamma.collapse_failures,
    }
    # the allocations found under one revision bound only: type -> [[z, probability], ...]
    for name, keys in (("only_limited", gamma.only_limited), ("only_full", gamma.only_full)):
        if keys:
            report.payload[name] = [{t: [list(zp) for zp in dist] for t, dist in key} for key in keys]

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
    if not gamma.equal:
        report.exit_code = 1
        report.warnings.append(
            f"allocation sets differ between revision bounds: {len(gamma.only_limited)} only limited, "
            f"{len(gamma.only_full)} only full"
        )
    if not gamma.transforms_ok:
        report.exit_code = 1
        report.warnings.append(f"lift or collapse fails: {gamma.lift_failures} lift, {gamma.collapse_failures} collapse")


def _run_enumerate(sc, report, opts):
    mechs = getattr(ct, f"enumerate_{opts.space}")(sc.blocks["environment"], opts.principal)
    report.payload = {
        "principal": opts.principal + 1,
        "space": opts.space,
        "count": len(mechs),
        "contracts": [_mechanism_payload(m) for m in mechs],
    }


def _run_check_equilibrium(sc, report, opts):
    rep = eq.check_continuation(sc.blocks["environment"], sc.blocks["assessment"], opts.search.tol)
    report.payload = _equilibrium_payload(rep)
    if not rep.passed:
        report.exit_code = 1
        report.warnings.append("assessment fails continuation checks")


def _findings(report, rep, keys=None, plain="plain") -> list[dict]:
    """The payload of a robustness audit's findings, each with ``keys``
    only when given. A failed audit exits 1 with one warning per
    safe-profitable deviation, which names a plain menu ``plain``."""
    out = []
    for f in rep.findings:
        kind = f.deviation.kind
        row = {"principal": f.principal + 1, "deviation_kind": kind, "deviation": _mechanism_payload(f.deviation),
               "outcome": f.outcome, "worst_value": f.worst_value, "best_value": f.best_value, "gain": f.gain}
        out.append({k: row[k] for k in keys or row})
        if not rep.passed and f.outcome == "safe-profitable":
            report.warnings.append(f"safe-profitable deviation: {plain if kind == 'plain' else kind} for principal {f.principal + 1}")
    if not rep.passed:
        report.exit_code = 1
    return out


def _run_robust(sc, report, opts):
    env, assessment = sc.blocks["environment"], sc.blocks["assessment"]
    if sc.command == "private-check" and env.observability != "private":
        raise ScenarioError("schema error at $.environment.observability: private-check requires 'private'")
    space = None if opts.deviations is None else {
        j: getattr(ct, f"enumerate_{opts.deviations}")(env, j) for j in range(env.n)
    }
    rep = eq.check_robust(env, assessment, deviation_space=space, options=opts.search)
    if not rep.base.passed:
        report.payload = {"base": _equilibrium_payload(rep.base), "findings": []}
        report.exit_code = 1
        report.warnings.append("assessment fails continuation checks")
        return
    report.payload = {"passed": rep.passed, "base": _equilibrium_payload(rep.base), "findings": _findings(report, rep)}


def _run_necessity(sc, report, opts):
    skeleton, j = sc.blocks["environment"], opts.principal
    menu = list(opts.menu)
    env, ref_alloc, phi = ct.necessity_environment(skeleton, j, menu)
    validation = ec.validate(env)
    # each type sends the messages of its reference profile, under menus of the actions used
    profiles = {lab: dist[0][0] for lab, dist in ref_alloc.entries.items()}
    contracts = [ct.menu_rec(env, k, [prof[k][0] for prof in profiles.values()]) for k in range(env.n)]
    strategy = {lab: ((tuple(ct.pair_label(x, y) for x, y in prof), 1.0),) for lab, prof in profiles.items()}
    assessment = eq.build_assessment(env, contracts, strategy)
    rep = eq.check_continuation(env, assessment, opts.search.tol)
    found = eq.enumerate_equilibria(env, contracts, opts.search)
    used = set()
    for fe in found:
        for dist in fe.allocation.entries.values():
            for outcome, p in dist:
                if outcome != ec.OPT_OUT and p > 0:
                    used.add(outcome[j][0])
    image_ok = used == set(menu)
    values_ok = all(abs(v - 1.0) <= 10.0 ** -ec.KEY_DIGITS for v in rep.values)
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


def _run_plain_menu_demo(sc, report, opts):
    env, assessment, deviation, meta = ct.plain_menu_scenario(n_aux=opts.aux_states)
    state_values = eq.principal_state_values(env, assessment, meta["deviator"])
    rep = eq.check_robust(env, assessment, options=opts.search)
    post = eq.private_post_deviation_values(env, assessment, meta["deviator"], deviation, opts.search)
    report.payload = {
        "kappa": meta["kappa"],
        "separating": _equilibrium_payload(rep.base),
        "deviator_state_values": {k: state_values[k] for k in sorted(state_values)},
        "post_deviation_values": sorted(set(round(float(v), ec.KEY_DIGITS) for v in post)),
        "robust_passed": rep.passed,
        "findings": _findings(report, rep, ("principal", "deviation_kind", "outcome", "worst_value"), "PlainMenu"),
    }


_SEARCH = ("tol", "policies", "mixing", "cap")
# per command: the blocks it needs, the options it reads (any other
# option is an unknown field) and its handler
_COMMAND_SPECS = {
    "solve-single": (("problem",), (), _run_solve_single),
    "solve-agency": (("agency",), (), _run_solve_agency),
    "revisable-check": (("revisable",), ("tol",), _run_revisable_check),
    "enumerate-canonical": (("environment",), ("principal", "space"), _run_enumerate),
    "check-equilibrium": (("environment", "assessment"), ("tol",), _run_check_equilibrium),
    "robust-check": (("environment", "assessment"), _SEARCH + ("deviations",), _run_robust),
    "private-check": (("environment", "assessment"), _SEARCH + ("deviations",), _run_robust),
    "necessity-env": (("environment",), _SEARCH + ("principal", "menu"), _run_necessity),
    "plain-menu-demo": ((), _SEARCH + ("aux_states",), _run_plain_menu_demo),
}
COMMANDS = tuple(_COMMAND_SPECS)


def write_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Emit report.json and CSV tables with deterministic bytes."""
    return write_report_files(out_dir, report.payload, report.tables)


@click.command(name="contract-forge")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(), help="Scenario JSON file.")
@click.option("--out", "out_dir", default=None, help="Output directory (default: $CONTRACT_FORGE_OUT or ./reports).")
def main(scenario_path, out_dir):
    """Run a scenario and write its report."""
    out = out_dir or os.environ.get("CONTRACT_FORGE_OUT") or "reports"
    try:
        sc = parse_scenario(scenario_path)
        report = run(sc)
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
