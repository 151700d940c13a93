"""The three benchmark workloads: seeded inputs, the timed operation, checks.

Each workload turns a seed into one *round*: a fixed list of scenarios
whose structure (instance sizes, strata) is the same for every seed, so
that the seed moves only the numbers inside the scenarios and not the
amount of work a round holds. A run repeats whole rounds. ``execute`` is
the timed operation; ``check`` and ``finish`` verify its outputs against
computations made here, apart from the program, and never run inside the
timed region.

``bench/run.py`` puts the checkout's ``src/`` and ``tests/`` on the path
(``load_program``) before this module is imported.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from contract_forge import cli
from contract_forge import contracts as ct
from contract_forge import env_core as ec
from contract_forge import equilibrium as eq

import oracle_bruteforce as oracle


@dataclass
class Scenario:
    name: str
    data: dict
    first: object = None  # finite-search: allocation set of the first execution
    repeats: int = 0  # finite-search: executions that returned ``first``


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# ---------------------------------------------------------------------------
# Scenario files through the CLI path
# ---------------------------------------------------------------------------


class _CliWorkload:
    """Shared timed path: cli.parse_scenario -> cli.run -> cli.write_report."""

    def __init__(self, root: Path, out: Path):
        self.root = root
        self.inputs = out / "inputs"
        self.reports = out / "reports"
        self.inputs.mkdir(parents=True, exist_ok=True)

    def _write_input(self, name: str, doc: dict) -> Path:
        path = self.inputs / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path

    def execute(self, sc: Scenario):
        parsed = cli.parse_scenario(sc.data["path"])
        report = cli.run(parsed)
        cli.write_report(report, self.reports / sc.name)
        return report.exit_code

    def _report(self, sc: Scenario) -> dict:
        return json.loads((self.reports / sc.name / "report.json").read_text(encoding="utf-8"))

    def finish(self, scenarios) -> list[tuple[str, int, str]]:
        """(scenario, failed executions, problem) found after the timed rounds."""
        return []


# --- agency-fixed-point -----------------------------------------------------

_AGENCY_FIXTURE = "src/contract_forge/fixtures/agency_beta17_21.json"
_C = 7.0 * math.sqrt(3.0) / 8.0


def worked_family_root(beta: float) -> float:
    """Positive root of x = ((1 + beta x) 7 sqrt(3) / 8)^(2/3), by bisection.

    g(x) = ((1 + beta x) C)^(2/3) - x is concave with g(0) > 0, so the
    positive root is unique; [0, 20] brackets it for beta <= 0.9.
    """
    lo, hi = 0.0, 20.0
    g = lambda x: ((1.0 + beta * x) * _C) ** (2.0 / 3.0) - x
    if not (g(lo) > 0.0 > g(hi)):
        raise ValueError(f"no bracket for beta={beta!r}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class AgencyFixedPoint(_CliWorkload):
    """solve-agency on the worked common-agency family.

    A round is the bundled beta = 17/21 fixture plus three seeded betas,
    one per stratum of [0.3, 0.9]: 0.3 + 0.2u, 0.5 + 0.2u and 0.9 - 0.2u
    for one draw u. The fixed-point iteration count grows almost linearly
    in beta, so the strata keep a round's work and its middle two
    scenarios (which set the median) nearly independent of u.
    """

    def make_round(self, seed: int) -> list[Scenario]:
        fixture_path = self.root / _AGENCY_FIXTURE
        base = json.loads(fixture_path.read_text(encoding="utf-8"))
        u = float(_rng(seed, 1).random())
        out = [Scenario("beta17_21", {"path": fixture_path, "beta": base["agency"]["beta"]})]
        for name, beta in (("low", 0.3 + 0.2 * u), ("mid", 0.5 + 0.2 * u), ("high", 0.9 - 0.2 * u)):
            doc = json.loads(json.dumps(base))
            doc["agency"]["beta"] = beta
            out.append(Scenario(f"beta_{name}", {"path": self._write_input(f"beta_{name}", doc), "beta": beta}))
        return out

    def warm_up(self, scenarios):
        # The full CLI path once, started at the closed-form root so the
        # fixed point converges at once; the timed rounds start from (0, 0).
        base = json.loads((self.root / _AGENCY_FIXTURE).read_text(encoding="utf-8"))
        root = worked_family_root(base["agency"]["beta"])
        base["agency"]["start"] = [root, root]
        self.execute(Scenario("warm_up", {"path": self._write_input("warm_up", base)}))

    def check(self, sc: Scenario, exit_code) -> list[str]:
        rep = self._report(sc)["results"]
        beta = sc.data["beta"]
        root = worked_family_root(beta)
        bad = []
        if exit_code != 0:
            bad.append(f"exit code {exit_code}, expected 0 (robust)")
        if rep["converged"] is not True:
            bad.append("fixed point did not converge")
        for j in range(2):
            x, y, cut = rep["x"][j], rep["y"][j], rep["cutoffs"][j]
            if not abs(x - root) <= 1e-3:
                bad.append(f"x[{j}]={x!r} is {abs(x - root):.3g} from the root {root!r}")
            if cut is None or abs(cut - 3.0) > 1e-9:
                bad.append(f"cutoff[{j}]={cut!r}, expected the lowest type 3")
            # participation binds at theta = 3: (3x - y^2)/sqrt(3) = 0
            if not abs(y - math.sqrt(3.0 * x)) <= 1e-3:
                bad.append(f"y[{j}]={y!r} != sqrt(3 x)={math.sqrt(3.0 * x)!r}")
        robust = rep.get("robustness", [])
        if not robust or any(f["safe_profitable"] for f in robust):
            bad.append(f"robustness check did not pass: {robust!r}")
        return bad


# --- revisable-grid ---------------------------------------------------------

# (types, z-points). Larger grids (4x7, 3x9: about 3 s each) make rounds
# too long to repeat often enough for steady medians within one run.
_REVISABLE_SHAPES = ((3, 5), (4, 5), (5, 5))


def sender_gamma(n_types: int, n_z: int, tol: float = 1e-9) -> set[tuple[int, ...]]:
    """Gamma_0: every type -> z map in which each type picks a sender-best z
    (sender payoff -(z - theta)^2) among the values the map uses."""
    theta = np.linspace(0.0, 1.0, n_types)
    z = np.linspace(0.0, 1.0, n_z)
    loss = (z[:, None] - theta[None, :]) ** 2  # |Z| x T
    out = set()
    for f in itertools.product(range(n_z), repeat=n_types):
        used = sorted(set(f))
        if all(loss[f[t], t] <= min(loss[v, t] for v in used) + tol for t in range(n_types)):
            out.add(f)
    return out


class RevisableGrid(_CliWorkload):
    """revisable-check with additive revision on fixed grid shapes.

    A round holds one scenario per shape in ``_REVISABLE_SHAPES``; the
    seed draws the receiver bias k in [0, 0.3] and slope a in [0.4, 0.9]
    of -(z - k - a*theta)^2 per scenario. Work is set by the shape alone.
    """

    def __init__(self, root: Path, out: Path):
        super().__init__(root, out)
        self._gamma: dict[tuple[int, int], set] = {}

    def make_round(self, seed: int) -> list[Scenario]:
        rng = _rng(seed, 2)
        out = []
        for n_types, n_z in _REVISABLE_SHAPES:
            k, a = float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.4, 0.9))
            weights = [1.0 / n_types] * (n_types - 1)
            weights.append(1.0 - sum(weights))
            doc = {
                "schema": 1,
                "command": "revisable-check",
                "revisable": {
                    "mode": "additive",
                    "sender": "-(z - theta)^2",
                    "receiver": f"-(z - {k:.6f} - {a:.6f}*theta)^2",
                    "types": {
                        "kind": "finite",
                        "items": [
                            {"label": f"t{i}", "value": float(v), "weight": w}
                            for i, (v, w) in enumerate(zip(np.linspace(0.0, 1.0, n_types), weights))
                        ],
                    },
                    "z_grid": {"lo": 0.0, "hi": 1.0, "points": n_z},
                    "alpha_steps": 1,
                    "z_range": [-1.0, 2.0],
                    "ideal_form": [float(f"{k:.6f}"), float(f"{a:.6f}")],
                },
                "options": {},
            }
            name = f"grid{n_types}x{n_z}"
            out.append(Scenario(name, {"path": self._write_input(name, doc), "shape": (n_types, n_z)}))
        return out

    def warm_up(self, scenarios):
        self.execute(scenarios[0])

    def _table(self, sc: Scenario, table: str, n_z: int) -> set[tuple[int, ...]]:
        z = np.linspace(0.0, 1.0, n_z)
        maps: dict[str, dict[int, int]] = {}
        with open(self.reports / sc.name / f"{table}.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                zi = int(np.argmin(np.abs(z - float(row["z"]))))
                if abs(z[zi] - float(row["z"])) > 1e-9 or float(row["probability"]) != 1.0:
                    raise ValueError(f"{table}: row {row!r} is not a pure grid action")
                t = int(row["type"][1:])
                if t in maps.setdefault(row["regime"], {}):
                    raise ValueError(f"{table}: type {row['type']} twice in {row['regime']}")
                maps[row["regime"]][t] = zi
        return {tuple(m[t] for t in sorted(m)) for m in maps.values()}

    def check(self, sc: Scenario, exit_code) -> list[str]:
        n_types, n_z = sc.data["shape"]
        if (n_types, n_z) not in self._gamma:
            self._gamma[(n_types, n_z)] = sender_gamma(n_types, n_z)
        gamma = self._gamma[(n_types, n_z)]
        rep = self._report(sc)["results"]
        bad = []
        if exit_code != 0:
            bad.append(f"exit code {exit_code}, expected 0")
        if rep["equal"] is not True or rep["transforms_ok"] is not True:
            bad.append(f"equal={rep['equal']} transforms_ok={rep['transforms_ok']}")
        if not rep["n_limited"] == rep["n_full"] == len(gamma):
            bad.append(f"counts {rep['n_limited']}/{rep['n_full']} != |Gamma_0|={len(gamma)}")
        for table in ("gamma_zero", "gamma_alpha"):
            try:
                found = self._table(sc, table, n_z)
            except ValueError as e:
                bad.append(str(e))
                continue
            if found != gamma or any(len(f) != n_types for f in found):
                bad.append(f"{table}: {len(found - gamma)} maps outside Gamma_0, {len(gamma - found)} missing")
        return bad


# ---------------------------------------------------------------------------
# finite-search: library calls on random finite environments
# ---------------------------------------------------------------------------

# (principals, types, observability, count per round), from the
# criterion-8 family: one or two principals, two or three types, private
# observability for some two-principal instances, and exit allowed for
# four in five. The counts put the median scenario among the 35 private
# two-type games, whose times lie close together, so the median moves
# little with the seed. Two principals with three types appear only under
# private observability: in public mode the brute-force oracle needs
# about a second per such instance, too slow to check every instance.
_FINITE_CLASSES = (
    (1, 2, "public", 30),
    (1, 3, "public", 10),
    (2, 2, "public", 15),
    (2, 2, "private", 35),
    (2, 3, "private", 10),
)
_SEARCH = eq.SearchOptions(policies=("prior",))


def instance_shape(rng: np.random.Generator, n: int) -> tuple:
    """Feasible-set sizes per contractible action and installed message
    count, per principal: one or two contractible actions, two to four
    feasible (x, y) pairs in all (at most three with two principals), one
    to three installed messages (one or two with two principals)."""
    shape = []
    for _ in range(n):
        per_x = 3 if n == 1 else 2
        sizes = [int(rng.integers(1, per_x + 1)) for _ in range(int(rng.integers(1, 3)))]
        while sum(sizes) < 2:
            sizes[0] += 1
        while sum(sizes) > (4 if n == 1 else 3):
            sizes[sizes.index(max(sizes))] -= 1
        msgs = int(rng.integers(1, min(3 if n == 1 else 2, sum(sizes)) + 1))
        shape.append((tuple(sizes), msgs))
    return tuple(shape)


def random_environment(rng: np.random.Generator, n_types: int, observability: str, optout: bool, shape):
    """A finite environment of the given shape with integer table payoffs
    in [-2, 2], and one installed submenu contract per principal; ``rng``
    draws which discretionary actions are feasible, the payoffs and the
    installed pairs."""
    types = ec.TypeSpace.uniform_finite([float(i + 1) for i in range(n_types)])
    n = len(shape)
    principals = []
    for j, (sizes, _) in enumerate(shape):
        ny = max(sizes)
        feasible = {
            f"x{j}{i}": tuple(f"y{j}{k}" for k in sorted(rng.choice(ny, size=s, replace=False).tolist()))
            for i, s in enumerate(sizes)
        }
        principals.append(
            ec.PrincipalSpec(
                contractible=tuple(ec.ActionValue(f"x{j}{i}") for i in range(len(sizes))),
                noncontractible=tuple(ec.ActionValue(f"y{j}{k}") for k in range(ny)),
                feasible=feasible,
            )
        )
    pairs = [principals[j].feasible_pairs() for j in range(n)]
    entries = {}
    for t in types.finite:
        for prof in itertools.product(*pairs):
            entries[(t.label, prof)] = (
                float(rng.integers(-2, 3)),
                tuple(float(rng.integers(-2, 3)) for _ in range(n)),
            )
    env = ec.Environment(
        types=types,
        principals=tuple(principals),
        payoffs=ec.PayoffModel.from_table(entries, n_principals=n),
        observability=observability,
        optout=optout,
    )
    installed = []
    for j, (_, msgs) in enumerate(shape):
        picks = sorted(rng.choice(len(pairs[j]), size=msgs, replace=False).tolist())
        installed.append(ct.submenu(env, j, [pairs[j][i] for i in picks]))
    return env, tuple(installed)


class FiniteSearch:
    """enumerate_equilibria, then canonicalize + check_continuation on every
    equilibrium found, then check_robust on the first one.

    A round holds the instances of ``_FINITE_CLASSES`` in fixed counts;
    four in five instances of each class allow exit. The robustness audit
    covers the canonical deviation space (menus with recommendations; the
    private canonical space under private observability) plus each
    principal's installed contract.
    """

    def __init__(self, root: Path, out: Path):
        pass  # library calls only: no scenario files, no reports

    def make_round(self, seed: int) -> list[Scenario]:
        shapes = _rng(0, 4)  # the same instance shapes for every seed
        rng = _rng(seed, 3)
        out = []
        for n, n_types, obs, count in _FINITE_CLASSES:
            for i in range(count):
                shape = instance_shape(shapes, n)
                env, installed = random_environment(rng, n_types, obs, i % 5 != 4, shape)
                name = f"n{n}t{n_types}{obs[:4]}{i:02d}"
                out.append(Scenario(name, {"env": env, "contracts": installed}))
        return out

    def warm_up(self, scenarios):
        seen = set()
        for sc in scenarios:
            if sc.name[:-2] not in seen:
                seen.add(sc.name[:-2])
                self.execute(sc)

    def execute(self, sc: Scenario):
        env, installed = sc.data["env"], sc.data["contracts"]
        found = eq.enumerate_equilibria(env, installed, _SEARCH)
        canon = [eq.check_continuation(env, eq.canonicalize(env, fe.assessment)) for fe in found]
        robust = None
        if found:
            space = {}
            for j in range(env.n):
                devs = ct.enumerate_private(env, j) if env.observability == "private" else ct.enumerate_gstar(env, j)
                if all(d.messages != installed[j].messages for d in devs):
                    devs.append(installed[j])
                space[j] = devs
            robust = eq.check_robust(env, found[0].assessment, space, _SEARCH)
        return found, canon, robust

    def check(self, sc: Scenario, result) -> list[str]:
        found, canon, robust = result
        bad = []
        for fe, rep in zip(found, canon):
            if not rep.passed:
                bad.append("canonicalized equilibrium fails check_continuation")
            if rep.allocation.key(digits=12) != fe.allocation.key(digits=12):
                bad.append("canonicalization changed the allocation")
            if any(abs(a - b) > 1e-12 for a, b in zip(rep.values, fe.values)):
                bad.append(f"canonicalization changed values {fe.values} -> {rep.values}")
        if robust is not None:
            installed = sc.data["contracts"]
            if not robust.base.passed:
                bad.append("check_robust rejected the equilibrium it was given")
            for j in range(len(installed)):
                own = [f for f in robust.findings if f.principal == j and f.deviation.messages == installed[j].messages]
                if len(own) != 1 or own[0].outcome == "safe-profitable":
                    bad.append(f"deviating to principal {j}'s installed contract: {own!r}")
        keys = oracle.engine_allocation_keys(found)
        if sc.repeats == 0:
            sc.first = keys
        elif keys != sc.first:
            bad.append("allocation set differs from the scenario's first execution")
        if not bad:
            sc.repeats += 1
        return bad

    def finish(self, scenarios) -> list[tuple[str, int, str]]:
        """Compare each scenario's allocation set, the same in every passing
        execution, with the brute-force oracle's."""
        bad = []
        for sc in scenarios:
            if sc.repeats and sc.first != oracle.oracle_allocations(sc.data["env"], sc.data["contracts"]):
                bad.append((sc.name, sc.repeats, "allocation set differs from the brute-force oracle's"))
        return bad


WORKLOADS = {
    "agency-fixed-point": AgencyFixedPoint,
    "revisable-grid": RevisableGrid,
    "finite-search": FiniteSearch,
}
