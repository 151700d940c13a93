"""The README exit-code contract under single-field mutations.

Each object value and list item of a scenario, at any depth, is replaced
in turn by each of eight values of the wrong type or size. Every mutant
must exit 0, 1 or 2 without a traceback, name a JSON path (``$``) in its
exit-2 message, and finish within a few seconds. The fast scenarios run
through the CLI; the two long fixtures are checked at parse level only.
Their payoff expressions are also replaced by valid expressions that
ignore a variable, overflow or leave the domain, under the same contract.
"""

import copy
import json
import time
from importlib import resources

import pytest
from click.testing import CliRunner

from contract_forge import cli

# a mutant that only warns (an overflow, say) fails as well
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

REPLACEMENTS = (None, [], {}, "x", -1, 1e308, [[]], True)
SECONDS_PER_RUN = 5.0


def fixture(name: str) -> dict:
    return json.loads((resources.files("contract_forge") / "fixtures" / f"{name}.json").read_text())


def check_equilibrium_scenario() -> dict:
    """The necessity environment with an explicit, passing assessment."""
    raw = fixture("necessity_env")
    raw["command"] = "check-equilibrium"
    raw["assessment"] = {
        "contracts": [{"kind": "menu_rec", "menu": ["a"]}, {"kind": "menu_rec", "menu": ["d"]}],
        "strategy": {lab: [{"profile": ["a|w", "d|e"], "prob": 1.0}] for lab in ("t0", "t1", "t2")},
        "continuation": [
            {"principal": 1, "profile": ["a|w", "d|e"], "action": "w"},
            {"principal": 1, "profile": ["a|w", "d|f"], "action": "w"},
            {"principal": 2, "profile": ["a|w", "d|e"], "action": "e"},
            {"principal": 2, "profile": ["a|w", "d|f"], "action": "f"},
        ],
        "offpath": "prior",
    }
    raw["options"] = {"tol": 1e-9}
    return raw


def positions(node, path=()):
    """Paths of every object value and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from positions(child, path + (key,))


def replaced(raw: dict, pos, value) -> dict:
    """A copy of ``raw`` with ``value`` at path ``pos``."""
    mutant = copy.deepcopy(raw)
    target = mutant
    for key in pos[:-1]:
        target = target[key]
    target[pos[-1]] = copy.deepcopy(value)
    return mutant


def mutants(raw: dict, blocks=None):
    """(label, scenario) for each position (under ``blocks`` when given) and replacement."""
    for pos in positions(raw):
        if blocks is not None and pos[0] not in blocks:
            continue
        for value in REPLACEMENTS:
            yield f"{'.'.join(map(str, pos))} = {json.dumps(value)}", replaced(raw, pos, value)


# the environment of the check-equilibrium scenario is necessity_env's,
# mutated there already, so only its assessment and options are mutated
CLI_CASES = {
    "example4_enumerate": (lambda: fixture("example4_enumerate"), None, 560),
    "necessity_env": (lambda: fixture("necessity_env"), None, 488),
    "plain_menu_demo": (lambda: fixture("plain_menu_demo"), None, 32),
    "revisable_grid": (lambda: fixture("revisable_grid"), None, 264),
    "check_equilibrium": (check_equilibrium_scenario, ("assessment", "options"), 456),
}


def broken_runs(cases, tmp_path) -> tuple[list[str], int]:
    """The (label, scenario) cases that break the exit-code contract through
    the CLI, and the number of cases run."""
    runner = CliRunner()
    scenario, out = tmp_path / "scenario.json", str(tmp_path / "out")
    broken, count = [], 0
    for label, raw in cases:
        count += 1
        scenario.write_text(json.dumps(raw))
        start = time.perf_counter()
        res = runner.invoke(cli.main, ["--scenario", str(scenario), "--out", out])
        seconds = time.perf_counter() - start
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            broken.append(f"{label}: {type(res.exception).__name__}: {res.exception}")
        elif res.exit_code not in (0, 1, 2):
            broken.append(f"{label}: exit {res.exit_code}")
        elif res.exit_code == 2 and "$" not in res.output:
            broken.append(f"{label}: no JSON path in {res.output.strip()!r}")
        elif seconds > SECONDS_PER_RUN:
            broken.append(f"{label}: {seconds:.1f} s")
    return broken, count


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_mutants_keep_exit_code_contract(name, tmp_path):
    make, blocks, expected = CLI_CASES[name]
    broken, count = broken_runs(mutants(make(), blocks), tmp_path)
    assert count == expected
    assert not broken, "\n".join(broken[:20])


# valid payoff expressions that ignore a variable, overflow or leave the domain
EXPRESSIONS = ("0", "z", "theta", "-(z - 0.5)^2", "exp(1000*theta)", "log(theta - 1)")


def expression_mutants():
    """(label, scenario) for each payoff expression of the fast scenarios,
    and the outside option that no fixture declares, replaced in turn by
    each of EXPRESSIONS; each revisable receiver runs with and without its
    ideal_form."""
    grid = fixture("revisable_grid")
    free = copy.deepcopy(grid)
    del free["revisable"]["ideal_form"]
    pay = ("environment", "payoffs")
    env_fields = [pay + ("agent",), pay + ("outside",), pay + ("principals", 0), pay + ("principals", 1)]
    cases = (
        ("example4_enumerate", fixture("example4_enumerate"), env_fields),
        ("necessity_env", fixture("necessity_env"), env_fields),
        ("check_equilibrium", check_equilibrium_scenario(), env_fields),
        ("revisable_grid", grid, [("revisable", "sender"), ("revisable", "receiver")]),
        ("revisable_grid without ideal_form", free, [("revisable", "receiver")]),
    )
    for name, raw, fields in cases:
        for pos in fields:
            for expr in EXPRESSIONS:
                yield f"{name}: {'.'.join(map(str, pos))} = {expr}", replaced(raw, pos, expr)


def test_expression_mutants_keep_exit_code_contract(tmp_path):
    broken, count = broken_runs(expression_mutants(), tmp_path)
    assert count == 90
    assert not broken, "\n".join(broken[:20])


@pytest.mark.parametrize("name", ["labor_single", "agency_beta17_21"])
def test_long_fixture_mutants_parse_or_name_a_path(name, tmp_path):
    scenario = tmp_path / "scenario.json"
    broken, count = [], 0
    for label, raw in mutants(fixture(name)):
        count += 1
        scenario.write_text(json.dumps(raw))
        try:
            cli.parse_scenario(scenario)
        except cli.ScenarioError as e:
            if "$" not in str(e):
                broken.append(f"{label}: no JSON path in {e}")
        except Exception as e:  # the contract allows only ScenarioError here
            broken.append(f"{label}: {type(e).__name__}: {e}")
    assert count > 100
    assert not broken, "\n".join(broken[:20])
