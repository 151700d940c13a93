"""The README exit-code contract under single-field mutations.

Each object value and list item of a scenario, at any depth, is replaced
in turn by each of eight values of the wrong type or size. Every mutant
must exit 0, 1 or 2 without a traceback, name a JSON path (``$``) in its
exit-2 message, and finish within a few seconds. The fast scenarios run
through the CLI; the two long fixtures are checked at parse level only.
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


def mutants(raw: dict, blocks=None):
    """(label, scenario) for each position (under ``blocks`` when given) and replacement."""
    for pos in positions(raw):
        if blocks is not None and pos[0] not in blocks:
            continue
        for value in REPLACEMENTS:
            mutant = copy.deepcopy(raw)
            target = mutant
            for key in pos[:-1]:
                target = target[key]
            target[pos[-1]] = copy.deepcopy(value)
            yield f"{'.'.join(map(str, pos))} = {json.dumps(value)}", mutant


# the environment of the check-equilibrium scenario is necessity_env's,
# mutated there already, so only its assessment and options are mutated
CLI_CASES = {
    "example4_enumerate": (lambda: fixture("example4_enumerate"), None, 560),
    "necessity_env": (lambda: fixture("necessity_env"), None, 488),
    "plain_menu_demo": (lambda: fixture("plain_menu_demo"), None, 32),
    "revisable_grid": (lambda: fixture("revisable_grid"), None, 264),
    "check_equilibrium": (check_equilibrium_scenario, ("assessment", "options"), 456),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_mutants_keep_exit_code_contract(name, tmp_path):
    make, blocks, expected = CLI_CASES[name]
    runner = CliRunner()
    scenario, out = tmp_path / "scenario.json", str(tmp_path / "out")
    broken, count = [], 0
    for label, raw in mutants(make(), blocks):
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
    assert count == expected
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
