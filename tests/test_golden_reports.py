"""Every bundled fixture's report bytes, pinned by sha256.

Report bytes are deterministic (``reportio``): 12 significant digits,
insertion-ordered keys, LF line endings. A change that moves any number
a fixture reports, even in its last printed digit, changes a digest
here; such a change must say which numbers moved and why, and update
the digest with it.
"""

import hashlib
from importlib import resources

import pytest

from contract_forge import cli

FIXTURES = resources.files("contract_forge") / "fixtures"

# fixture -> (exit code, {report file: sha256})
DIGESTS = {
    "agency_beta17_21.json": (
        0,
        {
            "best_response.csv": "0cfcc369aa88cc02ec9fc383ef8ae9a0764f7ce7cdae97e93bcfe9139a4067c7",
            "report.json": "9b50a5372eaae4c0ac9147bcdce508002a4d98b02f4c37689931fbbce26b9117",
            "trajectory.csv": "31d1dcb84e31ef7d559fbadfb8f5d34f2e31f0a88d0a2dc65ccb6604b96798a8",
        },
    ),
    "example4_enumerate.json": (
        0,
        {
            "report.json": "6699f0537bb3ff0227f164a166c3b7c2399930d51e8a1b85fd2d9ef7cefbf52b",
        },
    ),
    "labor_single.json": (
        0,
        {
            "report.json": "2255cae7df38bb253f044ecdf1dfbab5f884b3c378c6e9ceb59d0f23327ecafb",
            "solve_trace.csv": "746d46f23d4179b5bcb3a92d1d161bbc4f4fcc886aaa15e9f433eb1805e35d98",
        },
    ),
    "necessity_env.json": (
        0,
        {
            "report.json": "000294f5a6573ea198a23e42a84a57d8770e8b1caa8ff6368992ee74979ee648",
        },
    ),
    "plain_menu_demo.json": (
        1,
        {
            "report.json": "851521c7b69a1f51bd8554230d3a0ea67e621745086dad4b5fc794676b1ca939",
        },
    ),
    "revisable_grid.json": (
        0,
        {
            "gamma_alpha.csv": "f29b7d622cb0d1be2532a981cbd0789ecd52e3e89430d2b05dc0d05cccb31693",
            "gamma_zero.csv": "f29b7d622cb0d1be2532a981cbd0789ecd52e3e89430d2b05dc0d05cccb31693",
            "report.json": "7fa730851e20ba7c2d9c8cd9f36f0147c9c54d0706cbed25cab03955512bbc79",
        },
    ),
}


def test_every_bundled_fixture_is_pinned():
    assert sorted(DIGESTS) == sorted(p.name for p in FIXTURES.iterdir() if p.name.endswith(".json"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_bytes(name, tmp_path):
    code, digests = DIGESTS[name]
    report = cli.run(cli.parse_scenario(str(FIXTURES / name)))
    files = cli.write_report(report, tmp_path)
    assert report.exit_code == code
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == digests
