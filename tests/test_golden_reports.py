"""Every bundled fixture's report bytes, and those of agency scenarios
built from the agency fixture, pinned by sha256.

Report bytes are deterministic (``reportio``): 12 significant digits,
insertion-ordered keys, LF line endings. A change that moves any number
a fixture reports, even in its last printed digit, changes a digest
here; such a change must say which numbers moved and why, and update
the digest with it.
"""

import hashlib
import json
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
            "report.json": "e24b5d629a4e9f6b73b231e9e226b8cad3223a260b40b6bd70a287f94e3d6f22",
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
            "report.json": "df70d7ce54473940eec54e5c497ccea5a2e88484cc74cb775567d8f32be6b1ca",
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


# Agency scenarios built from the bundled fixture, each an edit of its
# "agency" block: name -> (edit, {report file: sha256}). They pin the
# fixed point, its trajectory and the best-response curve away from the
# fixture's beta, start and symmetry.
AGENCY_VARIANTS = {
    "beta_0.35": (
        {"beta": 0.35},
        {
            "best_response.csv": "cb65ae22104f6ee1cce3120a221e9968e30eb759f8f946595f20f1d0a54edcc5",
            "report.json": "fd729601db466dc048182a92f01ca74ede04ff91af0936b50928f9066d311ef8",
            "trajectory.csv": "ed76ebd2bb8f24f3ae965d3a802cb11a59ce251c030c6a0f57d6f32067ed917b",
        },
    ),
    "beta_0.6": (
        {"beta": 0.6},
        {
            "best_response.csv": "18c5cb61e9e798d363aacae05951d34f47949b13d277ffc606ea40aa80967700",
            "report.json": "759e5581c55c59f61e0c97834cd9d831ba2b68e036808cd13cde713033461bfa",
            "trajectory.csv": "f6558cebab375d78c043a05cb625e8d33605d0a0f2c12ca414d70e47b15ab709",
        },
    ),
    "beta_0.85": (
        {"beta": 0.85},
        {
            "best_response.csv": "3c58016c17d6f71043cc2625686d5f53044a1d78ab00b44cc5e54e22f8941158",
            "report.json": "6419de72937c7de881d72bd5b3edbd206140196bfddb6d8f79b15393299298b6",
            "trajectory.csv": "6367ed1cb0fa36d4900bad1a8ac592c7993363d95366de0306b574c46dc995c6",
        },
    ),
    "start_1_0.5": (
        {"start": [1.0, 0.5]},
        {
            "best_response.csv": "0cfcc369aa88cc02ec9fc383ef8ae9a0764f7ce7cdae97e93bcfe9139a4067c7",
            "report.json": "cf8daa4dd1a0b8bacf763e419fe243fad06ca3853b211d4fbbafd9c47ebd13a1",
            "trajectory.csv": "713ec8302bfacdcb293e62ea41d573309a61c4347166ebb0862a59fffde1d3fd",
        },
    ),
    "principal2_cost_1.2": (
        {"principal_payoffs": ["(1 + beta*x_other)*y*theta - x^2", "(1 + beta*x_other)*y*theta - 1.2*x^2"]},
        {
            "best_response.csv": "0cfcc369aa88cc02ec9fc383ef8ae9a0764f7ce7cdae97e93bcfe9139a4067c7",
            "report.json": "5d49bbca069bbee0e3bb60d68a8962924dc8a11716fea4c2fdb513a00454d9e4",
            "trajectory.csv": "c7267420cff7c57a5896418a549d50a014fe7a1159ef7192f6e441acbe45eba4",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(AGENCY_VARIANTS))
def test_agency_variant_bytes(name, tmp_path):
    edit, digests = AGENCY_VARIANTS[name]
    doc = json.loads((FIXTURES / "agency_beta17_21.json").read_text(encoding="utf-8"))
    doc["agency"].update(edit)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = cli.run(cli.parse_scenario(str(path)))
    files = cli.write_report(report, tmp_path / "out")
    assert report.exit_code == 0
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == digests
