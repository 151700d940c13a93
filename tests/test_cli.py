import dataclasses
import hashlib
import json
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner

from contract_forge import cli


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("contract_forge") / "fixtures" / name))


FAST_FIXTURES = [
    "example4_enumerate.json",
    "plain_menu_demo.json",
    "necessity_env.json",
    "revisable_grid.json",
]


class TestParseScenario:
    @pytest.mark.parametrize(
        "name",
        FAST_FIXTURES + ["labor_single.json", "agency_beta17_21.json"],
    )
    def test_bundled_fixtures_parse(self, name):
        sc = cli.parse_scenario(fixture_path(name))
        assert sc.command in cli.COMMANDS

    @pytest.mark.parametrize("name", FAST_FIXTURES)
    def test_parse_serialize_round_trip(self, name, tmp_path):
        raw = json.loads(fixture_path(name).read_text())
        out = tmp_path / "again.json"
        out.write_text(json.dumps(raw))
        sc = cli.parse_scenario(out)
        assert sc.raw == raw

    def test_unknown_field_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        raw = json.loads(fixture_path("labor_single.json").read_text())
        raw["foo"] = 1
        bad.write_text(json.dumps(raw))
        with pytest.raises(cli.ScenarioError, match=r"\$\.foo: unknown field"):
            cli.parse_scenario(bad)

    def test_nested_unknown_field_has_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        raw = json.loads(fixture_path("labor_single.json").read_text())
        raw["problem"]["mystery"] = True
        bad.write_text(json.dumps(raw))
        with pytest.raises(cli.ScenarioError, match=r"\$\.problem"):
            cli.parse_scenario(bad)

    def test_expression_error_with_offset(self, tmp_path):
        bad = tmp_path / "bad.json"
        raw = json.loads(fixture_path("labor_single.json").read_text())
        raw["problem"]["agent"] = "x*theta -"
        bad.write_text(json.dumps(raw))
        with pytest.raises(cli.ScenarioError, match="offset 9"):
            cli.parse_scenario(bad)

    def test_unknown_command(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "command": "fly"}')
        with pytest.raises(cli.ScenarioError, match="unknown command"):
            cli.parse_scenario(bad)

    def test_json_error_positioned(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1')
        with pytest.raises(cli.ScenarioError, match="offset"):
            cli.parse_scenario(bad)


class TestRunAndReports:
    def test_enumerate_counts(self, tmp_path):
        sc = cli.parse_scenario(fixture_path("example4_enumerate.json"))
        report = cli.run(sc)
        assert report.payload["results"]["count"] == 3
        files = cli.write_report(report, tmp_path)
        assert [f.name for f in files] == ["report.json"]

    def test_environment_validated_once(self, monkeypatch):
        calls = []
        validate = cli.ec.validate
        monkeypatch.setattr(cli.ec, "validate", lambda env: calls.append(env) or validate(env))
        report = cli.run(cli.parse_scenario(fixture_path("example4_enumerate.json")))
        assert report.payload["results"]["count"] == 3
        assert len(calls) == 1

    def test_empty_tables_no_csv(self, tmp_path):
        sc = cli.parse_scenario(fixture_path("necessity_env.json"))
        report = cli.run(sc)
        files = cli.write_report(report, tmp_path)
        assert [f.name for f in files] == ["report.json"]

    def test_exit_codes_via_cli(self, tmp_path):
        runner = CliRunner()
        ok = runner.invoke(
            cli.main,
            [
                "--scenario",
                str(fixture_path("example4_enumerate.json")),
                "--out",
                str(tmp_path / "a"),
            ],
        )
        assert ok.exit_code == 0
        finding = runner.invoke(
            cli.main,
            [
                "--scenario",
                str(fixture_path("plain_menu_demo.json")),
                "--out",
                str(tmp_path / "b"),
            ],
        )
        assert finding.exit_code == 1
        assert "safe-profitable deviation: PlainMenu" in finding.output
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "command": "solve-single"}')
        err = runner.invoke(cli.main, ["--scenario", str(bad), "--out", str(tmp_path / "c")])
        assert err.exit_code == 2

    def test_missing_file_is_error(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(
            cli.main, ["--scenario", str(tmp_path / "none.json"), "--out", str(tmp_path)]
        )
        assert res.exit_code == 2

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONTRACT_FORGE_OUT", str(tmp_path / "envout"))
        runner = CliRunner()
        res = runner.invoke(
            cli.main, ["--scenario", str(fixture_path("example4_enumerate.json"))]
        )
        assert res.exit_code == 0
        assert (tmp_path / "envout" / "report.json").exists()

    def test_gamma_tables_sorted_identical(self, tmp_path):
        sc = cli.parse_scenario(fixture_path("revisable_grid.json"))
        report = cli.run(sc)
        assert report.exit_code == 0
        cli.write_report(report, tmp_path)
        a = (tmp_path / "gamma_alpha.csv").read_bytes()
        z = (tmp_path / "gamma_zero.csv").read_bytes()
        assert a == z

    @pytest.mark.parametrize("name", FAST_FIXTURES)
    def test_reruns_byte_identical(self, name, tmp_path):
        sc = cli.parse_scenario(fixture_path(name))
        for run_dir in ("one", "two"):
            cli.write_report(cli.run(sc), tmp_path / run_dir)
        one = sorted((tmp_path / "one").iterdir())
        two = sorted((tmp_path / "two").iterdir())
        assert [f.name for f in one] == [f.name for f in two]
        for f1, f2 in zip(one, two):
            assert f1.read_bytes() == f2.read_bytes()

    def test_number_formatting_12_digits(self):
        from contract_forge.reportio import dumps, format_number

        assert format_number(1.0 / 3.0) == "0.333333333333"
        assert format_number(1) == "1"
        assert format_number(True) == "true"
        text = dumps({"v": 2.0 / 3.0})
        assert "0.666666666667" in text

    def test_strings_are_escaped_as_json_does(self):
        from contract_forge.reportio import dumps

        label = 'a"b\\c\nd\re\tf\bg\fh\x01i\x7fj\u00e9k\u2028'
        escaped = '"a\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i\x7fj\u00e9k\u2028"'  # U+0008 and U+000C as \b and \f
        text = dumps({label: [label]})
        assert text == "{\n  " + escaped + ": [\n    " + escaped + "\n  ]\n}\n"
        assert json.loads(text) == {label: [label]}

    def test_private_check_requires_private_env(self, tmp_path):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["command"] = "private-check"
        raw["assessment"] = {
            "contracts": [
                {"kind": "menu_rec", "menu": ["a"]},
                {"kind": "menu_rec", "menu": ["d"]},
            ],
            "strategy": {
                "t0": [{"profile": ["a|w", "d|e"], "prob": 1.0}],
                "t1": [{"profile": ["a|w", "d|e"], "prob": 1.0}],
                "t2": [{"profile": ["a|w", "d|e"], "prob": 1.0}],
            },
        }
        raw["options"] = {}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        sc = cli.parse_scenario(path)
        with pytest.raises(cli.ScenarioError, match="private"):
            cli.run(sc)


class TestEngineScenarios:
    def _check_equilibrium_scenario(self, tmp_path, strategy_rows, command="check-equilibrium"):
        raw = {
            "schema": 1,
            "command": command,
            "environment": {
                "types": {
                    "kind": "finite",
                    "items": [
                        {"label": "t0", "value": 1.0, "weight": 0.5},
                        {"label": "t1", "value": 2.0, "weight": 0.5},
                    ],
                },
                "principals": [
                    {
                        "contractible": [{"label": "x", "value": 1.0}],
                        "noncontractible": [
                            {"label": "y0", "value": 0.0},
                            {"label": "y1", "value": 1.0},
                        ],
                        "feasible": {"x": ["y0", "y1"]},
                    }
                ],
                "payoffs": {
                    "mode": "expressions",
                    "agent": "x*theta - y",
                    "principals": ["y*theta"],
                },
            },
            "assessment": {
                "contracts": [{"kind": "menu_rec", "menu": ["x"]}],
                "strategy": strategy_rows,
            },
            "options": {},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return cli.run(cli.parse_scenario(path))

    def test_check_equilibrium_exit_codes(self, tmp_path):
        # both types prefer y0 at equal x, so recommending y1 for t0 fails IC
        failing = self._check_equilibrium_scenario(
            tmp_path,
            {
                "t0": [{"profile": ["x|y1"], "prob": 1.0}],
                "t1": [{"profile": ["x|y1"], "prob": 1.0}],
            },
        )
        assert failing.exit_code == 1
        passing = self._check_equilibrium_scenario(
            tmp_path,
            {
                "t0": [{"profile": ["x|y1"], "prob": 1.0}],
                "t1": [{"profile": ["x|y0"], "prob": 1.0}],
            },
        )
        # principal prefers y1 against the t0 posterior? v = y*theta:
        # separating: after x|y1 posterior t0, v(y1)=1 > v(y0)=0, follows
        # recommendation; agent t0: u = 1 - y, prefers y0; deviating to x|y0
        # yields y0 and u = 1 > 0, so this also fails agent IC
        assert passing.exit_code == 1
        pooled = self._check_equilibrium_scenario(
            tmp_path,
            {
                "t0": [{"profile": ["x|y0"], "prob": 1.0}],
                "t1": [{"profile": ["x|y0"], "prob": 1.0}],
            },
        )
        # pooling on y0: principal deviation to y1 pays 1.5 > 0 at the prior
        assert pooled.exit_code == 1

    @pytest.mark.parametrize("command", ["check-equilibrium", "robust-check"])
    def test_pooled_posterior_passes_at_tol_zero(self, tmp_path, command):
        """Four types of weight 0.1 to 0.4, the first three pooled, with
        payoffs that make every choice optimal. At tol 0 this exited 1,
        "assessment fails continuation checks", with bayes_gap 1.1e-16: the
        check multiplied the posterior back by its mass."""
        raw = {
            "schema": 1,
            "command": command,
            "environment": {
                "types": {"kind": "finite", "items": [
                    {"label": f"t{i}", "value": i + 1.0, "weight": w} for i, w in enumerate((0.1, 0.2, 0.3, 0.4))
                ]},
                "principals": [{
                    "contractible": [{"label": "x", "value": 1.0}],
                    "noncontractible": [{"label": "y0", "value": 0.0}, {"label": "y1", "value": 1.0}],
                    "feasible": {"x": ["y0", "y1"]},
                }],
                "payoffs": {"mode": "expressions", "agent": "0", "principals": ["0"]},
            },
            "assessment": {
                "contracts": [{"kind": "menu_rec", "menu": ["x"]}],
                "strategy": {
                    f"t{i}": [{"profile": ["x|y1" if i == 3 else "x|y0"], "prob": 1.0}] for i in range(4)
                },
            },
            "options": {"tol": 0},
        }
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        base = results if command == "check-equilibrium" else results["base"]
        assert base["passed"] is True and base["bayes_gap"] == 0

    def test_robust_check_failing_base(self, tmp_path):
        # pooling on y0 fails the principal check (see above); the audit
        # checks the base once and the report reads its result
        rows = {"t0": [{"profile": ["x|y0"], "prob": 1.0}], "t1": [{"profile": ["x|y0"], "prob": 1.0}]}
        with mock.patch.object(cli.eq, "check_continuation", wraps=cli.eq.check_continuation) as check, \
                mock.patch.object(cli.eq, "check_robust", wraps=cli.eq.check_robust) as robust:
            report = self._check_equilibrium_scenario(tmp_path, rows, command="robust-check")
        assert check.call_count == 1 and robust.call_count == 1
        assert report.exit_code == 1
        assert report.warnings == ["assessment fails continuation checks"]
        assert report.payload["results"]["findings"] == []
        assert report.payload["results"]["passed"] is report.payload["results"]["base"]["passed"] is False

    def test_robust_check_scenario(self, tmp_path):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        env_block = raw["environment"]
        # necessity payoffs are built by the generator; reproduce them as a table
        from contract_forge import contracts as ct
        from contract_forge import cli as _cli

        env = _cli._environment_from(env_block, "$.environment")
        nec_env, _, phi = ct.necessity_environment(env, 0, ["a", "b"])
        entries = []
        for (state, prof), (u, vs) in nec_env.payoffs.table.items():
            entries.append(
                {
                    "state": state,
                    "pairs": [list(p) for p in prof],
                    "agent": u,
                    "principals": list(vs),
                }
            )
        scenario = {
            "schema": 1,
            "command": "robust-check",
            "environment": {
                "types": env_block["types"],
                "principals": env_block["principals"],
                "payoffs": {"mode": "table", "entries": entries},
            },
            "assessment": {
                "contracts": [
                    {"kind": "menu_rec", "menu": ["a", "b"]},
                    {"kind": "menu_rec", "menu": ["d"]},
                ],
                "strategy": {
                    lab: [{"profile": [f"{phi[lab]}|w", "d|e"], "prob": 1.0}]
                    for lab in ("t0", "t1", "t2")
                },
            },
            "options": {},
        }
        path = tmp_path / "robust.json"
        path.write_text(json.dumps(scenario))
        report = cli.run(cli.parse_scenario(path))
        assert report.exit_code == 0
        assert report.payload["results"]["passed"] is True


    def test_findings_payload_and_warnings(self):
        # a failing audit with a plain menu and a menu with recommendations
        # safe-profitable: robust-check names the plain menu "plain" and
        # reports every field, the demo names it "PlainMenu" and reports four
        from contract_forge import contracts as ct
        from contract_forge import equilibrium as eq

        env, assessment, plain, _ = ct.plain_menu_scenario(n_aux=2)
        menu = ct.enumerate_gstar(env, 1)[0]
        base = eq.check_continuation(env, assessment)
        rep = eq.RobustReport(False, base, (
            eq.DeviationFinding(0, plain, "safe-profitable", 0.25, 0.5, 0.125),
            eq.DeviationFinding(1, menu, "deterred", -1.0, 0.0, None),
            eq.DeviationFinding(1, menu, "safe-profitable", 0.3, 0.7, 0.1),
        ))
        for command, blocks, name, keys in (
            ("private-check", {"environment": env, "assessment": assessment}, "plain", 7),
            ("plain-menu-demo", {}, "PlainMenu", 4),
        ):
            built = cli._build_blocks({"schema": 1, "command": command, "options": {}}, command)
            sc = cli.ScenarioFile(command=command, raw={}, blocks={**built, **blocks})
            report = cli.RunReport(command, "", {})
            with mock.patch.object(cli.eq, "check_robust", return_value=rep):
                cli._COMMAND_SPECS[command][2](sc, report, sc.blocks["options"])
            assert report.exit_code == 1
            assert report.warnings == [
                f"safe-profitable deviation: {name} for principal 1",
                "safe-profitable deviation: menu_rec for principal 2",
            ]
            assert [len(f) for f in report.payload["findings"]] == [keys] * 3

    def test_demo_with_a_failing_base_names_it(self):
        # an audit whose base fails has no findings; the demo still exits 1
        # and says why, as robust-check does
        from contract_forge import contracts as ct
        from contract_forge import equilibrium as eq

        env, assessment, _, _ = ct.plain_menu_scenario(n_aux=2)
        base = dataclasses.replace(eq.check_continuation(env, assessment), bayes_ok=False)
        built = cli._build_blocks({"schema": 1, "command": "plain-menu-demo", "options": {}}, "plain-menu-demo")
        sc = cli.ScenarioFile(command="plain-menu-demo", raw={}, blocks=built)
        report = cli.RunReport("plain-menu-demo", "", {})
        with mock.patch.object(cli.eq, "check_robust", return_value=eq.RobustReport(False, base, ())):
            cli._COMMAND_SPECS["plain-menu-demo"][2](sc, report, sc.blocks["options"])
        assert report.exit_code == 1
        assert report.warnings == ["assessment fails continuation checks"]
        assert report.payload["robust_passed"] is False and report.payload["findings"] == []

    def test_exit_code_is_read_from_the_warnings(self):
        report = cli.RunReport("solve-single", "", {})
        assert report.exit_code == 0
        report.warnings.append("a finding")
        assert report.exit_code == 1
        with pytest.raises(AttributeError):
            report.exit_code = 0


class TestScenarioErrors:
    """Malformed or invalid scenarios exit 2 with a message, never a traceback."""

    VALID = [{"kind": "menu_rec", "menu": ["a"]}, {"kind": "menu_rec", "menu": ["d"]}]

    def _check_necessity_env(self, tmp_path, contracts, t0_weight=None, outside=None, row=None):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["command"] = "check-equilibrium"
        if t0_weight is not None:
            raw["environment"]["types"]["items"][0]["weight"] = t0_weight
        if outside is not None:
            raw["environment"]["payoffs"]["outside"] = outside
        row = row or {"profile": ["a|w", "d|e"], "prob": 1.0}
        raw["assessment"] = {
            "contracts": contracts,
            "strategy": {lab: [row] for lab in ("t0", "t1", "t2")},
        }
        raw["options"] = {}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return CliRunner().invoke(
            cli.main, ["--scenario", str(path), "--out", str(tmp_path / "out")]
        )

    def test_valid_scenario_passes(self, tmp_path):
        res = self._check_necessity_env(tmp_path, self.VALID)
        assert res.exit_code == 0

    @pytest.mark.parametrize(
        "kind, field", [("menu_rec", "menu"), ("plain", "menu"), ("submenu", "pairs")]
    )
    def test_contract_missing_field(self, tmp_path, kind, field):
        res = self._check_necessity_env(tmp_path, [{"kind": kind}, self.VALID[1]])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert f"$.assessment.contracts[0].{field}" in res.output

    def test_prior_weights_not_summing_to_one(self, tmp_path):
        res = self._check_necessity_env(tmp_path, self.VALID, t0_weight=0.9)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "$.environment" in res.output
        assert "prior weights sum to" in res.output

    @pytest.mark.parametrize(
        "outside, opt_out, message",
        [
            ("log(theta - 1)", False,
             "payoff evaluation failed: log of nonpositive value in log((theta-1))"),
            ("exp(1000*theta)", True, "non-finite outside option at type 't0'"),
            ("exp(1000*theta)", False, "non-finite outside option at type 't0'"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_outside_option_is_validated_at_each_type(self, tmp_path, outside, opt_out, message):
        row = {"opt_out": True, "prob": 1.0} if opt_out else None
        res = self._check_necessity_env(tmp_path, self.VALID, outside=outside, row=row)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert f"invalid environment at $.environment: {message}" in res.output

    @pytest.mark.parametrize(
        "name, block, mean, sd, message",
        [
            # exited 0 with stay_prob 1.18082981337
            ("labor_single", "problem", 3.5, 0.002, "density integrates to 0.828462937177"),
            ("agency_beta17_21", "agency", 3.5, 0.002, "density integrates to 0.828462937177"),
            # no mass on [3, 4] in floating point: exited 0 with no_trade
            ("labor_single", "problem", 100.0, 1.0, "density integrates to nan"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    def test_density_the_kernel_cannot_integrate_is_a_scenario_error(self, tmp_path, name, block, mean, sd, message):
        raw = json.loads(fixture_path(f"{name}.json").read_text())
        raw[block]["types"] = {"kind": "interval", "lo": 3, "hi": 4, "density": "normal", "mean": mean, "sd": sd}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert f"invalid types at $.{block}.types: {message}" in res.output
        assert "at 256 panels, not 1 within 1e-09" in res.output

    def test_density_the_kernel_integrates_is_solved(self, tmp_path):
        raw = json.loads(fixture_path("labor_single.json").read_text())
        raw["problem"]["types"] = {"kind": "interval", "lo": 3, "hi": 4, "density": "normal", "mean": 3.5, "sd": 0.05}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert 0.0 < results["stay_prob"] <= 1.0 + 1e-9

    @pytest.mark.parametrize("mean, sd", [(3.5, 0.4), (0.0, 1.0)])
    def test_agency_density_is_checked_at_full_resolution(self, tmp_path, mean, sd):
        # 256 panels integrate both within 7e-11; the 96-panel coarse slice that
        # only steers the best responses misses by 2.1e-9 and 3.6e-9
        raw = json.loads(fixture_path("agency_beta17_21.json").read_text())
        raw["agency"]["types"] = {"kind": "interval", "lo": 3, "hi": 4, "density": "normal", "mean": mean, "sd": sd}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert results["converged"]

    @pytest.mark.parametrize(
        "name, block, digest",
        [
            ("labor_single", "problem", "1a45d8b552f0ae55563152e45fc8ada346cfc24d23471dcd25e82f0cfaffe6df"),
            ("agency_beta17_21", "agency", "0ea89818db95c86c4c32f483337d9e244d688bac8dec03baa6fc51285f6c70e6"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_y_box_raises_no_numpy_warning(self, tmp_path, name, block, digest):
        """The participation audit took inf - inf on this box and printed a
        RuntimeWarning, a traceback under warnings as errors. The rows fail
        the audit either way; the report is unchanged (no trade)."""
        raw = json.loads(fixture_path(f"{name}.json").read_text())
        raw[block]["y_box"] = [-1e300, 1e300]
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output
        assert hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest() == digest

    def test_no_trade_that_only_the_audit_forces_exits_2(self, tmp_path):
        raw = json.loads(fixture_path("labor_single.json").read_text())
        raw["problem"]["agent"] = "x - y"
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: no trade is not certified: (x, y) = (1.7450980392156863, 1.7450980392156863)" in res.output

    @pytest.mark.parametrize(
        "agent",
        # an OverflowError traceback, and a bare "cannot convert float NaN to integer"
        ["(0-1)^exp(1000*theta)", "(0-1)^(exp(1000*theta)-exp(1000*theta))"],
    )
    def test_non_finite_exponent_of_a_negative_base_names_the_subexpression(self, tmp_path, agent):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["environment"]["payoffs"]["agent"] = agent
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert (
            "invalid environment at $.environment: payoff evaluation failed: "
            "negative base with non-integer exponent in ((0-1)^"
        ) in res.output

    def test_table_payoffs_need_distinct_type_values(self, tmp_path):
        """Type 'hi' read the rows of 'lo', its equal in value: the principal's
        value was reported as 0 where hi's rows pay 10."""
        entries = [
            {"state": state, "pairs": [["x", y]], "agent": 0.0, "principals": [pay]}
            for state, pay in (("lo", 0.0), ("hi", 10.0))
            for y in ("y0", "y1")
        ]
        raw = {
            "schema": 1,
            "command": "check-equilibrium",
            "environment": {
                "types": {
                    "kind": "finite",
                    "items": [{"label": lab, "value": 1.0, "weight": 0.5} for lab in ("lo", "hi")],
                },
                "principals": [
                    {
                        "contractible": [{"label": "x"}],
                        "noncontractible": [{"label": "y0"}, {"label": "y1"}],
                        "feasible": {"x": ["y0", "y1"]},
                    }
                ],
                "payoffs": {"mode": "table", "entries": entries},
            },
            "assessment": {
                "contracts": [{"kind": "menu_rec", "menu": ["x"]}],
                "strategy": {lab: [{"profile": ["x|y0"], "prob": 1.0}] for lab in ("lo", "hi")},
            },
            "options": {},
        }
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert (
            "invalid environment at $.environment: payoff evaluation failed: "
            "types 'lo' and 'hi' share the value 1.0"
        ) in res.output

    @pytest.mark.parametrize(
        "agent", ["(" * 200 + "theta" + ")" * 200, "+".join(["1"] * 1000)], ids=["200 groups", "1000 terms"]
    )
    def test_expression_past_the_depth_bound_is_a_parse_error(self, tmp_path, agent):
        """Exited 2 with "maximum recursion depth exceeded" and no JSON path."""
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["environment"]["payoffs"]["agent"] = agent
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "$.environment.payoffs.agent" in res.output
        assert "expression nests deeper than 100 levels" in res.output

    @pytest.mark.parametrize(
        "agent", ["(0-1)^1e999", "sqrt(0-1e999)", "log(0-1e999)", "(0-2)^(0-1e999)", "theta^(0-1e999)"]
    )
    def test_literal_past_the_largest_double_is_a_parse_error(self, tmp_path, agent):
        """Exited 1 with an OverflowError traceback from to_source(inf)."""
        raw = json.loads(fixture_path("example4_enumerate.json").read_text())
        raw["environment"]["payoffs"]["agent"] = agent
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "$.environment.payoffs.agent" in res.output
        assert "is not a finite double" in res.output

    @pytest.mark.parametrize(
        "fixture, block, items, where, message",
        [
            # exited 1 with an AssertionError traceback from the partition enumeration
            ("revisable_grid", "revisable", [("t0", 0.0, 0.25), ("t0", 0.5, 0.25), ("t2", 1.0, 0.5)],
             "items[1].label", "duplicate type label 't0'"),
            # exited 1: "lift or collapse fails: 11 lift"
            ("revisable_grid", "revisable", [("t0", 0.0, -0.3), ("t1", 0.5, 0.967), ("t2", 1.0, 0.333)],
             "items[0].weight", "negative prior weight -0.3"),
            # exited 0 with stay_prob 1.4, and 1.5
            ("labor_single", "problem", [("lo", 3.0, 0.7), ("hi", 4.0, 0.7)], "items", "prior weights sum to 1.4, not 1"),
            ("labor_single", "problem", [("lo", 3.0, -0.5), ("hi", 4.0, 1.5)],
             "items[0].weight", "negative prior weight -0.5"),
            ("agency_beta17_21", "agency", [("lo", 3.0, 0.7), ("hi", 4.0, 0.7)], "items", "prior weights sum to 1.4, not 1"),
            ("necessity_env", "environment", [("t0", 1.0, 0.25), ("t1", 2.0, 0.25), ("t1", 3.0, 0.5)],
             "items[2].label", "duplicate type label 't1'"),
        ],
    )
    def test_finite_type_rules_hold_in_every_block(self, tmp_path, fixture, block, items, where, message):
        raw = json.loads(fixture_path(f"{fixture}.json").read_text())
        raw[block]["types"] = {"kind": "finite", "items": [{"label": t, "value": v, "weight": w} for t, v, w in items]}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert f"error: invalid types at $.{block}.types.{where}: {message}" in res.output

    @pytest.mark.parametrize(
        "key, expr, what, variable",
        [("agent", "x_1*theta", "agent utility", "x_1"), ("principals", ["0", "y_2"], "principal 2 utility", "y_2")],
    )
    def test_underscored_action_variables_are_undeclared(self, tmp_path, key, expr, what, variable):
        """Expressions name the actions x1, y1, x2, ...; x_1 and y_2 are no aliases."""
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["environment"]["payoffs"][key] = expr
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert f"invalid environment at $.environment: {what} references undeclared variable '{variable}'" in res.output

    def test_type_space_has_no_grid_field(self, tmp_path):
        raw = json.loads(fixture_path("labor_single.json").read_text())
        raw["problem"]["types"] = {"kind": "interval", "lo": 3, "hi": 4, "grid": 1025}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "schema error at $.problem.types.grid: unknown field" in res.output

    def _invoke_with(self, tmp_path, fixture, block, keys, value):
        raw = json.loads(fixture_path(fixture).read_text())
        target = raw[block]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return CliRunner().invoke(
            cli.main, ["--scenario", str(path), "--out", str(tmp_path / "out")]
        )

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("deviation_menus", {"3": [[1, 2]]}, "$.agency.deviation_menus.3"),
            ("deviation_menus", {"1": [[]]}, "$.agency.deviation_menus.1[0]"),
            ("deviation_menus", {"1": [[1.0, "two"]]}, "$.agency.deviation_menus.1[0]"),
            ("deviation_menus", {"2": [0.0, 1.0]}, "$.agency.deviation_menus.2[0]"),
            ("deviation_menus", [[1.0]], "$.agency.deviation_menus"),
            ("start", [1.0], "$.agency.start"),
            # outside x_box: [1e308, 1e308] ran all 200 iterations, then exited 2 naming no field
            ("start", [1e308, 1e308], "error: schema error at $.agency.start: expected two offers in x_box [0.0, 5.0]"),
            ("start", [0.5, 6.0], "$.agency.start"),
            ("start", [-1.0, 1.0], "$.agency.start"),
            ("x_box", [0.0, 1.0, 2.0], "$.agency.x_box"),
            ("y_box", 5.0, "$.agency.y_box"),
            ("beta", None, "$.agency.beta"),
            ("beta", "x", "$.agency.beta"),
            ("beta", float("inf"), "$.agency.beta"),
            # fixed-point settings are solver constants: any value is an unknown field
            ("max_iter", [], "$.agency.max_iter"),
            ("max_iter", -1, "$.agency.max_iter"),
            ("max_iter", 2.5, "$.agency.max_iter"),
            ("max_iter", 10_001, "$.agency.max_iter"),
            ("fp_tol", -1, "$.agency.fp_tol"),
            ("fp_tol", 0, "$.agency.fp_tol"),
            ("damping", 0, "$.agency.damping"),
            ("damping", 1.5, "$.agency.damping"),
            ("damping", True, "$.agency.damping"),
            ("agent_utilities", None, "$.agency.agent_utilities"),
            ("agent_utilities", ["x*theta - y^2"], "$.agency.agent_utilities"),
            ("principal_payoffs", "y*theta - x^2", "$.agency.principal_payoffs"),
            ("x_box", [5.0, 0.0], "$.agency.x_box"),
            ("y_box", [1.0, float("inf")], "$.agency.y_box"),
        ],
    )
    def test_agency_lists_checked(self, tmp_path, field, value, where):
        res = self._invoke_with(tmp_path, "agency_beta17_21.json", "agency", [field], value)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert where in res.output

    @pytest.mark.parametrize(
        "keys, value, where",
        [
            (["alpha_steps"], 1e308, "$.revisable.alpha_steps"),
            (["alpha_steps"], None, "$.revisable.alpha_steps"),
            (["alpha_steps"], "x", "$.revisable.alpha_steps"),
            (["alpha_steps"], -1, "$.revisable.alpha_steps"),
            (["alpha_steps"], 5, "$.revisable.alpha_steps"),
            (["z_grid", "lo"], None, "$.revisable.z_grid.lo"),
            (["z_grid", "hi"], 0.0, "$.revisable.z_grid.hi"),
            (["z_grid", "points"], 1e308, "$.revisable.z_grid.points"),
            (["z_grid", "points"], 1, "$.revisable.z_grid.points"),
            (["z_range"], [], "$.revisable.z_range"),
            (["z_range"], ["x", 1], "$.revisable.z_range"),
            (["z_range"], [2.0, -1.0], "$.revisable.z_range"),
            (["ideal_form"], {}, "$.revisable.ideal_form"),
            (["ideal_form"], [1], "$.revisable.ideal_form"),
            (["ideal_form"], [float("inf"), 0.7], "$.revisable.ideal_form"),
        ],
    )
    def test_revisable_fields_checked(self, tmp_path, keys, value, where):
        res = self._invoke_with(tmp_path, "revisable_grid.json", "revisable", keys, value)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert where in res.output

    @pytest.mark.parametrize(
        "key, value",
        # the grid and quadrature sizes are solver constants: any value is an unknown field
        [("x_grid", 0), ("y_grid", 100_001), ("y_box", [1.0, 1.0]), ("panels", None), ("panels", 3)],
    )
    def test_single_problem_fields_checked(self, tmp_path, key, value):
        res = self._invoke_with(tmp_path, "labor_single.json", "problem", [key], value)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert f"$.problem.{key}" in res.output

    @pytest.mark.parametrize(
        "fixture, block, key, value",
        [
            ("agency_beta17_21.json", "agency", "damping", 0.5),
            ("agency_beta17_21.json", "agency", "fp_tol", 2e-4),
            ("agency_beta17_21.json", "agency", "max_iter", 200),
            ("labor_single.json", "problem", "x_grid", 256),
            ("labor_single.json", "problem", "y_grid", 256),
            ("labor_single.json", "problem", "panels", 256),
        ],
    )
    def test_solver_settings_are_not_fields(self, tmp_path, fixture, block, key, value):
        """Each was a field whose one value in use is now the solver's constant."""
        res = self._invoke_with(tmp_path, fixture, block, [key], value)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert f"error: schema error at $.{block}.{key}: unknown field" in res.output


class TestAssessmentBlock:
    """Assessment and robust-check paths of the bundled two-principal
    environment, whose payoffs are all 0, so every assessment is an
    equilibrium and every deviation is deterred."""

    def _scenario(self, command="check-equilibrium", contracts=None, continuation=None, private=False, options=None):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["command"] = command
        if private:
            raw["environment"]["observability"] = "private"
        raw["assessment"] = {
            "contracts": contracts or TestScenarioErrors.VALID,
            "strategy": {lab: [{"profile": ["a|w", "d|e"], "prob": 1.0}] for lab in ("t0", "t1", "t2")},
        }
        if continuation is not None:
            raw["assessment"]["continuation"] = continuation
        raw["options"] = options or {}
        return raw

    def test_submenu_contract_from_pairs(self, tmp_path):
        raw = self._scenario(contracts=[
            {"kind": "submenu", "pairs": [["b", "w"], ["a", "w"]]}, {"kind": "menu_rec", "menu": ["d"]},
        ])
        mech = cli.parse_scenario(_write(tmp_path, raw)).blocks["assessment"].contracts[0]
        assert mech.kind == "submenu" and mech.labels == ("a|w", "b|w")  # declared pair order
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output

    ROWS = [
        {"principal": 1, "message": "a|w", "action": "w"},
        {"principal": 2, "message": "d|e", "action": "f"},
        {"principal": 2, "message": "d|f", "action": "e"},
    ]

    def test_private_continuation_is_keyed_by_message(self, tmp_path):
        raw = self._scenario(continuation=self.ROWS, private=True)
        assessment = cli.parse_scenario(_write(tmp_path, raw)).blocks["assessment"]
        assert assessment.continuation == {0: {"a|w": "w"}, 1: {"d|e": "f", "d|f": "e"}}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output

    def test_continuation_must_cover_every_key(self, tmp_path):
        res = _invoke_raw(tmp_path, self._scenario(continuation=self.ROWS[:2], private=True))
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: schema error at $.assessment.continuation: principal 2 acts at 1 of 2 keys" in res.output

    def test_plain_contract_needs_an_explicit_continuation(self, tmp_path):
        """A plain menu's messages carry no recommendation to follow."""
        raw = self._scenario(contracts=[{"kind": "plain", "menu": ["a"]}, TestScenarioErrors.VALID[1]])
        raw["assessment"]["strategy"] = {lab: [{"profile": ["a", "d|e"], "prob": 1.0}] for lab in ("t0", "t1", "t2")}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert (
            "error: invalid assessment at $.assessment.contracts[0]: contract of principal 1 has messages without "
            'recommendations, so the "recommendation" continuation cannot follow them'
        ) in res.output

    def test_policies_option_is_read(self, tmp_path):
        raw = self._scenario("robust-check", options={"policies": ["selector", "prior"]})
        assert cli.parse_scenario(_write(tmp_path, raw)).blocks["options"].search.policies == ("selector", "prior")
        assert _invoke_raw(tmp_path, raw).exit_code == 0
        raw["options"]["policies"] = ["prior", "median"]
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert "schema error at $.options.policies[1]: expected one of" in res.output

    @pytest.mark.parametrize("deviations, kinds", [(None, {"menu_rec": 8}), ("gsharp", {"submenu": 10})])
    def test_robust_check_deviation_space(self, tmp_path, deviations, kinds):
        """Principal 1 has three single-pair actions and principal 2 one
        action of two pairs: 7 + 1 menus with recommendations, 7 + 3 submenus."""
        raw = self._scenario("robust-check", options={} if deviations is None else {"deviations": deviations})
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output
        findings = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["findings"]
        assert Counter(f["deviation_kind"] for f in findings) == kinds
        assert {f["outcome"] for f in findings} == {"deterred"}


class TestSerializationRoundTrip:
    def test_check_equilibrium_report_serializes(self, tmp_path):
        """Flag fields reach the JSON writer as plain booleans and numbers."""
        raw = {
            "schema": 1,
            "command": "check-equilibrium",
            "environment": {
                "types": {
                    "kind": "finite",
                    "items": [{"label": "t0", "value": 1.0, "weight": 1.0}],
                },
                "principals": [
                    {
                        "contractible": [{"label": "x", "value": 1.0}],
                        "noncontractible": [
                            {"label": "y0", "value": 0.0},
                            {"label": "y1", "value": 1.0},
                        ],
                        "feasible": {"x": ["y0", "y1"]},
                    }
                ],
                "payoffs": {
                    "mode": "expressions",
                    "agent": "x*theta - y",
                    "principals": ["y*theta"],
                },
            },
            "assessment": {
                "contracts": [{"kind": "menu_rec", "menu": ["x"]}],
                "strategy": {"t0": [{"profile": ["x|y1"], "prob": 1.0}]},
                "continuation": [
                    {"principal": 1, "profile": ["x|y0"], "action": "y1"},
                    {"principal": 1, "profile": ["x|y1"], "action": "y1"},
                ],
            },
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        report = cli.run(cli.parse_scenario(path))
        files = cli.write_report(report, tmp_path / "out")
        payload = json.loads(files[0].read_text())
        assert payload["results"]["passed"] is True
        assert payload["results"]["values"] == [1]
        assert payload["results"]["bayes_ok"] is True


def _write(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def _invoke_raw(tmp_path, raw, *flags):
    path = _write(tmp_path, raw)
    return CliRunner().invoke(cli.main, ["--scenario", str(path), "--out", str(tmp_path / "out"), *flags])


class TestOptions:
    """Each command reads its own options, checked when the scenario is parsed."""

    @pytest.mark.parametrize("value", [0, -1, 3, True])
    def test_principal_out_of_range(self, tmp_path, value):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["options"]["principal"] = value
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "$.options.principal" in res.output

    def test_menu_names_the_principals_actions(self, tmp_path):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["options"]["menu"] = ["a", "d"]  # "d" belongs to principal 2
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert "$.options.menu[1]" in res.output

    @pytest.mark.parametrize(
        "name, option",
        [
            ("labor_single.json", {"tol": 1e-6}),
            ("agency_beta17_21.json", {"principal": 1}),
            ("example4_enumerate.json", {"tol": 1e-6}),
            ("example4_enumerate.json", {"menu": ["x"]}),
            ("revisable_grid.json", {"cap": 10}),
            ("necessity_env.json", {"aux_states": 1}),
            ("plain_menu_demo.json", {"deviations": "gstar"}),
        ],
    )
    def test_option_the_command_does_not_read(self, tmp_path, name, option):
        raw = json.loads(fixture_path(name).read_text())
        raw["options"].update(option)
        (key,) = option
        with pytest.raises(cli.ScenarioError, match=rf"\$\.options\.{key}: unknown field"):
            cli.parse_scenario(_write(tmp_path, raw))

    def test_menu_needs_a_type_per_action(self, tmp_path):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        items = raw["environment"]["types"]["items"]
        raw["environment"]["types"]["items"] = [dict(items[0], weight=0.5), dict(items[1], weight=0.5)]
        raw["options"]["menu"] = ["a", "b", "c"]
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert "$.options.menu" in res.output

    def test_aux_states_bound(self, tmp_path):
        raw = json.loads(fixture_path("plain_menu_demo.json").read_text())
        raw["options"]["aux_states"] = 4
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert "$.options.aux_states" in res.output

    @pytest.mark.parametrize("name", ["revisable_grid.json", "necessity_env.json", "plain_menu_demo.json"])
    @pytest.mark.parametrize("tol", [1e-6, 0.0])
    def test_tolerance_rule(self, tmp_path, monkeypatch, name, tol):
        """options.tol in every check a command makes; 0 is an exact check."""
        seen = []
        check, search, gamma = cli.eq.check_continuation, cli.eq.enumerate_equilibria, cli.rv.check_gamma_equal
        monkeypatch.setattr(cli.eq, "check_continuation", lambda e, a, tol: seen.append(tol) or check(e, a, tol))
        monkeypatch.setattr(
            cli.eq, "enumerate_equilibria", lambda e, c, opts: seen.append(opts.tol) or search(e, c, opts)
        )
        monkeypatch.setattr(cli.rv, "check_gamma_equal", lambda m, z, s, tol: seen.append(tol) or gamma(m, z, s, tol))
        raw = json.loads(fixture_path(name).read_text())
        raw["options"]["tol"] = tol
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code in (0, 1)
        assert seen and all(t == tol for t in seen)

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_tol_flag_checked(self, tmp_path, value):
        """The tolerance is options.tol only: --tol is no option, whatever its value."""
        res = _invoke_raw(tmp_path, json.loads(fixture_path("necessity_env.json").read_text()), "--tol", value)
        assert res.exit_code == 2
        assert "No such option" in res.output and "--tol" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [-1, "0", float("nan")])
    def test_tol_option_checked(self, tmp_path, value):
        raw = json.loads(fixture_path("necessity_env.json").read_text())
        raw["options"]["tol"] = value
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert "schema error at $.options.tol: expected a finite number >= 0" in res.output


def _shifted_grid(shift: float) -> dict:
    """The revisable_grid fixture on types 0/0.15/0.3 and 8 points, moved by ``shift``."""
    raw = json.loads(fixture_path("revisable_grid.json").read_text())
    block = raw["revisable"]
    block["sender"] = f"-(z - {shift!r} - theta)^2"
    block["receiver"] = f"-(z - {shift + 0.05!r} - 0.7*theta)^2"
    for item, value in zip(block["types"]["items"], (0.0, 0.15, 0.3)):
        item["value"] = value
    block["z_grid"] = {"lo": shift, "hi": shift + 0.3, "points": 8}
    block["z_range"] = [shift - 1.0, shift + 2.0]
    block["ideal_form"] = [shift + 0.05, 0.7]
    return raw


class TestRevisableCheck:
    def test_translated_grid_equals_its_twin(self, tmp_path):
        maps = {}
        for shift in (0.0, 1000.0):
            report = cli.run(cli.parse_scenario(_write(tmp_path, _shifted_grid(shift))))
            results = report.payload["results"]
            assert report.exit_code == 0
            assert (results["n_limited"], results["n_full"], results["equal"]) == (80, 80, True)
            assert (results["lift_failures"], results["collapse_failures"]) == (0, 0)
            step = 0.3 / 7
            maps[shift] = {
                name: sorted((t, round((z - shift) / step), p, regime) for t, z, p, regime in rows)
                for name, (_, rows) in report.tables.items()
            }
        assert maps[0.0] == maps[1000.0]

    def test_ideal_form_must_match_the_receiver(self, tmp_path):
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        raw["revisable"]["ideal_form"] = [0.6, 0.7]  # the receiver's ideal is 0.05 + 0.7 theta
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert "$.revisable.ideal_form" in res.output

    def test_z_range_missing_a_posterior_ideal_is_a_scenario_error(self, tmp_path):
        """Exited 1 with "lift or collapse fails: 25 lift, 0 collapse": without
        ``ideal_form`` no posterior ideal had an interior bracket on z_range."""
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        del raw["revisable"]["ideal_form"]
        assert _invoke_raw(tmp_path, raw).exit_code == 0
        raw["revisable"]["z_range"] = [1.5, 3.0]  # every type's ideal, 0.05 + 0.7 theta, lies below
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "invalid revisable at $.revisable.z_range: posterior ideal search found no interior bracket" in res.output

    def test_ideal_form_needs_one_curvature(self, tmp_path):
        """Passed the per-type check and exited 1 with every lift failing: with
        a curvature that varies with theta, 0.05 + 0.7 E[theta] is not the
        posterior ideal."""
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        raw["revisable"]["receiver"] = "-(z - 0.05 - 0.7*theta)^2*(1+theta)"
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "schema error at $.revisable.ideal_form: the receiver is not quadratic in z" in res.output
        del raw["revisable"]["ideal_form"]
        assert _invoke_raw(tmp_path, raw).exit_code == 0

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("z_grid", {"lo": 1e8, "hi": 1e8 + 0.3, "points": 8}, "$.revisable.z_grid.lo"),
            ("z_range", [-1.0, 1e308], "$.revisable.z_range"),  # exited 1 with overflow warnings
            ("sender", "-(z - x)^2", "$.revisable.sender"),
            ("sender", "log(z - 0.5)", "$.revisable.sender"),  # not finite below z = 0.5
        ],
    )
    def test_grid_fields_checked(self, tmp_path, field, value, where):
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        raw["revisable"][field] = value
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert where in res.output

    @pytest.mark.parametrize("receiver", ["0", "theta", "(z - theta)^2"])
    def test_receiver_failing_the_concavity_audit_is_a_scenario_error(self, tmp_path, receiver):
        """Exited 1 with every lift failing before the model audited itself."""
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        del raw["revisable"]["ideal_form"]
        raw["revisable"]["receiver"] = receiver
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert "invalid revisable at $.revisable.receiver: receiver payoff is not strictly concave" in res.output

    def test_grid_step_must_exceed_twice_the_grid_tolerance(self, tmp_path):
        """A step of 1e-9 (at most 2 * GRID_TOL) let neighbouring baselines
        share a label: a KeyError traceback, exit 1. A step of 2.5e-9 runs."""
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        del raw["revisable"]["z_range"]
        raw["revisable"]["z_grid"]["hi"] = 4e-9
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "invalid revisable at $.revisable.z_grid: final-action grid step 1e-09 is not above" in res.output
        raw["revisable"]["z_grid"]["hi"] = 1e-8
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert (results["n_limited"], results["n_full"], results["equal"]) == (15, 15, True)

    def test_six_types_at_tol_zero(self, tmp_path):
        """Exited 1 with an AssertionError traceback: the enumerator's Bayes
        posteriors differed from the checker's by 1.1e-16, and tol 0
        rejected its own first hit."""
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        block = raw["revisable"]
        block["types"]["items"] = [
            {"label": f"t{i}", "value": float(i), "weight": w} for i, w in enumerate((0.1, 0.2, 0.3, 0.1, 0.2, 0.1))
        ]
        block["z_grid"]["points"] = 4
        del block["ideal_form"]
        raw["options"] = {"tol": 0}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert (results["equal"], results["n_limited"], results["n_full"], results["transforms_ok"]) == (True, 10, 10, True)

    @pytest.mark.parametrize("zero", [0, 1])
    def test_zero_weight_type_exits_2_naming_its_weight(self, tmp_path, zero):
        """Exited 2 with the bare message "tuple.index(x): x not in tuple": a
        zero-weight type's message has no Bayes posterior."""
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        for i, item in enumerate(raw["revisable"]["types"]["items"]):
            item["weight"] = 0.0 if i == zero else 0.5
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert f"invalid revisable at $.revisable.types.items[{zero}].weight: type 't{zero}' has weight 0" in res.output

    def test_rejected_first_hit_exits_2(self, tmp_path, monkeypatch):
        """Exited 1 with an AssertionError traceback that named no violation
        ("worst violations: None None") when only the Bayes check failed."""
        check = cli.rv.check_continuation
        monkeypatch.setattr(
            cli.rv, "check_continuation", lambda *a: dataclasses.replace(check(*a), bayes_ok=False, bayes_gap=0.25)
        )
        res = CliRunner().invoke(
            cli.main, ["--scenario", str(fixture_path("revisable_grid.json")), "--out", str(tmp_path / "out")]
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "error: partition enumeration produced an invalid equilibrium: bayes gap 0.25\n" in res.output

    def test_types_need_distinct_values(self, tmp_path):
        raw = json.loads(fixture_path("revisable_grid.json").read_text())
        raw["revisable"]["types"]["items"][1]["value"] = 0.0
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 2
        assert "invalid revisable at $.revisable.types: table payoffs need distinct type values" in res.output

    def test_concavity_is_audited_at_most_twice_per_check(self, monkeypatch):
        """Once for the parsed model and once for the limited grid game's copy,
        not once per lifted equilibrium."""
        calls = []
        audit = cli.rv.audit_concavity
        monkeypatch.setattr(cli.rv, "audit_concavity", lambda model: calls.append(model) or audit(model))
        report = cli.run(cli.parse_scenario(fixture_path("revisable_grid.json")))
        assert report.exit_code == 0 and report.payload["results"]["n_full"] > 2
        assert 1 <= len(calls) <= 2

    def _run_with(self, monkeypatch, **fields):
        gamma = cli.rv.check_gamma_equal
        monkeypatch.setattr(
            cli.rv, "check_gamma_equal", lambda *a, **k: dataclasses.replace(gamma(*a, **k), **fields)
        )
        return cli.run(cli.parse_scenario(fixture_path("revisable_grid.json")))

    def test_transform_failures_are_not_a_set_mismatch(self, monkeypatch):
        report = self._run_with(monkeypatch, transforms_ok=False, lift_failures=19)
        assert report.exit_code == 1
        assert report.payload["results"]["equal"] is True
        assert report.warnings == ["lift or collapse fails: 19 lift, 0 collapse"]
        assert "only_limited" not in report.payload["results"]

    def test_mismatch_names_the_allocations(self, monkeypatch):
        key = (("t0", ((0.0, 1.0),)), ("t1", ((0.5, 1.0),)))
        report = self._run_with(monkeypatch, equal=False, only_limited=(key,))
        assert report.exit_code == 1
        assert report.warnings == ["allocation sets differ between revision bounds: 1 only limited, 0 only full"]
        assert report.payload["results"]["only_limited"] == [{"t0": [[0.0, 1.0]], "t1": [[0.5, 1.0]]}]
        assert "only_full" not in report.payload["results"]


class TestSolverRuns:
    """solve-single and solve-agency: the stay integral rule in the report
    and the default start."""

    def _results(self, tmp_path, raw):
        tmp_path.mkdir(exist_ok=True)
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 0, res.output
        return json.loads((tmp_path / "out" / "report.json").read_text())["results"]

    def test_smooth_payoffs_report_gauss_legendre(self, tmp_path):
        assert self._results(tmp_path / "s", json.loads(fixture_path("labor_single.json").read_text()))[
            "quadrature"
        ] == "gauss-legendre"
        raw = json.loads(fixture_path("agency_beta17_21.json").read_text())
        assert self._results(tmp_path / "a", raw)["quadrature"] == ["gauss-legendre"] * 2
        raw["agency"]["principal_payoffs"][1] = "(1 + beta*x_other)*y*min(theta, 9) - x^2"  # capped: kinked at 9
        assert self._results(tmp_path / "k", raw)["quadrature"] == ["gauss-legendre", "simpson"]

    def test_payoff_off_the_exact_class_reports_simpson(self, tmp_path):
        raw = json.loads(fixture_path("labor_single.json").read_text())
        raw["problem"].update(agent="theta - 2", principal="y*exp(30*theta)")
        results = self._results(tmp_path, raw)
        assert results["quadrature"] == "simpson" and results["cutoff_kind"] == "all-stay"

    def test_finite_types_report_a_finite_sum(self, tmp_path):
        items = [{"label": "lo", "value": 3.0, "weight": 0.4}, {"label": "hi", "value": 4.0, "weight": 0.6}]
        raw = json.loads(fixture_path("labor_single.json").read_text())
        raw["problem"]["types"] = {"kind": "finite", "items": items}
        assert self._results(tmp_path / "s", raw)["quadrature"] == "finite-sum"
        raw = json.loads(fixture_path("agency_beta17_21.json").read_text())
        raw["agency"]["types"] = {"kind": "finite", "items": items}
        assert self._results(tmp_path / "a", raw)["quadrature"] == ["finite-sum"] * 2

    def test_menu_audit_catches_a_coarse_slice_miss(self, tmp_path):
        """Agents stay only within 0.002 of y = 80/255, a point of the full
        256-point y-grid that the coarse 64-point slice misses, so the best
        responses can miss the trade; the audit values the menus on the full
        slice and flags both. Only the audit is pinned, not where the
        iteration stops."""
        raw = json.loads(fixture_path("agency_beta17_21.json").read_text())
        agency = raw["agency"]
        agency["agent_utilities"] = ["theta*(0.000004 - (y - 0.3137254901960784)^2)"] * 2
        agency["principal_payoffs"] = ["(1 + beta*x_other)*y*theta - (x - 2)^2"] * 2
        agency["deviation_menus"] = {"1": [[2.0], [0.0, 1.0]]}
        res = _invoke_raw(tmp_path, raw)
        assert res.exit_code == 1
        assert "finding: safe-profitable deviation found" in res.output
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert [(f["menu"], f["safe_profitable"]) for f in results["robustness"]] == [([2.0], True), ([0.0, 1.0], True)]

    def test_default_start_is_zero_clipped_into_x_box(self, tmp_path):
        raw = json.loads(fixture_path("agency_beta17_21.json").read_text())
        del raw["agency"]["start"]
        raw["agency"]["x_box"] = [1, 5]
        assert self._results(tmp_path, raw)["converged"] is True
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[1].split(",") == ["0", "1", "1"]
        assert all(1.0 <= float(v) <= 5.0 for row in rows[1:] for v in row.split(",")[1:])


def test_import_leaves_numpy_polynomial_unloaded():
    """The Gauss nodes come from numpy.linalg; loading numpy.polynomial
    would add to every run's start-up time and memory."""
    code = "import sys, contract_forge.cli; print('numpy.polynomial' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=src, check=True)
    assert done.stdout.strip() == "False"
