"""End-to-end tests of the scenario harness: exit codes, report shape and
determinism, schema validation, environment handling, and suite aggregation.

All invocations go through ``cli.main`` in process; configs are written to
pytest tmp dirs so every test is hermetic.
"""

import csv
import json

import jsonschema
import pytest

from gradedshift import cli


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def constant_scalar_symbol(n, value):
    return {
        "n": n,
        "coeff_dim": 1,
        "terms": [{"alpha": [0] * n, "matrix": [[[value, 0.0]]]}],
    }


def monomial_scalar_symbol(n, alpha, value):
    return {
        "n": n,
        "coeff_dim": 1,
        "terms": [{"alpha": list(alpha), "matrix": [[[value, 0.0]]]}],
    }


def purity_config(scenario_id, symbol, expected=None):
    cfg = {
        "schema_version": "1",
        "scenario_id": scenario_id,
        "task": "purity",
        "space": {"family": "hardy", "n": 2, "degree_cap": 4},
        "seed": 0,
        "symbol": symbol,
    }
    if expected is not None:
        cfg["expected"] = expected
    return cfg


def read_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        write_json(cfg, purity_config("pure-contraction", constant_scalar_symbol(2, 0.5)))
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["pass"] is True
        assert rep["payload"]["verdict"] == "pure"

    def test_expected_mismatch_is_one(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        write_json(
            cfg,
            purity_config(
                "unitary-expected-pure",
                constant_scalar_symbol(2, 1.0),
                expected={"verdict": "pure"},
            ),
        )
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 1
        rep = read_report(out)
        assert rep["payload"]["verdict"] == "not_pure"
        assert rep["expected_ok"] is False
        assert rep["pass"] is False

    def test_invalid_input_is_two(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        write_json(cfg, purity_config("too-big", constant_scalar_symbol(2, 2.0)))
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["pass"] is False
        assert rep["error"]["type"] == "NotContractiveError"

    def test_schema_violation_is_two(self, tmp_path):
        cfg = tmp_path / "s.json"
        write_json(cfg, {"schema_version": "1", "task": "purity"})
        assert cli.main(["purity", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2

    def test_task_subcommand_mismatch_is_two(self, tmp_path, capsys, monkeypatch):
        def must_not_run(config):
            raise AssertionError("the scenario ran before its task was checked")

        monkeypatch.setitem(cli._TASK_RUNNERS, "purity", must_not_run)
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, purity_config("mismatch", constant_scalar_symbol(2, 0.5)))
        assert cli.main(["cnp", "--config", str(cfg), "--out", str(out)]) == 2
        assert "does not match" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_is_two(self, tmp_path, literal):
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        text = json.dumps(purity_config("non-finite", constant_scalar_symbol(2, 0.5)))
        cfg.write_text(text.replace("0.5", literal), encoding="utf-8")
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "InvalidInputError"
        assert "non-finite" in rep["error"]["message"]

    def test_space_symbol_coeff_dim_mismatch_is_two(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        config = purity_config("coeff-dims", constant_scalar_symbol(2, 0.5))
        config["space"]["coeff_dim"] = 2
        write_json(cfg, config)
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "InvalidInputError"
        assert "coeff_dim" in rep["error"]["message"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_during_assembly_is_one(self, tmp_path):
        # sqrt(2) * 1.7e308 overflows: the first Dirichlet shift weight is > 1
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        config = purity_config("overflow", monomial_scalar_symbol(2, (1, 0), 1.7e308))
        config["space"]["family"] = "dirichlet"
        write_json(cfg, config)
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 1
        rep = read_report(out)
        assert rep["pass"] is False
        assert rep["error"]["type"] in ("LinAlgError", "FloatingPointError")
        jsonschema.validate(rep, cli._load_schema("report.schema.json"))

    def test_bcl_triple_coeff_dim_mismatch_is_two(self, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the triple was certified before its e_dim was checked")

        monkeypatch.setattr(cli, "bcl_dilation_certify", must_not_run)
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        one = [[[1.0, 0.0]]]
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "bcl-coeff-dims",
                "task": "bcl",
                "space": {"family": "hardy", "n": 1, "degree_cap": 4, "coeff_dim": 5},
                "seed": 0,
                "triple": {"e_dim": 1, "u": one, "p": one},
            },
        )
        assert cli.main(["bcl", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "InvalidInputError"
        assert "e_dim" in rep["error"]["message"]

    def test_missing_config_file_is_two(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli.main(["purity", "--config", str(missing), "--out", str(tmp_path / "r.json")]) == 2

    def test_bad_tol_syntax_is_two(self, tmp_path):
        cfg = tmp_path / "s.json"
        write_json(cfg, purity_config("ok", constant_scalar_symbol(2, 0.5)))
        assert (
            cli.main(["purity", "--config", str(cfg), "--out", str(tmp_path / "r.json"), "--tol", "oops"]) == 2
        )


class TestReports:
    def test_report_validates_against_schema(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, purity_config("schema-check", constant_scalar_symbol(2, 0.5)))
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        schema = cli._load_schema("report.schema.json")
        jsonschema.validate(read_report(out), schema)

    def test_error_report_validates_too(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, purity_config("too-big", constant_scalar_symbol(2, 2.0)))
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        jsonschema.validate(read_report(out), cli._load_schema("report.schema.json"))

    def test_error_report_records_elapsed_time(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, purity_config("too-big", constant_scalar_symbol(2, 2.0)))
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        assert read_report(out)["timing"] > 0.0

    def test_deterministic_after_dropping_timing(self, tmp_path):
        cfg = tmp_path / "s.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "sweep-det",
                "task": "purity",
                "space": {"family": "bergman", "n": 2, "degree_cap": 3},
                "seed": 42,
                "sweep": {"count": 5, "forced_unitary": 2},
            },
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out2)]) == 0
        r1, r2 = read_report(out1), read_report(out2)
        r1.pop("timing"), r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_canonical_json_layout(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, purity_config("layout", constant_scalar_symbol(2, 0.5)))
        cli.main(["purity", "--config", str(cfg), "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"

    def test_seed_override_echoed(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "seeded",
                "task": "purity",
                "space": {"family": "hardy", "n": 2, "degree_cap": 3},
                "seed": 1,
                "sweep": {"count": 2},
            },
        )
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out), "--seed", "77"]) == 0
        assert read_report(out)["seed"] == 77

    def test_tol_override_changes_verdict(self, tmp_path):
        cfg = tmp_path / "s.json"
        write_json(cfg, purity_config("tol-thread", constant_scalar_symbol(2, 0.9)))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out2), "--tol", "tol=0.5"]) == 0
        assert read_report(out1)["payload"]["verdict"] == "pure"
        assert read_report(out2)["payload"]["verdict"] == "not_pure"

    def test_out_dir_env_honored(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "reports"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
        cfg = tmp_path / "s.json"
        write_json(cfg, purity_config("env-routed", constant_scalar_symbol(2, 0.5)))
        assert cli.main(["purity", "--config", str(cfg)]) == 0
        assert (env_dir / "env-routed.report.json").exists()


class TestTaskPayloads:
    def test_cnp_bergman_expected_match(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "bergman-not-cnp",
                "task": "cnp",
                "space": {"family": "bergman", "n": 1, "degree_cap": 5},
                "seed": 0,
                "expected": {"is_cnp_to_L": False, "first_violation": 2},
            },
        )
        assert cli.main(["cnp", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["expected_ok"] is True
        assert rep["payload"]["b"][:4] == [0.0, 2.0, -1.0, 0.0]

    def test_identity_chen_refusal(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "h2-refusal",
                "task": "identity",
                "space": {"family": "hm", "m": 2, "n": 2, "degree_cap": 5},
                "seed": 0,
                "identity_kind": "chen",
            },
        )
        assert cli.main(["identity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "NotCnpError"
        assert "c_2" in rep["error"]["message"]

    def test_identity_defect_payload(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "defect-h2",
                "task": "identity",
                "space": {"family": "hm", "m": 2, "n": 2, "degree_cap": 5},
                "seed": 0,
            },
        )
        assert cli.main(["identity", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["payload"]["kind"] == "defect"
        assert rep["payload"]["defect"]["residual_norm"] <= 1e-10

    def test_decay_monotone(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "decay-avg",
                "task": "decay",
                "space": {"family": "hardy", "n": 1, "degree_cap": 8},
                "seed": 0,
                "m_max": 12,
                "symbol": {
                    "n": 1,
                    "coeff_dim": 1,
                    "terms": [
                        {"alpha": [0], "matrix": [[[0.5, 0.0]]]},
                        {"alpha": [1], "matrix": [[[0.5, 0.0]]]},
                    ],
                },
            },
        )
        assert cli.main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["payload"]["nonincreasing"] is True
        assert len(rep["payload"]["curve"]) == 13

    def test_witness_axis_symbol(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "witness-z1",
                "task": "witness",
                "space": {"family": "hardy", "n": 2, "degree_cap": 5},
                "seed": 0,
                "symbol": monomial_scalar_symbol(2, (1, 0), 1.0),
            },
        )
        assert cli.main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["payload"]["found"] is True
        assert rep["payload"]["certificate_ok"] is True

    def test_witness_constant_term_rejected(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "witness-bad",
                "task": "witness",
                "space": {"family": "hardy", "n": 2, "degree_cap": 5},
                "seed": 0,
                "symbol": constant_scalar_symbol(2, 0.5),
            },
        )
        assert cli.main(["witness", "--config", str(cfg), "--out", str(out)]) == 2

    def test_bcl_single_triple(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        eye2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        proj = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "bcl-hand",
                "task": "bcl",
                "space": {"family": "hardy", "n": 1, "degree_cap": 5},
                "seed": 0,
                "triple": {"e_dim": 2, "u": eye2, "p": proj},
                "expected": {"verdict_p": "not_pure", "verdict_q": "not_pure"},
            },
        )
        assert cli.main(["bcl", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["payload"]["rho_p"] == pytest.approx(1.0)
        assert rep["expected_ok"] is True

    def test_colligation_zero_tuple(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "colligation-flip",
                "task": "colligation",
                "space": {"family": "hardy", "n": 1, "degree_cap": 5},
                "seed": 3,
                "colligation": {
                    "e_dim": 1,
                    "h_dims": [1],
                    "a": [[[0.0, 0.0]]],
                    "b": [[[-1.0, 0.0]]],
                    "c": [[[1.0, 0.0]]],
                    "d": [[[0.0, 0.0]]],
                },
            },
        )
        assert cli.main(["colligation", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["payload"]["transfer_max_norm"] <= 1.0 + 1e-10
        assert rep["payload"]["verdict"] == "pure"


class TestSuite:
    @staticmethod
    def _seed_suite(tmp_path, include_failure=True):
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        write_json(
            scenarios / "a-pure.json", purity_config("a-pure", constant_scalar_symbol(2, 0.5))
        )
        write_json(
            scenarios / "b-cnp.json",
            {
                "schema_version": "1",
                "scenario_id": "b-cnp",
                "task": "cnp",
                "space": {"family": "dirichlet", "n": 1, "degree_cap": 10},
                "seed": 0,
                "expected": {"is_cnp_to_L": True},
            },
        )
        entries = [
            {"path": "scenarios/a-pure.json", "expected_exit": 0, "expected_pass": True},
            {"path": "scenarios/b-cnp.json", "expected_exit": 0},
        ]
        if include_failure:
            write_json(
                scenarios / "c-refused.json",
                purity_config("c-refused", constant_scalar_symbol(2, 2.0)),
            )
            entries.append({"path": "scenarios/c-refused.json", "expected_exit": 2})
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {"schema_version": "1", "scenarios": entries})
        return manifest

    def test_suite_with_expected_refusal_passes(self, tmp_path):
        manifest = self._seed_suite(tmp_path)
        out_dir = tmp_path / "out"
        assert cli.main(["suite", "--config", str(manifest), "--out", str(out_dir)]) == 0
        agg = json.loads((out_dir / "suite_report.json").read_text())
        assert agg["suite_pass"] is True
        assert agg["scenario_count"] == 3
        for sid in ("a-pure", "b-cnp", "c-refused"):
            assert (out_dir / f"{sid}.report.json").exists()
        with open(out_dir / "suite_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scenario_id"] for r in rows] == sorted(r["scenario_id"] for r in rows)
        assert all(r["ok"] == "True" for r in rows)
        refused = next(r for r in rows if r["scenario_id"] == "c-refused")
        assert refused["exit_code"] == "2"

    def test_suite_flags_unexpected_exit(self, tmp_path):
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        write_json(
            scenarios / "bad.json", purity_config("bad", constant_scalar_symbol(2, 2.0))
        )
        manifest = tmp_path / "manifest.json"
        write_json(
            manifest,
            {
                "schema_version": "1",
                "scenarios": [{"path": "scenarios/bad.json", "expected_exit": 0}],
            },
        )
        out_dir = tmp_path / "out"
        assert cli.main(["suite", "--config", str(manifest), "--out", str(out_dir)]) == 1
        agg = json.loads((out_dir / "suite_report.json").read_text())
        assert agg["suite_pass"] is False

    def test_empty_manifest_trivially_passes(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {"schema_version": "1", "scenarios": []})
        out_dir = tmp_path / "out"
        assert cli.main(["suite", "--config", str(manifest), "--out", str(out_dir)]) == 0
        agg = json.loads((out_dir / "suite_report.json").read_text())
        assert agg["scenario_count"] == 0
        assert agg["suite_pass"] is True

    def test_suite_missing_manifest_is_two(self, tmp_path):
        assert cli.main(["suite", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2
