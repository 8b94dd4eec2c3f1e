"""End-to-end tests of the scenario harness: exit codes, report shape and
determinism, schema validation, environment handling, and suite aggregation;
plus the JSON decoders that build symbols, triples and colligations.

All invocations but two go through ``cli.main`` in process (the two run
``python -m gradedshift`` in a subprocess, one of them to see what LAPACK
prints); configs are written to pytest tmp dirs so every test is hermetic.
"""

import argparse
import contextlib
import copy
import csv
import functools
import io
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for

from gradedshift import cli, dilation, errors, kernels, purity, spaces
from gradedshift import operators as operators_module

from oracles import polydisc_points_oracle

ACCEPTANCE_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"
ACCEPTANCE_CONFIGS = sorted(ACCEPTANCE_DIR.glob("*.json"))
MANIFEST = ACCEPTANCE_DIR.parent / "acceptance_manifest.json"


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

    def test_overflow_prints_no_lapack_lines(self, tmp_path):
        # opnorm refuses the inf entries itself, so LAPACK never sees them
        cfg = tmp_path / "s.json"
        config = purity_config("overflow", monomial_scalar_symbol(2, (1, 0), 1.7e308))
        config["space"]["family"] = "dirichlet"
        write_json(cfg, config)
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "gradedshift", "purity", "--config", str(cfg), "--out", str(tmp_path / "r.json")],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "DLASCL" not in proc.stdout + proc.stderr
        assert read_report(tmp_path / "r.json")["error"]["type"] == "FloatingPointError"

    @pytest.mark.parametrize("name, task", (("purity-sweep-bergman", "purity"), ("bcl-sweep", "bcl")))
    def test_unallocatable_sweep_is_two(self, tmp_path, name, task):
        # a schema-valid count whose draws numpy refuses before it allocates
        # anything (1023 PiB for purity, 256 PiB for bcl)
        cfg, out = tmp_path / "s.json", tmp_path / "s.report.json"
        config = json.loads((ACCEPTANCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
        config["sweep"]["count"] = 10**15
        config.pop("expected", None)
        write_json(cfg, config)
        assert cli.main([task, "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["pass"] is False and rep["payload"] == {}
        assert rep["error"]["type"] == "MemoryError"
        assert "PiB" in rep["error"]["message"]
        jsonschema.validate(rep, cli._load_schema("report.schema.json"))

    def test_ragged_matrix_rows_are_two(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        config = json.loads((ACCEPTANCE_DIR / "purity-hardy-monomial.json").read_text(encoding="utf-8"))
        config["space"]["coeff_dim"] = 2
        config["symbol"]["coeff_dim"] = 2
        config["symbol"]["terms"][0]["matrix"] = [[[0.1, 0], [0.2, 0]], [[0.3, 0]]]
        write_json(cfg, config)
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "InvalidInputError"
        assert rep["error"]["message"].startswith("$.symbol.terms[0].matrix: ")
        jsonschema.validate(rep, cli._load_schema("report.schema.json"))

    @staticmethod
    def config_basis(name):
        """The basis that the acceptance config ``name`` runs on."""
        space = json.loads((ACCEPTANCE_DIR / f"{name}.json").read_text(encoding="utf-8"))["space"]
        return purity.basis_for(cli.build_domain(space), space["degree_cap"], space.get("coeff_dim", 1))

    @staticmethod
    def assert_certification_error(out):
        rep = read_report(out)
        assert rep["pass"] is False and rep["payload"] == {}
        assert rep["error"]["type"] == "CertificationError"
        assert "degree grading" in rep["error"]["message"]
        jsonschema.validate(rep, cli._load_schema("report.schema.json"))

    @pytest.mark.parametrize(
        "name, task",
        (("purity-hardy-monomial", "purity"), ("decay-averaging-symbol", "decay"), ("witness-axis-orbit", "witness")),
    )
    def test_repeated_multi_index_is_two(self, tmp_path, name, task):
        # a second term at the first term's multi-index is refused: on
        # purity-hardy-monomial, 0.9 z1z2 and 0.5 z1z2 would sum to 1.4 z1z2,
        # which is not contractive, and keeping the last would certify 0.5 z1z2
        cfg, out = tmp_path / "s.json", tmp_path / "s.report.json"
        config = json.loads((ACCEPTANCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
        terms = config["symbol"]["terms"]
        terms.append({"alpha": terms[0]["alpha"], "matrix": [[[0.5, 0.0]]]})
        write_json(cfg, config)
        assert cli.main([task, "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["pass"] is False and rep["payload"] == {}
        assert rep["error"]["type"] == "InvalidInputError"
        assert rep["error"]["message"] == (
            f"$.symbol.terms[{len(terms) - 1}].alpha: multi-index {terms[0]['alpha']} "
            "is already $.symbol.terms[0].alpha"
        )
        jsonschema.validate(rep, cli._load_schema("report.schema.json"))

    def test_broken_degree_grading_is_one(self, tmp_path, cold_memos, break_tables):
        # the constant monomial is its own successor, so the (1, 1) map
        # breaks the grading
        break_tables(self.config_basis("purity-hardy-monomial"), stall=0)
        out = tmp_path / "s.report.json"
        config = str(ACCEPTANCE_DIR / "purity-hardy-monomial.json")
        assert cli.main(["purity", "--config", config, "--out", str(out)]) == 1
        self.assert_certification_error(out)

    @pytest.mark.parametrize("name, task", (("decay-averaging-symbol", "decay"), ("witness-axis-orbit", "witness")))
    def test_broken_degree_grading_is_one_for_every_map_consumer(
        self, tmp_path, cold_memos, break_tables, name, task
    ):
        # decay applies M_phi^* off the maps, witness builds M_theta and the
        # shifts from them: the first map with beta != 0 breaks the grading
        break_tables(self.config_basis(name), stall=0)
        out = tmp_path / "s.report.json"
        assert cli.main([task, "--config", str(ACCEPTANCE_DIR / f"{name}.json"), "--out", str(out)]) == 1
        self.assert_certification_error(out)

    def test_broken_grading_on_a_warm_basis_is_one(self, tmp_path, cold_memos, break_tables):
        config = str(ACCEPTANCE_DIR / "purity-hardy-monomial.json")
        domain = cli.build_domain(json.loads(Path(config).read_text(encoding="utf-8"))["space"])
        # warm the certifying basis's tables, the Hardy bidisc at D = 6,
        # with a symbol of another support
        assert purity.multiplier_purity_verdict(spaces.scalar_symbol(2, {(1, 0): 0.9}), domain, 6).verdict == "pure"
        warm = purity.basis_for(domain, 6, 1)
        assert "successors" in vars(warm) and list(warm._shift_maps) == [(1, 0)]
        break_tables(warm, stall=1)
        phi = spaces.scalar_symbol(2, {(1, 1): 0.9})
        with pytest.raises(errors.CertificationError, match=r"term \(1, 1\) breaks the degree grading"):
            purity.multiplier_purity_verdict(phi, domain, 6)
        out = tmp_path / "s.report.json"
        assert cli.main(["purity", "--config", config, "--out", str(out)]) == 1
        self.assert_certification_error(out)
        assert list(warm._shift_maps) == [(1, 0)]
        cached = [warm.index_array, warm.degree_array, warm.norm_array, warm.successors]
        cached += [arr for maps in warm._shift_maps.values() for arr in maps]
        for arr in cached:
            with pytest.raises(ValueError):
                arr[...] = 0
        assert isinstance(warm.index_table, tuple) and isinstance(warm.norms, tuple)

    def test_broken_grading_on_a_warm_basis_is_one_for_a_sweep(self, tmp_path, cold_memos, break_tables):
        config = str(ACCEPTANCE_DIR / "purity-sweep-bergman.json")
        out = tmp_path / "s.report.json"
        # the sweep's realizations are certified on the Bergman bidisc's V_4
        # itself; a constant symbol warms its tables and the beta = 0 map
        basis = self.config_basis("purity-sweep-bergman")
        constant = spaces.MultiplierSymbol(2, 2, {(0, 0): 0.5 * np.eye(2)})
        assert purity.multiplier_purity_verdict(constant, basis.domain, 4).verdict == "pure"
        break_tables(basis, stall=3)
        assert cli.main(["purity", "--config", config, "--out", str(out)]) == 1
        self.assert_certification_error(out)
        assert list(basis._shift_maps) == [(0, 0)]

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

    def test_basis_beyond_max_dim_is_two(self, tmp_path):
        # Drury-Arveson on B_8 at D = 60 has C(68, 8) ~ 7.4e9 monomials; it is
        # refused from that count, before anything is enumerated
        cfg = tmp_path / "s.json"
        out = tmp_path / "s.report.json"
        write_json(
            cfg,
            {
                "schema_version": "1",
                "scenario_id": "too-large",
                "task": "identity",
                "identity_kind": "chen",
                "space": {"family": "drury_arveson", "n": 8, "degree_cap": 60},
                "seed": 0,
            },
        )
        assert cli.main(["identity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["pass"] is False
        assert rep["error"]["type"] == "InvalidInputError"
        assert "MAX_DIM" in rep["error"]["message"]
        jsonschema.validate(rep, cli._load_schema("report.schema.json"))

    def test_missing_config_file_is_two(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli.main(["purity", "--config", str(missing), "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize(
        "command, config",
        [("purity", ACCEPTANCE_DIR / "purity-sweep-bergman.json"), ("suite", MANIFEST)],
        ids=("purity", "suite"),
    )
    def test_negative_seed_is_two(self, tmp_path, command, config):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "gradedshift", command, "--config", str(config), "--out", str(out), "--seed", "-1"],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_bad_tol_syntax_is_two(self, tmp_path):
        cfg = tmp_path / "s.json"
        write_json(cfg, purity_config("ok", constant_scalar_symbol(2, 0.5)))
        assert (
            cli.main(["purity", "--config", str(cfg), "--out", str(tmp_path / "r.json"), "--tol", "oops"]) == 2
        )

    @staticmethod
    def _run_module(*args):
        return subprocess.run(
            [sys.executable, "-m", "gradedshift", *args],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent)),
            capture_output=True,
            text=True,
            timeout=60,
        )

    @pytest.mark.parametrize("where", ("directory", "under-a-file"))
    def test_unwritable_report_is_two(self, tmp_path, where):
        (tmp_path / "file").write_text("kept\n")
        out = tmp_path if where == "directory" else tmp_path / "file" / "x.json"
        proc = self._run_module("cnp", "--config", str(ACCEPTANCE_DIR / "cnp-bergman.json"), "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot write report {str(out)!r}: ")
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_suite_out_under_a_regular_file_is_two(self, tmp_path):
        out = tmp_path / "file"
        out.write_text("kept\n")
        proc = self._run_module("suite", "--config", str(MANIFEST), "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command, out, message",
        [
            ("cnp", ".", "cannot write report {out!r}: Is a directory"),
            ("cnp", "file/x.json", "cannot write report {out!r}: Not a directory"),
            ("suite", "file", "cannot write reports under {out!r}: Not a directory"),
            ("suite", "file/sub", "cannot write reports under {out!r}: Not a directory"),
        ],
    )
    def test_unwritable_out_is_refused_before_any_scenario_runs(self, tmp_path, monkeypatch, capsys, command, out, message):
        (tmp_path / "file").write_text("kept\n")
        out = str(tmp_path / out) if out != "." else str(tmp_path)
        monkeypatch.setattr(cli, "_run_config_file", lambda *args, **kwargs: pytest.fail("a scenario ran"))
        config = MANIFEST if command == "suite" else ACCEPTANCE_DIR / "cnp-bergman.json"
        assert cli.main([command, "--config", str(config), "--out", out]) == 2
        assert capsys.readouterr().err == "error: " + message.format(out=out) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_unwritable_out_dir_env_is_refused_before_the_scenario_runs(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "file"
        out.write_text("kept\n")
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(out))
        monkeypatch.setattr(cli, "_run_config_file", lambda *args, **kwargs: pytest.fail("a scenario ran"))
        assert cli.main(["bcl", "--config", str(ACCEPTANCE_DIR / "bcl-sweep.json")]) == 2
        assert capsys.readouterr().err == f"error: cannot write reports under {str(out)!r}: Not a directory\n"
        assert out.read_text() == "kept\n"


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

    @pytest.mark.parametrize(
        "terms",
        (
            [((1, 0), [[0.6, 0.2j], [0.1, 0.3]])],
            [((1, 0), [[0.6, 0.2j], [0.1, 0.3]]), ((0, 2), [[0.25, 0.0], [0.5j, 0.125]])],
        ),
        ids=("one-term", "two-term"),
    )
    def test_witness_report_does_not_depend_on_the_scale_of_theta(self, tmp_path, terms):
        # t theta spans the range of theta for any t != 0; a rank threshold
        # that was not relative refused 1e-12 z_1 as spanning nothing
        payloads = []
        for scale in (1.0, 1e-12):
            cfg, out = tmp_path / f"{scale}.json", tmp_path / f"{scale}.report.json"
            symbol = {"n": 2, "coeff_dim": 2, "terms": []}
            for alpha, mat in terms:
                matrix = [[[scale * complex(x).real, scale * complex(x).imag] for x in row] for row in mat]
                symbol["terms"].append({"alpha": list(alpha), "matrix": matrix})
            config = {
                "schema_version": "1",
                "scenario_id": "witness-scaled",
                "task": "witness",
                "space": {"family": "hardy", "n": 2, "degree_cap": 5, "coeff_dim": 2},
                "seed": 0,
                "symbol": symbol,
            }
            write_json(cfg, config)
            assert cli.main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
            payloads.append(read_report(out)["payload"])
        if len(terms) == 1:
            assert payloads[0] == payloads[1]
            assert payloads[0]["residuals"] == [0.0, 0.0]
        else:
            # the SVD frame of the scaled matrix differs in its last bits
            residuals = [payload.pop("residuals") for payload in payloads]
            assert payloads[0] == payloads[1]
            np.testing.assert_allclose(residuals[1], residuals[0], rtol=0, atol=1e-15)
        assert payloads[0]["found"] is True and payloads[0]["certificate_ok"] is True

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

    @pytest.mark.parametrize(
        "symbol, message",
        [
            (monomial_scalar_symbol(2, (6, 0), 1.0), "degree cap too small for the subspace symbol"),
            (monomial_scalar_symbol(2, (1, 0), 0.0), "the subspace symbol is zero"),
        ],
    )
    def test_witness_empty_subspace_refused(self, tmp_path, symbol, message):
        # z_1^6 leaves V_5; a zero symbol spans nothing at any cap
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        config = {
            "schema_version": "1",
            "scenario_id": "witness-empty",
            "task": "witness",
            "space": {"family": "hardy", "n": 2, "degree_cap": 5},
            "seed": 0,
            "symbol": symbol,
        }
        write_json(cfg, config)
        assert cli.main(["witness", "--config", str(cfg), "--out", str(out)]) == 2
        error = read_report(out)["error"]
        assert error["type"] == "InvalidInputError"
        assert error["message"].startswith(message)

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

    @pytest.mark.parametrize(
        "space",
        [
            {"family": "dirichlet", "n": 3, "degree_cap": 5},
            {"family": "drury_arveson", "n": 1, "coeff_dim": 7, "degree_cap": 5},
            {"family": "hardy", "n": 2, "degree_cap": 5},
            {"family": "hardy", "n": 1, "coeff_dim": 2, "degree_cap": 5},
        ],
    )
    def test_colligation_space_must_be_its_hardy_polydisc(self, tmp_path, space):
        # the colligation fixes the space: n = len(h_dims), coeff_dim = e_dim
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, {**acceptance_config("colligation-coordinate-flip"), "space": space})
        assert cli.main(["colligation", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "InvalidInputError"
        assert "Hardy polydisc with n = len(h_dims) = 1 and coeff_dim = e_dim = 1" in rep["error"]["message"]

    @pytest.mark.parametrize("n_vars", (1, 2, 3))
    def test_colligation_points_equal_scalar_draws(self, n_vars):
        # bit for bit only where np.sqrt, np.cos and np.sin round as math does
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            points = cli._polydisc_points(rng, 200, n_vars)
            assert points.tobytes() == np.array(polydisc_points_oracle(ref, 200, n_vars)).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


# The payload of the Dirichlet sweep below, frozen when Dirichlet sweeps
# became realizations: (forced, near_boundary, bound, phi0_rho, verdict)
_DIRICHLET_SWEEP = [
    (False, False, 0.9801, 0.08259549970279408, "pure"),
    (False, False, 0.9800999999999999, 0.18836281332330654, "pure"),
    (False, False, 0.9801, 0.3878452900863813, "pure"),
    (True, True, 1.0, 1.0, "not_pure"),
    (True, True, 1.0, 1.0, "not_pure"),
]


def sweep_config(path, space, sweep, seed=11):
    write_json(
        path,
        {
            "schema_version": "1",
            "scenario_id": "sweep",
            "task": "purity",
            "seed": seed,
            "space": space,
            "sweep": sweep,
        },
    )


class TestPuritySweeps:
    def test_manifest_sweep_is_realized(self, tmp_path):
        out = tmp_path / "r.json"
        config = str(ACCEPTANCE_DIR / "purity-sweep-bergman.json")
        assert cli.main(["purity", "--config", config, "--out", str(out)]) == 0
        symbols = read_report(out)["payload"]["symbols"]
        assert len(symbols) == 15
        for entry in symbols:
            assert entry["contractivity"]["kind"] == "realization"
            if entry["forced_unitary"]:
                assert entry["verdict"] == "not_pure"
                assert abs(entry["contractivity"]["bound"] - 1.0) <= 1e-15
            else:
                assert entry["verdict"] == "pure"
                assert abs(entry["contractivity"]["bound"] - 0.99**2) <= 1e-15

    def test_dirichlet_sweep_is_realized(self, tmp_path):
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        space = {"family": "dirichlet", "n": 2, "degree_cap": 4, "coeff_dim": 2}
        sweep_config(cfg, space, {"count": 3, "forced_unitary": 2})
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        payload = read_report(out)["payload"]
        assert payload["count"] == 5
        want = [
            {
                "index": k,
                "forced_unitary": forced,
                "near_boundary": near,
                "contractivity": {"kind": "realization", "bound": bound},
                "phi0_rho": rho,
                "verdict": verdict,
            }
            for k, (forced, near, bound, rho, verdict) in enumerate(_DIRICHLET_SWEEP)
        ]
        assert payload["symbols"] == want

    @pytest.mark.parametrize("family", ("hardy", "dirichlet"))
    def test_degree_zero_gives_pure_constants(self, tmp_path, family):
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        space = {"family": family, "n": 2, "degree_cap": 3, "coeff_dim": 2}
        sweep_config(cfg, space, {"count": 4, "symbol_degree": 0})
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        for entry in read_report(out)["payload"]["symbols"]:
            assert entry["verdict"] == "pure"
            assert entry["contractivity"]["bound"] <= 0.99 + 1e-15
        domain = cli.build_domain(space)
        for phi in purity._random_symbols(np.random.default_rng(11), domain, 2, 0, 4, 0):
            assert list(phi.terms) == [(0, 0)]

    def test_single_symbol_reports_its_coefficient_bound(self, tmp_path):
        # 0.9 z_1 z_2 on the Hardy bidisc: ||M_(z_i)|| = 1, so the bound is 0.9
        out = tmp_path / "r.json"
        config = str(ACCEPTANCE_DIR / "purity-hardy-monomial.json")
        assert cli.main(["purity", "--config", config, "--out", str(out)]) == 0
        contractivity = read_report(out)["payload"]["contractivity"]
        assert contractivity == {"kind": "coefficient_sum", "bound": 0.9}

    def test_drury_arveson_sweep_at_dim_1938_is_fast(self, tmp_path):
        # the padded route took about 20 s per symbol here (padded dim 2,660)
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        space = {"family": "drury_arveson", "n": 3, "degree_cap": 16, "coeff_dim": 2}
        sweep_config(cfg, space, {"count": 18, "forced_unitary": 2})
        start = time.perf_counter()
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 2.0
        symbols = read_report(out)["payload"]["symbols"]
        assert [e["verdict"] for e in symbols] == ["pure"] * 18 + ["not_pure"] * 2
        assert {e["contractivity"]["kind"] for e in symbols} == {"realization"}


def _refuse_large_factorizations(monkeypatch):
    """Fail the test on an SVD or a QR of a matrix with more than 64 rows."""
    for name in ("svd", "qr"):
        real = getattr(np.linalg, name)

        def small_only(a, *args, _real=real, _name=name, **kwargs):
            assert np.shape(a)[-2] <= 64, f"{_name} of a matrix with {np.shape(a)[-2]} rows"
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, small_only)


class TestScale:
    """A config symbol is certified by its coefficient bound, so a large
    space takes no large SVD."""

    def test_purity_at_dim_3276(self, tmp_path, monkeypatch):
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        config = purity_config("da3-d25", constant_scalar_symbol(3, 0.3))
        config["symbol"]["terms"].append({"alpha": [1, 0, 0], "matrix": [[[0.5, 0.0]]]})
        config["space"] = {"family": "drury_arveson", "n": 3, "degree_cap": 25}
        write_json(cfg, config)
        _refuse_large_factorizations(monkeypatch)
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        payload = read_report(out)["payload"]
        assert payload["verdict"] == "pure"
        assert payload["contractivity"] == {"kind": "coefficient_sum", "bound": 0.8}

    def test_decay_at_dim_455(self, tmp_path, monkeypatch):
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        config = json.loads((ACCEPTANCE_DIR / "decay-averaging-symbol.json").read_text(encoding="utf-8"))
        config["space"] = {"family": "drury_arveson", "n": 3, "degree_cap": 12}
        config["symbol"]["n"] = 3
        for term in config["symbol"]["terms"]:
            term["alpha"] += [0, 0]
        write_json(cfg, config)
        _refuse_large_factorizations(monkeypatch)
        assert cli.main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_report(out)["payload"]["nonincreasing"] is True

    def test_decay_at_dim_3276_forms_no_matrix(self, tmp_path, monkeypatch):
        # a dense compression here is 164 MiB, and its adjoint as much again
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        config = json.loads((ACCEPTANCE_DIR / "decay-averaging-symbol.json").read_text(encoding="utf-8"))
        config["space"] = {"family": "drury_arveson", "n": 3, "degree_cap": 25}
        config["symbol"]["n"] = 3
        for term in config["symbol"]["terms"]:
            term["alpha"] += [0, 0]
        write_json(cfg, config)
        monkeypatch.setattr(operators_module, "_weighted_shift", pytest.fail)
        tracemalloc.start()
        try:
            assert cli.main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        curve = read_report(out)["payload"]["curve"]
        assert len(curve) == 13
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_witness_at_dim_3276_forms_no_matrix(self, tmp_path, monkeypatch):
        # theta = z_1 spans a mask of coordinates: no frame SVD, leak norm or
        # dense Cauchy-dual power, each 3,276 x 3,276 here
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        config = json.loads((ACCEPTANCE_DIR / "witness-axis-orbit.json").read_text(encoding="utf-8"))
        config["space"] = {"family": "hardy", "n": 3, "degree_cap": 25}
        config["symbol"] = monomial_scalar_symbol(3, (1, 0, 0), 1.0)
        config["expected"]["m_tilde"] = [1, 0, 0]
        write_json(cfg, config)
        monkeypatch.setattr(operators_module, "_weighted_shift", pytest.fail)
        _refuse_large_factorizations(monkeypatch)
        tracemalloc.start()
        try:
            assert cli.main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        payload = read_report(out)["payload"]
        assert payload["budget"] == 25 and payload["residuals"] == [0.0, 0.0, 0.0]


class TestReportWriter:
    def test_shorter_text_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "r.json"
        cli._write_text(path, "x" * 4096)
        cli._write_text(path, "Φ(0)\n")
        assert path.read_bytes() == "Φ(0)\n".encode("utf-8")
        cli._write_text(path, "")
        assert path.read_bytes() == b""

    def test_report_over_a_longer_file_is_the_report(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("{" + " " * 10_000 + "}\n")
        assert cli.main(["cnp", "--config", str(ACCEPTANCE_DIR / "cnp-bergman.json"), "--out", str(out)]) == 0
        rep = read_report(out)
        assert out.read_bytes() == (json.dumps(rep, sort_keys=True, indent=2) + "\n").encode()

    def test_missing_nested_parents_are_made(self, tmp_path):
        path = tmp_path / "a" / "b" / "c" / "r.json"
        cli._write_text(path, "text\n")
        assert path.read_bytes() == b"text\n"

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            cli._write_text(tmp_path / "new.json", "{}\n")
            with open(tmp_path / "opened.json", "w", encoding="utf-8") as fh:
                fh.write("{}\n")
        finally:
            os.umask(old)
        mode = (tmp_path / "new.json").stat().st_mode & 0o777
        assert mode == 0o666 & ~0o027 == (tmp_path / "opened.json").stat().st_mode & 0o777

    def test_every_file_is_opened_without_o_trunc(self, tmp_path, monkeypatch):
        # a revert to open(path, "w") never calls os.open, and O_TRUNC is the
        # truncate-on-open this writer avoids
        opened = []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((Path(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        out = tmp_path / "suite"
        for _ in range(2):
            assert cli.main(["suite", "--config", str(MANIFEST), "--out", str(out), "--seed", "0"]) == 0
        single = tmp_path / "single.json"
        assert cli.main(["cnp", "--config", str(ACCEPTANCE_DIR / "cnp-bergman.json"), "--out", str(single)]) == 0
        written = {path for path, flags in opened if flags & os.O_WRONLY}
        assert written == set(out.iterdir()) | {single}
        assert len(written) == 14
        for path, flags in opened:
            if path in written:
                assert flags & os.O_CREAT and not flags & os.O_TRUNC, path

    def test_report_text_is_json_dumps_on_random_payloads(self):
        rng = random.Random(0)
        for _ in range(500):
            payload = _random_payload(rng, 0)
            assert cli._report_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_report_text_takes_numpy_floats_and_refuses_other_numpy_scalars(self):
        payload = {"x": np.float64(0.1), "y": [np.float64("nan"), np.float64(-0.0)]}
        assert cli._report_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        for bad in (np.int64(1), np.bool_(True), {1, 2}, [{"k": {0.5}}]):
            with pytest.raises(TypeError):
                json.dumps(bad)
            with pytest.raises(TypeError):
                cli._report_text(bad)


_ODD_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-7)
_ODD_INTS = (0, -1, 2**70, -(2**63), True, False)
_ODD_STRINGS = ("", "é", "Φ(0)", "\x00\x1f\x7f", '"quoted"', "back\\slash", "\ud800", "tab\t\r\n", "\U0001f600", "/")


def _random_text(rng):
    return "".join(
        rng.choice(_ODD_STRINGS) if rng.random() < 0.3 else chr(rng.randrange(0x20, 0x3000))
        for _ in range(rng.randrange(4))
    )


def _random_payload(rng, depth):
    """A nested payload of dicts, lists and tuples (empty ones too) over
    non-finite and extreme floats, big ints, bools beside ints, None, and
    strings with quotes, control and non-ASCII characters."""
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(_ODD_FLOATS) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)
    if kind == 1:
        return rng.choice(_ODD_INTS) if rng.random() < 0.5 else rng.randrange(-(10**6), 10**6)
    if kind == 2:
        return _random_text(rng)
    if kind == 3:
        return None
    if kind == 4:
        return rng.random() < 0.5
    items = [_random_payload(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {_random_text(rng): item for item in items}


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

    def test_summary_keeps_crlf_row_ends(self, tmp_path):
        manifest = self._seed_suite(tmp_path)
        out_dir = tmp_path / "out"
        assert cli.main(["suite", "--config", str(manifest), "--out", str(out_dir)]) == 0
        assert (out_dir / "suite_summary.csv").read_bytes() == (
            b"scenario_id,task,exit_code,expected_exit,ok\r\n"
            b"a-pure,purity,0,0,True\r\n"
            b"b-cnp,cnp,0,0,True\r\n"
            b"c-refused,purity,2,2,True\r\n"
        )

    def test_suite_missing_manifest_is_two(self, tmp_path):
        assert cli.main(["suite", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


def acceptance_config(stem):
    return json.loads((ACCEPTANCE_DIR / f"{stem}.json").read_text(encoding="utf-8"))


def json_path(path):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


class TestDuplicateKeys:
    @pytest.mark.parametrize(
        "literal, repeated, key",
        [
            ('"seed": 0', '"seed": 0, "seed": 3', "seed"),
            ('"tol": 0.5', '"tol": 0.5, "tol": 1e-09', "tol"),
            ('"degree_cap": 4', '"degree_cap": 4, "degree_cap": 5', "degree_cap"),
        ],
        ids=("top-level", "tolerances", "space"),
    )
    def test_duplicate_config_key_is_two(self, tmp_path, literal, repeated, key):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        config = purity_config("dup", constant_scalar_symbol(2, 0.5))
        config["tolerances"] = {"tol": 0.5}
        text = json.dumps(config)
        assert text.count(literal) == 1
        cfg.write_text(text.replace(literal, repeated), encoding="utf-8")
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"] == {"type": "InvalidInputError", "message": f"duplicate key {key!r} in JSON input"}
        assert rep["seed"] is None and rep["payload"] == {}
        REPORT_VALIDATOR.validate(rep)

    def test_duplicate_manifest_key_is_two(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        text = json.dumps({"schema_version": "1", "scenarios": [{"path": "a.json", "expected_exit": 0}]})
        manifest.write_text(text.replace('"expected_exit": 0', '"expected_exit": 0, "expected_exit": 2'))
        out = tmp_path / "out"
        assert cli.main(["suite", "--config", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: duplicate key 'expected_exit' in JSON input\n"
        assert not out.exists()


def _subcommand_parser():
    """The grammar of one subparser per command that the flat parser
    replaced: every argv it takes must parse to the same namespace."""
    parser = argparse.ArgumentParser(prog="gradedshift")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in cli.TASKS + ("suite",):
        p = sub.add_parser(command)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", action="append", metavar="NAME=VALUE")
    return parser


class TestGrammar:
    @pytest.mark.parametrize(
        "argv",
        [
            ["purity", "--config", "c.json"],
            ["suite", "--config", "m.json", "--out", "o", "--seed", "3", "--tol", "tol=1e-3", "--tol", "purity_tol=1"],
            ["cnp", "--config=c.json", "--seed=0", "--out=r.json"],
            ["witness", "--conf", "c.json", "--se", "-1"],
            ["decay", "--tol", "monotone_tol=1", "--config", "c.json", "--out", ""],
        ],
    )
    def test_valid_argv_parses_as_the_subcommand_grammar(self, argv):
        assert vars(cli._parser().parse_args(argv)) == vars(_subcommand_parser().parse_args(argv))

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert "{" + ",".join(cli.TASKS + ("suite",)) + "}" in usage
        assert all(flag in usage for flag in ("--config", "--out", "--seed", "--tol"))

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nope", "--config", "c.json"],
            ["purity"],
            ["purity", "--config"],
            ["purity", "--config", "c.json", "--seed", "x"],
            ["purity", "--config", "c.json", "extra"],
            ["purity", "--config", "c.json", "--bogus"],
        ],
        ids=("empty", "unknown-command", "missing-config", "config-without-value", "seed-x", "extra", "unknown-flag"),
    )
    def test_bad_argv_is_two(self, capsys, argv):
        for parse in (cli.main, _subcommand_parser().parse_args):
            with pytest.raises(SystemExit) as exit_info:
                parse(argv)
            assert exit_info.value.code == 2
        assert "error: " in capsys.readouterr().err


class TestSpaceFields:
    """A ``space`` gives exactly the field its family reads (``alpha``,
    ``coeffs``, ``m`` or ``a_coeffs``), and no family's field is ignored."""

    @pytest.mark.parametrize(
        "space, domain",
        [
            ({"family": "hardy"}, spaces.PolydiscDomain((kernels.hardy(),) * 2)),
            ({"family": "bergman"}, spaces.PolydiscDomain((kernels.bergman(),) * 2)),
            ({"family": "dirichlet"}, spaces.PolydiscDomain((kernels.dirichlet(),) * 2)),
            (
                {"family": "weighted_bergman", "alpha": 0.5},
                spaces.PolydiscDomain((kernels.weighted_bergman(0.5),) * 2),
            ),
            (
                {"family": "custom", "coeffs": [1, 0.5, 0.25]},
                spaces.PolydiscDomain((kernels.KernelSpec1D("custom", custom_coeffs=(1.0, 0.5, 0.25)),) * 2),
            ),
            ({"family": "drury_arveson"}, spaces.BallDomain(kernels.drury_arveson(2))),
            ({"family": "hm", "m": 3}, spaces.BallDomain(kernels.hm_ball(2, 3))),
            (
                {"family": "custom_ball", "a_coeffs": [1, 2, 3]},
                spaces.BallDomain(kernels.BallKernelSpec(2, "unitarily_invariant_custom", a_coeffs=(1.0, 2.0, 3.0))),
            ),
        ],
    )
    def test_every_family_builds_its_kernels_domain(self, space, domain):
        space = {**space, "n": 2, "degree_cap": 3}
        cli._validate({**acceptance_config("cnp-bergman"), "space": space}, "config.schema.json")
        assert cli.build_domain(space) == domain

    @pytest.mark.parametrize(
        "stem, edit, field, verb",
        [
            ("purity-hardy-monomial", {"alpha": 0.5}, "alpha", "reads no"),
            ("purity-hardy-monomial", {"coeffs": [1.0, 0.5]}, "coeffs", "reads no"),
            ("identity-chen-da", {"m": 4}, "m", "reads no"),
            ("colligation-coordinate-flip", {"alpha": 0.5, "m": 2}, "alpha", "reads no"),
            ("identity-defect-h2b2", {"a_coeffs": [1.0, 2.0]}, "a_coeffs", "reads no"),
            ("identity-defect-h2b2", {"m": None}, "m", "needs"),
            ("purity-hardy-monomial", {"family": "weighted_bergman"}, "alpha", "needs"),
            ("cnp-bergman", {"family": "custom_ball", "coeffs": [1.0]}, "coeffs", "reads no"),
        ],
    )
    def test_missing_or_foreign_field_is_two(self, tmp_path, stem, edit, field, verb):
        config = acceptance_config(stem)
        space = {**config["space"], **edit}
        config["space"] = {k: v for k, v in space.items() if v is not None}
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        write_json(cfg, config)
        assert cli.main([config["task"], "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "InvalidInputError"
        assert rep["error"]["message"] == f"$.space.{field}: family {config['space']['family']} {verb} {field}"

    @pytest.mark.parametrize(
        "stem, field, literal",
        [
            ("purity-sweep-bergman", "symbol", constant_scalar_symbol(2, 0.5)),
            (
                "bcl-sweep",
                "triple",
                {
                    "e_dim": 2,
                    "u": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                    "p": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                },
            ),
        ],
    )
    def test_literal_beside_a_sweep_is_two(self, tmp_path, stem, field, literal):
        # the sweep would run and the literal would go unread
        config = {**acceptance_config(stem), field: literal}
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        write_json(cfg, config)
        assert cli.main([config["task"], "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "InvalidInputError"
        assert rep["error"]["message"].startswith(f"$.{field}: a {config['task']} sweep draws")


def _with(config, field, value):
    # a dotted field sets one key of its object
    head, _, tail = field.partition(".")
    if tail:
        return {**config, head: {**config.get(head, {}), tail: value}}
    return {**config, field: value}


class TestTaskFields:
    @pytest.mark.parametrize(
        "stem, field, value",
        [
            ("decay-averaging-symbol", "sweep", {"count": 3}),
            ("identity-chen-da", "sweep", {"count": 3}),
            ("cnp-bergman", "sweep", {"count": 3}),
            ("colligation-coordinate-flip", "sweep", {"count": 3}),
            ("witness-axis-orbit", "sweep", {"count": 3}),
            ("bcl-sweep", "sweep.symbol_degree", 2),
            ("bcl-sweep", "sweep.forced_unitary", 1),
            ("cnp-bergman", "space.coeff_dim", 3),
            ("cnp-bergman", "m_max", 7),
            ("decay-averaging-symbol", "identity_kind", "both"),
            ("purity-sweep-bergman", "m_max", 7),
            ("identity-chen-da", "symbol", constant_scalar_symbol(2, 0.5)),
            ("bcl-sweep", "symbol", constant_scalar_symbol(2, 0.5)),
            ("purity-hardy-monomial", "colligation", acceptance_config("colligation-coordinate-flip")["colligation"]),
            ("witness-axis-orbit", "triple", {"e_dim": 1, "u": [[[1.0, 0.0]]], "p": [[[1.0, 0.0]]]}),
        ],
    )
    def test_field_the_task_never_reads_is_two(self, tmp_path, stem, field, value):
        # each config runs and passes without the field
        config = _with(acceptance_config(stem), field, value)
        cfg, out = tmp_path / "s.json", tmp_path / "r.json"
        write_json(cfg, config)
        cli._validate(config, "config.schema.json")
        assert cli.main([config["task"], "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "InvalidInputError"
        assert rep["error"]["message"] == f"$.{field}: task {config['task']} reads no {field}"

    def test_the_table_names_every_optional_field(self):
        schema = json.loads((Path(cli.__file__).parent / "schemas" / "config.schema.json").read_text())
        required = set(schema["required"]) | {"tolerances", "expected"}
        optional = {f for f in schema["properties"] if f not in required}
        optional |= {f"sweep.{k}" for k in schema["properties"]["sweep"]["properties"] if k != "count"}
        assert set(cli._OPTIONAL_FIELDS) == optional | {"space.coeff_dim"}


class TestStrictIntegers:
    """An integral float such as ``2.0`` is not a JSON integer: exit 2, not a traceback."""

    @pytest.mark.parametrize(
        "stem, path",
        [
            ("purity-hardy-monomial", ("space", "n")),
            ("bcl-sweep", ("space", "n")),
            ("purity-sweep-bergman", ("seed",)),
            ("purity-sweep-bergman", ("sweep", "count")),
            ("bcl-sweep", ("sweep", "count")),
            ("decay-averaging-symbol", ("m_max",)),
            ("cnp-bergman", ("space", "degree_cap")),
            ("purity-hardy-monomial", ("symbol", "n")),
            ("purity-hardy-monomial", ("symbol", "coeff_dim")),
            ("purity-hardy-monomial", ("symbol", "terms", 0, "alpha", 0)),
        ],
    )
    def test_integral_float_is_two(self, tmp_path, stem, path):
        config = acceptance_config(stem)
        parent = functools.reduce(operator.getitem, path[:-1], config)
        value = float(parent[path[-1]])
        parent[path[-1]] = value
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, config)
        assert cli.main([config["task"], "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] == "ValidationError"
        assert rep["error"]["message"] == f"{json_path(path)}: {value!r} is not of type 'integer'"
        jsonschema.validate(rep, cli._load_schema("report.schema.json"))


class TestTolerances:
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tol_override_is_two(self, tmp_path, capsys, value):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, purity_config("tol-override", monomial_scalar_symbol(2, (1, 1), 0.9)))
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out), "--tol", f"tol={value}"]) == 2
        assert "error: --tol tol must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "0", "-1"])
    def test_bad_config_tolerance_is_two(self, tmp_path, literal):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        config = purity_config("tol-config", monomial_scalar_symbol(2, (1, 1), 0.9))
        config["tolerances"] = {"tol": "TOL"}
        cfg.write_text(json.dumps(config).replace('"TOL"', literal), encoding="utf-8")
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        assert rep["error"]["type"] in ("InvalidInputError", "ValidationError")
        jsonschema.validate(rep, cli._load_schema("report.schema.json"))

    def test_positive_config_tolerance_is_used(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        config = purity_config("tol-config", constant_scalar_symbol(2, 0.9))
        config["tolerances"] = {"tol": 0.5}
        write_json(cfg, config)
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_report(out)["payload"]["verdict"] == "not_pure"

    def test_unknown_config_tolerance_is_two(self, tmp_path):
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        config = acceptance_config("purity-hardy-monomial")
        config["tolerances"] = {"tol_typo": 0.5}
        write_json(cfg, config)
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        rep = read_report(out)
        message = "$.tolerances.tol_typo: unknown tolerance (documented: tol)"
        assert rep["error"] == {"type": "InvalidInputError", "message": message}
        REPORT_VALIDATOR.validate(rep)

    @pytest.mark.parametrize(
        "command, config, name",
        [
            ("purity", ACCEPTANCE_DIR / "purity-hardy-monomial.json", "purity_tol"),
            ("bcl", ACCEPTANCE_DIR / "bcl-sweep.json", "transfer_tol"),
            ("suite", MANIFEST, "tol_typo"),
        ],
    )
    def test_unknown_tol_override_is_two(self, tmp_path, capsys, command, config, name):
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config), "--out", str(out), "--tol", f"{name}=0.5"]) == 2
        assert f"error: --tol {name}: unknown tolerance (documented: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [("purity", ACCEPTANCE_DIR / "purity-hardy-monomial.json"), ("suite", MANIFEST)],
        ids=("purity", "suite"),
    )
    def test_repeated_tol_override_is_two(self, tmp_path, capsys, command, config):
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out), "--tol", "tol=1e-3", "--tol", "tol=1e-9"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: --tol tol given twice\n"
        assert not out.exists()

    def test_suite_tol_override_of_another_task_is_used_where_documented(self, tmp_path):
        # purity_tol is a bcl and colligation tolerance, and no purity one
        out = tmp_path / "out"
        assert cli.main(["suite", "--config", str(MANIFEST), "--out", str(out), "--tol", "purity_tol=0.5"]) == 0
        assert read_report(out / "purity-hardy-monomial.report.json")["payload"]["verdict"] == "pure"
        assert read_report(out / "colligation-coordinate-flip.report.json")["payload"]["verdict"] == "pure"
        bcl = read_report(out / "bcl-sweep.report.json")["payload"]["triples"]
        assert all(t["verdict_p"] == ("pure" if t["rho_p"] < 0.5 else "not_pure") for t in bcl)


def _colligation_with(**fields):
    config = acceptance_config("colligation-coordinate-flip")
    config["colligation"].update(fields)
    return config


# Schema-invalid configs; each is refused with the error jsonschema.validate picks.
INVALID_CONFIGS = [
    {"schema_version": "1", "task": "purity"},
    {**purity_config("neg-seed", constant_scalar_symbol(2, 0.5)), "seed": -1},
    {**purity_config("extra", constant_scalar_symbol(2, 0.5)), "extra": 1},
    {**purity_config("bad-task", constant_scalar_symbol(2, 0.5)), "task": "nope"},
    {**purity_config("no-space", constant_scalar_symbol(2, 0.5)), "space": None},
    {**purity_config("bad-id", constant_scalar_symbol(2, 0.5)), "scenario_id": "a b"},
    {
        **purity_config("bad-family", constant_scalar_symbol(2, 0.5)),
        "space": {"family": "nope", "n": 2, "degree_cap": 4},
    },
    {
        **purity_config("string-n", constant_scalar_symbol(2, 0.5)),
        "space": {"family": "hardy", "n": "2", "degree_cap": 4},
    },
    {
        **purity_config("bool-cap", constant_scalar_symbol(2, 0.5)),
        "space": {"family": "hardy", "n": 2, "degree_cap": True},
    },
    {**purity_config("neg-alpha", monomial_scalar_symbol(2, (-1, 0), 0.5))},
    {**purity_config("neg-tol", constant_scalar_symbol(2, 0.5)), "tolerances": {"tol": -1}},
    _colligation_with(h_dims=[]),
    _colligation_with(a=[[[0.0, 0.0, 1.0]]]),
    _colligation_with(a=[[[0.0, 0.0, 1.0]]], b=[[[1.0]]]),
]


# Schema-invalid manifests; the same refusal from both checkers, as for configs.
_ENTRY = {"path": "a.json", "expected_exit": 0}
INVALID_MANIFESTS = [
    [],
    {"schema_version": "1"},
    {"schema_version": 1, "scenarios": []},
    {"schema_version": "1", "scenarios": {}},
    {"schema_version": "1", "scenarios": [], "extra": 1, "another": None},
    {"schema_version": "1", "scenarios": [{"path": "a.json"}]},
    {"schema_version": "1", "scenarios": [{**_ENTRY, "expected_exit": 3}]},
    {"schema_version": "1", "scenarios": [{**_ENTRY, "expected_exit": True}]},
    {"schema_version": "1", "scenarios": [{**_ENTRY, "expected_pass": 1}]},
    {"schema_version": "1", "scenarios": [_ENTRY, {**_ENTRY, "path": 3, "x": 1}, None]},
    {"scenarios": [{"expected_exit": "0"}], "schema_version": "2"},
]


def _jsonschema_validator(name):
    """jsonschema's validator for a package schema, reading JSON ``integer``
    as the CLI does: ``2.0`` and ``True`` are not integers."""
    schema = cli._load_schema(name)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return extend(cls, type_checker=cls.TYPE_CHECKER.redefine("integer", lambda _, v: cli._json_int(v)))(schema)


JSONSCHEMA = {name: _jsonschema_validator(name) for name in ("config.schema.json", "manifest.schema.json")}


def assert_same_refusal(instance, name):
    """Assert that the CLI's checker and jsonschema's ``best_match`` refuse
    ``instance`` with the same ``(json_path, message)``, or both accept it;
    returns that pair, or None."""
    error = best_match(JSONSCHEMA[name].iter_errors(instance))
    expected = None if error is None else (error.json_path, error.message)
    try:
        cli._validate(instance, name)
    except errors.ValidationError as exc:
        assert (exc.json_path, exc.message) == expected
    else:
        assert expected is None
    return expected


_ANY_VALUES = [None, True, False, -1, -0.5, 0, 2.0, 3, "x", "a b", [], [True, 0], {}, {"z": 1}, [[1, 0]]]


def _mutate_anywhere(rng, instance):
    """Drop, replace or add one value at a random place in ``instance``."""
    paths = list(_field_paths(instance))
    if not paths:
        return
    *head, last = rng.choice(paths)
    parent = functools.reduce(operator.getitem, head, instance)
    kind = rng.choice(["drop", "replace", "replace", "add"])
    if kind == "drop":
        del parent[last]
    elif kind == "replace":
        parent[last] = copy.deepcopy(rng.choice(_ANY_VALUES))
    else:
        target = parent[last] if isinstance(parent[last], (dict, list)) else parent
        value = copy.deepcopy(rng.choice(_ANY_VALUES))
        if isinstance(target, dict):
            target[rng.choice(["extra", "aa", "zz", "tol"])] = value
        else:
            target.append(value)


class TestDecoders:
    def test_complex_pairs(self):
        assert cli.decode_complex([0.5, -2.0]) == 0.5 - 2.0j
        assert cli.decode_complex((3, 0)) == 3.0

    def test_matrix_is_row_major(self):
        got = cli.decode_matrix([[[1, 0], [0, 1]], [[2, 0], [0, -1]], [[0, 0], [4, 0]]], "$.m")
        assert got.dtype == complex
        assert got.tolist() == [[1, 1j], [2, -1j], [0, 4]]

    def test_ragged_matrix_names_its_field(self):
        with pytest.raises(errors.InvalidInputError, match=r"\$\.colligation\.b: .*\[2, 1\]"):
            cli.decode_colligation(
                {
                    "a": [[[0, 0]]],
                    "b": [[[1, 0], [0, 0]], [[0, 0]]],
                    "c": [[[1, 0]]],
                    "d": [[[0, 0]]],
                    "h_dims": [1],
                    "e_dim": 1,
                }
            )

    def test_symbol_terms_keyed_by_alpha(self):
        sym = cli.decode_symbol(
            {
                "n": 2,
                "coeff_dim": 1,
                "terms": [
                    {"alpha": [0, 0], "matrix": [[[0.25, 0]]]},
                    {"alpha": [1, 2], "matrix": [[[0, -0.5]]]},
                ],
            }
        )
        assert (sym.n, sym.coeff_dim) == (2, 1)
        assert set(sym.terms) == {(0, 0), (1, 2)}
        assert sym.terms[(1, 2)][0, 0] == -0.5j
        assert sym.contractivity_record is None

    def test_symbol_with_a_repeated_alpha_names_the_earlier_term(self):
        terms = [{"alpha": alpha, "matrix": [[[0.25, 0]]]} for alpha in ([0, 0], [1, 2], [2, 0], [1, 2])]
        with pytest.raises(errors.InvalidInputError) as exc:
            cli.decode_symbol({"n": 2, "coeff_dim": 1, "terms": terms})
        assert str(exc.value) == "$.symbol.terms[3].alpha: multi-index [1, 2] is already $.symbol.terms[1].alpha"

    def test_triple_axis_defaults_to_zero(self):
        obj = {"e_dim": 1, "u": [[[0, 1]]], "p": [[[1, 0]]]}
        triple = cli.decode_triple(obj)
        assert triple.axis == 0
        assert triple.u[0, 0] == 1j
        assert cli.decode_triple({**obj, "axis": 2}).axis == 2

    def test_colligation_realizes_its_transfer_function(self):
        # [[0, 1], [1, 0]] on C + C realizes Phi(z) = z
        c = cli.decode_colligation(
            {
                "a": [[[0, 0]]],
                "b": [[[1, 0]]],
                "c": [[[1, 0]]],
                "d": [[[0, 0]]],
                "h_dims": [1],
                "e_dim": 1,
            }
        )
        assert c.h_dims == (1,)
        for z in (0.3, -0.5j, 0.2 + 0.6j):
            assert dilation.transfer_eval(c, (z,))[0, 0] == pytest.approx(z, abs=1e-15)


class TestSchemaValidation:
    @pytest.mark.parametrize(
        "path",
        sorted(resources.files("gradedshift").joinpath("schemas").iterdir(), key=str),
        ids=lambda p: p.name,
    )
    def test_package_schemas_pass_their_metaschema(self, path):
        schema = json.loads(path.read_text())
        validator_for(schema).check_schema(schema)

    def test_schema_loaded_and_checked_once(self, tmp_path, monkeypatch):
        loads, checks = [], []
        load, check = cli._load_schema, cli._check_keywords

        def counting_load(name):
            loads.append(name)
            return load(name)

        def counting_check(name, schema):
            checks.append(name)
            return check(name, schema)

        monkeypatch.setattr(cli, "_load_schema", counting_load)
        monkeypatch.setattr(cli, "_check_keywords", counting_check)
        write_json(tmp_path / "s.json", purity_config("once", constant_scalar_symbol(2, 0.5)))
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {"schema_version": "1", "scenarios": [{"path": "s.json", "expected_exit": 0}]})
        cli._validator.cache_clear()
        try:
            for k in range(5):
                assert cli.main(["suite", "--config", str(manifest), "--out", str(tmp_path / str(k))]) == 0
        finally:
            cli._validator.cache_clear()
        assert loads == checks == ["manifest.schema.json", "config.schema.json"]

    @pytest.mark.parametrize(
        "schema, named",
        [
            ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, "oneOf"),
            ({"type": "object", "properties": {"a": {"patternProperties": {}}}}, "patternProperties"),
            ({"items": [{"type": "string"}]}, "a list of items"),
            ({"type": "decimal"}, "type 'decimal'"),
            ({"type": ["string", "null"]}, "type ['string', 'null']"),
            ({"$ref": "other.json#/definitions/a"}, "$ref 'other.json#/definitions/a'"),
            ({"$ref": "#/definitions/missing", "definitions": {}}, "$ref '#/definitions/missing'"),
            ({"$ref": "a", "definitions": {"a": {}}}, "$ref 'a'"),
            ({"enum": [[1, 0]]}, "[1, 0] in const or enum"),
        ],
    )
    def test_keyword_outside_the_subset_is_refused(self, monkeypatch, schema, named):
        monkeypatch.setattr(cli, "_load_schema", lambda name: schema)
        cli._validator.cache_clear()
        try:
            with pytest.raises(NotImplementedError, match="^x.schema.json: outside the schema checker's subset: ") as exc:
                cli._validator("x.schema.json")
        finally:
            cli._validator.cache_clear()
        assert named in str(exc.value)

    def test_report_schema_still_loads(self):
        # the report schema is checked with jsonschema in the tests, never by the runtime checker
        schema = cli._load_schema("report.schema.json")
        assert schema["$id"] == "gradedshift/report/4"
        with pytest.raises(NotImplementedError, match="^report.schema.json: outside the schema checker's subset: "):
            cli._check_keywords("report.schema.json", schema)

    @pytest.mark.parametrize("instance", INVALID_CONFIGS)
    def test_refusal_is_what_jsonschema_picks(self, tmp_path, instance):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(instance, cli._load_schema("config.schema.json"))
        with pytest.raises(errors.ValidationError) as actual:
            cli._validate(instance, "config.schema.json")
        picked = (expected.value.json_path, expected.value.message)
        assert (actual.value.json_path, actual.value.message) == picked
        assert str(actual.value) == "%s: %s" % picked
        cfg = tmp_path / "s.json"
        out = tmp_path / "r.json"
        write_json(cfg, instance)
        assert cli.main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        assert read_report(out)["error"] == {"type": "ValidationError", "message": "%s: %s" % picked}

    @pytest.mark.parametrize("instance", INVALID_MANIFESTS)
    def test_manifest_refusal_is_what_jsonschema_picks(self, tmp_path, capsys, instance):
        picked = assert_same_refusal(instance, "manifest.schema.json")
        manifest = tmp_path / "manifest.json"
        write_json(manifest, instance)
        assert cli.main(["suite", "--config", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: %s: %s\n" % picked
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["config.schema.json", "manifest.schema.json"])
    def test_mutated_corpus_refusals_are_what_jsonschema_picks(self, name):
        # 1-3 random drops, retypes, nulls, negatives, bools, nested values or extra keys each
        rng = random.Random(16)
        bases = [MANIFEST] if name == "manifest.schema.json" else ACCEPTANCE_CONFIGS
        refused = 0
        for _ in range(400):
            instance = json.loads(rng.choice(bases).read_text(encoding="utf-8"))
            for _ in range(rng.randint(1, 3)):
                _mutate_anywhere(rng, instance)
            refused += assert_same_refusal(instance, name) is not None
        assert refused > 300

    def test_manifest_refusal_names_the_field(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {"schema_version": "1", "scenarios": [{"path": 3, "expected_exit": 0}]})
        assert cli.main(["suite", "--config", str(manifest), "--out", str(tmp_path)]) == 2
        assert "error: $.scenarios[0].path: 3 is not of type 'string'" in capsys.readouterr().err


def _field_paths(obj, prefix=()):
    """Paths to every dict value and to the first item of every list."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj[:1])
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _beyond_budget(space):
    """The least degree cap whose truncation has more than MAX_DIM coordinates."""
    n, c = space["n"], space.get("coeff_dim", 1)
    d = 0
    while c * math.comb(d + n, n) <= spaces.MAX_DIM:
        d += 1
    return d


MUTATIONS = {
    "integral_float": lambda v: float(int(v)) if isinstance(v, (int, float)) and not isinstance(v, bool) else 2.0,
    "negative": lambda v: -1,
    "string": lambda v: "x",
    "null": lambda v: None,
    "bool": lambda v: True,
}


def _matrix_paths(obj, prefix=()):
    """Paths to every matrix literal: a nonempty list of rows of [re, im] pairs."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        if obj and all(isinstance(row, list) and row and isinstance(row[0], list) for row in obj):
            yield prefix
            return
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _matrix_paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """An acceptance config with one key dropped, one value replaced, its
    degree cap moved just beyond the ``MAX_DIM`` budget, or one matrix
    literal given a row longer than the others."""
    config = json.loads(draw(st.sampled_from(ACCEPTANCE_CONFIGS)).read_text(encoding="utf-8"))
    task = config["task"]
    matrices = list(_matrix_paths(config))
    kind = draw(st.sampled_from(["drop", "beyond_budget", *(["ragged"] if matrices else []), *MUTATIONS]))
    if kind == "beyond_budget":
        config["space"]["degree_cap"] = _beyond_budget(config["space"])
        return task, config
    if kind == "ragged":
        rows = functools.reduce(operator.getitem, draw(st.sampled_from(matrices)), config)
        rows.append([[0.0, 0.0]] * (len(rows[0]) + 1))
        return task, config
    paths = [p for p in _field_paths(config) if kind != "drop" or isinstance(p[-1], str)]
    *head, last = draw(st.sampled_from(paths))
    parent = functools.reduce(operator.getitem, head, config)
    if kind == "drop":
        del parent[last]
    else:
        parent[last] = MUTATIONS[kind](parent[last])
    return task, config


REPORT_VALIDATOR = jsonschema.Draft7Validator(cli._load_schema("report.schema.json"))


def _manifest_reports(tmp_path, seed):
    out = tmp_path / f"seed-{seed}"
    assert cli.main(["suite", "--config", str(MANIFEST), "--out", str(out), "--seed", str(seed)]) == 0
    return [read_report(path) for path in sorted(out.glob("*.report.json"))]


class TestReportSchema:
    @pytest.mark.parametrize("seed", (0, 5))
    def test_manifest_reports_validate(self, tmp_path, seed):
        reports = _manifest_reports(tmp_path, seed)
        assert len(reports) == 11
        for rep in reports:
            assert rep["schema_version"] == cli.SCHEMA_VERSION == "4"
            REPORT_VALIDATOR.validate(rep)

    @pytest.mark.parametrize("seed", (0, 5))
    def test_report_without_a_payload_field_fails(self, tmp_path, seed):
        checked = 0
        for rep in _manifest_reports(tmp_path, seed):
            for *head, last in _field_paths(rep["payload"]):
                if isinstance(last, str):
                    broken = copy.deepcopy(rep)
                    del functools.reduce(operator.getitem, head, broken["payload"])[last]
                    assert not REPORT_VALIDATOR.is_valid(broken), (rep["scenario_id"], *head, last)
                    checked += 1
        assert checked > 50

    def test_error_report_payload_stays_empty(self, tmp_path):
        (refusal,) = [r for r in _manifest_reports(tmp_path, 0) if "error" in r]
        assert refusal["payload"] == {}
        assert not REPORT_VALIDATOR.is_valid({**refusal, "payload": {"kind": "chen"}})

    def test_extra_payload_field_fails(self, tmp_path):
        for rep in _manifest_reports(tmp_path, 0):
            if "error" not in rep:
                assert not REPORT_VALIDATOR.is_valid({**rep, "payload": {**rep["payload"], "consistent": True}})


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(case=mutated_configs())
    def test_mutated_config_ends_in_a_report(self, tmp_path_factory, case):
        task, config = case
        assert_same_refusal(config, "config.schema.json")
        tmp = tmp_path_factory.mktemp("fuzz")
        cfg = tmp / "s.json"
        out = tmp / "r.json"
        write_json(cfg, config)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([task, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2)
        if out.exists():
            REPORT_VALIDATOR.validate(read_report(out))
        else:
            assert code == 2 and "does not match" in err.getvalue()


def test_python_dash_m_runs_a_scenario(tmp_path):
    out = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "gradedshift", "cnp", "--config", str(ACCEPTANCE_DIR / "cnp-bergman.json"), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert read_report(out)["payload"]["is_cnp_to_L"] is False


IMPORT_FOOTPRINT = """
import json, sys
from pathlib import Path
import gradedshift, gradedshift.cli

HEAVY = ("scipy", "jsonschema", "referencing", "rpds", "attrs", "attr")

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in HEAVY or m.startswith("numpy.f2py"))

def run(cfg):
    task = json.loads(cfg.read_text(encoding="utf-8"))["task"]
    return gradedshift.cli.main([task, "--config", str(cfg), "--out", str(out / (cfg.stem + ".report.json"))])

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
steps = [["import", None, heavy()]]
for name in ("purity-hardy-monomial", "identity-defect-h2b2", "witness-axis-orbit"):
    steps.append([name, run(configs / (name + ".json")), heavy()])
refused = out / "refused.json"
refused.write_text(json.dumps({"schema_version": "1", "task": "purity", "seed": 2.0}), encoding="utf-8")
steps.append(["refused", run(refused), heavy()])
print(json.dumps(steps))
"""


def test_no_scipy_module_loads(tmp_path):
    # nor jsonschema and what it brings; no timing threshold: which modules
    # a fresh interpreter holds is exact
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT, str(ACCEPTANCE_DIR), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    assert steps == [
        ["import", None, []],
        ["purity-hardy-monomial", 0, []],
        ["identity-defect-h2b2", 0, []],
        ["witness-axis-orbit", 0, []],
        ["refused", 2, []],
    ]
    assert json.loads((tmp_path / "refused.report.json").read_text(encoding="utf-8"))["error"] == {
        "type": "ValidationError",
        "message": "$: 'scenario_id' is a required property",
    }


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == ["numpy>=1.24"]
    assert any(dep.startswith("jsonschema") for dep in project["project"]["optional-dependencies"]["test"])
