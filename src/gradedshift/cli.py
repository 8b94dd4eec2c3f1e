"""Scenario-driven verification harness.

``gradedshift <task> --config scenario.json`` runs one scenario and writes a
JSON report; ``gradedshift suite --config manifest.json`` runs a manifest of
scenarios with expected exit codes and writes per-scenario reports plus an
aggregate JSON and a CSV summary.

Exit codes: 0 all properties pass, 1 a certified property was violated,
2 invalid input (including typed refusals).  Reports are deterministic for a
fixed config, seed, and version; the top-level ``timing`` key is the only
field excluded from golden comparisons.  Complex numbers serialize as
``[re, im]`` pairs, matrices as row-major nested arrays.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import jsonschema
import numpy as np

from . import __version__
from .ball_identities import chen_identity_residual, defect_identity_residual
from .dilation import (
    BCLTriple,
    Colligation,
    bcl_dilation_certify,
    random_bcl_triple,
    schur_agler_purity,
    transfer_eval,
)
from .errors import CertificationError, GradedShiftError, InvalidInputError
from .kernels import (
    BallKernelSpec,
    KernelSpec1D,
    ball_series,
    cnp_certificate,
    series_1d,
)
from .operators import multiplier_matrix, opnorm, orbit_frame, shift_tuple, wandering_witness
from .purity import (
    adjoint_compression,
    basis_for,
    decay_curve,
    multiplier_purity_verdict,
    random_contractive_symbol,
)
from .spaces import BallDomain, Domain, MultiplierSymbol, PolydiscDomain, TruncatedBasis

__all__ = ["ScenarioConfig", "RunReport", "run_scenario", "run_suite", "main"]

SCHEMA_VERSION = "1"
OUT_DIR_ENV = "GRADEDSHIFT_OUT_DIR"

DEFAULT_TOLERANCES: Dict[str, Dict[str, float]] = {
    "purity": {"tol": 1e-8},
    "identity": {"tol": 1e-10},
    "cnp": {"tol": 1e-12},
    "bcl": {"tol": 1e-10, "purity_tol": 1e-8},
    "colligation": {"transfer_tol": 1e-10, "purity_tol": 1e-8},
    "decay": {"contraction_tol": 1e-10, "monotone_tol": 1e-12},
    "witness": {"tol": 1e-8},
}

TASKS = tuple(DEFAULT_TOLERANCES)


def _load_schema(name: str) -> Dict[str, Any]:
    text = resources.files("gradedshift").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise InvalidInputError(f"non-finite number {token} in JSON input")
    return value


def _load_json(path: str) -> Any:
    """json.load that refuses NaN, Infinity and overflowing literals like 1e999."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_finite_float, parse_float=_finite_float)


def encode_complex(x: complex) -> List[float]:
    return [float(np.real(x)), float(np.imag(x))]


def encode_matrix(a: np.ndarray) -> List[List[List[float]]]:
    a = np.asarray(a, dtype=complex)
    return [[encode_complex(x) for x in row] for row in a]


def decode_complex(pair: Sequence[float]) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def decode_matrix(rows: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    return np.array([[decode_complex(x) for x in row] for row in rows], dtype=complex)


def decode_symbol(obj: Dict[str, Any]) -> MultiplierSymbol:
    terms = {tuple(t["alpha"]): decode_matrix(t["matrix"]) for t in obj["terms"]}
    return MultiplierSymbol(obj["n"], obj["coeff_dim"], terms)


def decode_triple(obj: Dict[str, Any]) -> BCLTriple:
    return BCLTriple(
        e_dim=obj["e_dim"],
        u=decode_matrix(obj["u"]),
        p=decode_matrix(obj["p"]),
        axis=obj.get("axis", 0),
    )


def decode_colligation(obj: Dict[str, Any]) -> Colligation:
    return Colligation(
        a=decode_matrix(obj["a"]),
        b=decode_matrix(obj["b"]),
        c=decode_matrix(obj["c"]),
        d=decode_matrix(obj["d"]),
        h_dims=tuple(obj["h_dims"]),
        e_dim=obj["e_dim"],
    )


def build_domain(space: Dict[str, Any]) -> Domain:
    family = space["family"]
    n = space["n"]
    if family in ("hardy", "bergman", "dirichlet", "weighted_bergman", "custom"):
        kwargs: Dict[str, Any] = {}
        if family == "weighted_bergman":
            if "alpha" not in space:
                raise InvalidInputError("weighted_bergman space needs alpha")
            kwargs["alpha"] = space["alpha"]
        if family == "custom":
            if "coeffs" not in space:
                raise InvalidInputError("custom space needs coeffs")
            kwargs["custom_coeffs"] = tuple(space["coeffs"])
        factor = KernelSpec1D(family, **kwargs)
        return PolydiscDomain((factor,) * n)
    if family == "drury_arveson":
        return BallDomain(BallKernelSpec(n=n, family="hm", m=1))
    if family == "hm":
        if "m" not in space:
            raise InvalidInputError("hm space needs m")
        return BallDomain(BallKernelSpec(n=n, family="hm", m=space["m"]))
    if family == "custom_ball":
        if "a_coeffs" not in space:
            raise InvalidInputError("custom_ball space needs a_coeffs")
        return BallDomain(
            BallKernelSpec(
                n=n,
                family="unitarily_invariant_custom",
                a_coeffs=tuple(space["a_coeffs"]),
            )
        )
    raise InvalidInputError(f"unknown space family {family!r}")


@dataclass
class ScenarioConfig:
    """One verification scenario: a task, a space, data, tolerances, a seed."""

    scenario_id: str
    task: str
    space: Dict[str, Any]
    seed: int
    symbol: Optional[Dict[str, Any]] = None
    triple: Optional[Dict[str, Any]] = None
    colligation: Optional[Dict[str, Any]] = None
    tolerances: Dict[str, float] = field(default_factory=dict)
    sweep: Optional[Dict[str, Any]] = None
    expected: Optional[Dict[str, Any]] = None
    identity_kind: Optional[str] = None
    m_max: int = 25

    @staticmethod
    def from_file(path: str) -> "ScenarioConfig":
        raw = _load_json(path)
        jsonschema.validate(raw, _load_schema("config.schema.json"))
        return ScenarioConfig(
            scenario_id=raw["scenario_id"],
            task=raw["task"],
            space=raw["space"],
            seed=raw["seed"],
            symbol=raw.get("symbol"),
            triple=raw.get("triple"),
            colligation=raw.get("colligation"),
            tolerances=dict(raw.get("tolerances", {})),
            sweep=raw.get("sweep"),
            expected=raw.get("expected"),
            identity_kind=raw.get("identity_kind"),
            m_max=raw.get("m_max", 25),
        )

    def tol(self, name: str) -> float:
        if name in self.tolerances:
            return float(self.tolerances[name])
        defaults = DEFAULT_TOLERANCES.get(self.task, {})
        if name not in defaults:
            raise InvalidInputError(f"no documented default for tolerance {name!r}")
        return defaults[name]


@dataclass
class RunReport:
    """The serialized outcome of one scenario."""

    scenario_id: str
    task: str
    passed: bool
    seed: Optional[int]
    payload: Dict[str, Any]
    timing: float
    expected: Optional[Dict[str, Any]] = None
    expected_ok: Optional[bool] = None
    error: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "scenario_id": self.scenario_id,
            "task": self.task,
            "pass": self.passed,
            "seed": self.seed,
            "version": __version__,
            "timing": self.timing,
            "payload": self.payload,
        }
        if self.expected is not None:
            out["expected"] = self.expected
            out["expected_ok"] = bool(self.expected_ok)
        if self.error is not None:
            out["error"] = self.error
        return out


def _default_vector(basis: TruncatedBasis) -> np.ndarray:
    h = np.zeros(basis.dim, dtype=complex)
    h[: basis.coeff_dim] = 1.0 / math.sqrt(basis.coeff_dim)
    return h


def _require_symbol(config: ScenarioConfig) -> MultiplierSymbol:
    if config.symbol is None:
        raise InvalidInputError(f"task {config.task} needs a symbol")
    phi = decode_symbol(config.symbol)
    coeff_dim = config.space.get("coeff_dim", phi.coeff_dim)
    if coeff_dim != phi.coeff_dim:
        raise InvalidInputError(
            f"space coeff_dim {coeff_dim} != symbol coeff_dim {phi.coeff_dim}"
        )
    return phi


def _run_purity(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    domain = build_domain(config.space)
    d_max = config.space["degree_cap"]
    coeff_dim = config.space.get("coeff_dim", 1)
    tol = config.tol("tol")
    if config.sweep is not None:
        rng = np.random.default_rng(config.seed)
        count = config.sweep["count"]
        degree = config.sweep.get("symbol_degree", 2)
        forced = config.sweep.get("forced_unitary", 0)
        entries = []
        inconsistent = 0
        for k in range(count + forced):
            unitary = k >= count
            phi = random_contractive_symbol(
                rng, domain, coeff_dim, degree, d_max, unitary_constant=unitary
            )
            rep = multiplier_purity_verdict(phi, domain, d_max, tol)
            if rep.verdict == "inconsistent":
                inconsistent += 1
            entries.append(
                {
                    "index": k,
                    "forced_unitary": unitary,
                    "verdict": rep.verdict,
                    "phi0_rho": rep.phi0_rho,
                    "padded_norm": rep.padded_norm,
                    "near_boundary": rep.near_boundary,
                }
            )
        payload = {
            "mode": "sweep",
            "count": count + forced,
            "inconsistent_count": inconsistent,
            "symbols": entries,
        }
        return payload, inconsistent == 0
    phi = _require_symbol(config)
    rep = multiplier_purity_verdict(phi, domain, d_max, tol)
    payload = {
        "mode": "single",
        "verdict": rep.verdict,
        "phi0_rho": rep.phi0_rho,
        "per_degree_rho": [rep.per_degree_rho[d] for d in range(d_max + 1)],
        "padded_norm": rep.padded_norm,
        "near_boundary": rep.near_boundary,
    }
    return payload, rep.verdict != "inconsistent"


def _run_identity(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    domain = build_domain(config.space)
    if not isinstance(domain, BallDomain):
        raise InvalidInputError("identity task needs a ball space")
    basis = basis_for(domain, config.space["degree_cap"], config.space.get("coeff_dim", 1))
    tol = config.tol("tol")
    kind = config.identity_kind or ("defect" if domain.spec.family == "hm" else "chen")
    payload: Dict[str, Any] = {"kind": kind}
    if kind in ("defect", "both"):
        rep = defect_identity_residual(basis, tol)
        payload["defect"] = {
            "residual_norm": rep.residual_norm,
            "certified_block": rep.certified_block,
            "term_count": rep.term_count,
        }
    if kind in ("chen", "both"):
        rep = chen_identity_residual(basis, tol)
        payload["chen"] = {
            "residual_norm": rep.residual_norm,
            "certified_block": rep.certified_block,
            "term_count": rep.term_count,
            "partial_sums": list(rep.partial_sums),
            "monotone": rep.monotone,
        }
    return payload, True


def _run_cnp(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    domain = build_domain(config.space)
    order = config.space["degree_cap"]
    tol = config.tol("tol")
    if isinstance(domain, PolydiscDomain):
        if domain.n != 1:
            raise InvalidInputError("1-D cnp certificates take n = 1")
        series = series_1d(domain.factors[0], order)
    else:
        series = ball_series(domain.spec, order)
    cert = cnp_certificate(series, tol)
    payload = {
        "is_cnp_to_L": cert.is_cnp_to_L,
        "first_violation": cert.first_violation,
        "order": cert.order,
        "b": list(cert.b.coeffs),
    }
    return payload, True


def _run_bcl(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    domain = build_domain(config.space)
    if not isinstance(domain, PolydiscDomain) or any(
        f.family != "hardy" for f in domain.factors
    ):
        raise InvalidInputError("bcl task runs on Hardy polydisc spaces")
    d_max = config.space["degree_cap"]
    n = config.space["n"] + 1  # tuple size: one variable carries both symbols
    tol = config.tol("tol")
    purity_tol = config.tol("purity_tol")

    def certify(t: BCLTriple) -> Dict[str, Any]:
        cert = bcl_dilation_certify(t, n, d_max, tol, purity_tol)
        return {
            "product_coeff_error": cert.product_coeff_error,
            "max_commutator": cert.max_commutator,
            "max_isometry_defect": cert.max_isometry_defect,
            "rho_p": cert.rho_p,
            "rho_q": cert.rho_q,
            "verdict_p": cert.verdict_p,
            "verdict_q": cert.verdict_q,
            "consistent_p": cert.consistent_p,
            "consistent_q": cert.consistent_q,
            "passed": cert.passed,
        }

    if config.sweep is not None:
        rng = np.random.default_rng(config.seed)
        count = config.sweep["count"]
        e_dim = config.space.get("coeff_dim", 2)
        entries = []
        for k in range(count):
            t = random_bcl_triple(rng, e_dim)
            entry = certify(t)
            entry["index"] = k
            entries.append(entry)
        ok = all(e["passed"] for e in entries)
        return {"mode": "sweep", "count": count, "triples": entries}, ok
    if config.triple is None:
        raise InvalidInputError("bcl task needs a triple or a sweep")
    e_dim = config.triple["e_dim"]
    coeff_dim = config.space.get("coeff_dim", e_dim)
    if coeff_dim != e_dim:
        raise InvalidInputError(f"space coeff_dim {coeff_dim} != triple e_dim {e_dim}")
    entry = certify(decode_triple(config.triple))
    entry["mode"] = "single"
    return entry, bool(entry["passed"])


def _run_colligation(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    if config.colligation is None:
        raise InvalidInputError("colligation task needs a colligation literal")
    coll = decode_colligation(config.colligation)
    d_max = config.space["degree_cap"]
    transfer_tol = config.tol("transfer_tol")
    purity_tol = config.tol("purity_tol")
    rng = np.random.default_rng(config.seed)
    max_norm = 0.0
    for _ in range(200):
        z = []
        for _ in range(coll.n_vars):
            r = math.sqrt(rng.uniform()) * 0.999
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z.append(r * complex(math.cos(theta), math.sin(theta)))
        max_norm = max(max_norm, opnorm(transfer_eval(coll, z)))
    jet = schur_agler_purity(coll, d_max, purity_tol)
    payload = {
        "transfer_max_norm": max_norm,
        "jet_degree": jet.jet_degree,
        "rho_a": jet.rho_a,
        "verdict": jet.report.verdict,
        "per_degree_rho": [jet.report.per_degree_rho[d] for d in range(d_max + 1)],
        "consistent": jet.consistent,
    }
    ok = max_norm <= 1.0 + transfer_tol and jet.consistent
    return payload, ok


def _run_decay(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    domain = build_domain(config.space)
    basis = basis_for(domain, config.space["degree_cap"], config.space.get("coeff_dim", 1))
    phi = _require_symbol(config)
    comp = adjoint_compression(phi, basis)
    curve = decay_curve(comp, _default_vector(basis), config.m_max, config.tol("contraction_tol"))
    slack = config.tol("monotone_tol")
    nonincreasing = all(curve[i + 1] <= curve[i] + slack for i in range(len(curve) - 1))
    return {"curve": curve, "nonincreasing": nonincreasing}, nonincreasing


def _run_witness(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    domain = build_domain(config.space)
    basis = basis_for(domain, config.space["degree_cap"], config.space.get("coeff_dim", 1))
    theta = _require_symbol(config)
    if np.any(theta.phi0 != 0):
        raise InvalidInputError(
            "witness subspaces are orbit spans of a vanishing-at-0 symbol "
            "(constant term would meet the wandering subspace)"
        )
    x = shift_tuple(basis)
    pi = multiplier_matrix(basis, theta)
    seeds = pi.data[:, : basis.coeff_dim]
    if not np.any(seeds):
        raise InvalidInputError("degree cap too small for the subspace symbol")
    frame = orbit_frame(x, seeds, basis.degree_cap)
    tol = config.tol("tol")
    result = wandering_witness(x, frame, basis.degree_cap, tol)
    payload = {
        "found": result.found,
        "h_index": result.h_index,
        "m_tilde": list(result.m_tilde) if result.m_tilde is not None else None,
        "residuals": list(result.residuals),
        "certificate_ok": result.certificate_ok,
        "budget": result.budget,
    }
    return payload, result.found and result.certificate_ok


_TASK_RUNNERS = {
    "purity": _run_purity,
    "identity": _run_identity,
    "cnp": _run_cnp,
    "bcl": _run_bcl,
    "colligation": _run_colligation,
    "decay": _run_decay,
    "witness": _run_witness,
}


def _matches(expected: Any, actual: Any) -> bool:
    if isinstance(expected, dict) and isinstance(actual, dict):
        return all(k in actual and _matches(v, actual[k]) for k, v in expected.items())
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected == actual
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return abs(float(expected) - float(actual)) <= 1e-12
    return expected == actual


def run_scenario(config: ScenarioConfig) -> Tuple[RunReport, int]:
    """Execute one scenario; returns the report and the process exit code."""
    start = time.perf_counter()
    if config.sweep is not None and config.seed is None:
        raise InvalidInputError("sweeps require a seed")
    payload, task_pass = _TASK_RUNNERS[config.task](config)
    expected_ok: Optional[bool] = None
    if config.expected is not None:
        expected_ok = _matches(config.expected, payload)
    passed = task_pass and (expected_ok is not False)
    report = RunReport(
        scenario_id=config.scenario_id,
        task=config.task,
        passed=passed,
        seed=config.seed,
        payload=payload,
        timing=time.perf_counter() - start,
        expected=config.expected,
        expected_ok=expected_ok,
    )
    return report, 0 if passed else 1


def _error_message(exc: Exception) -> str:
    if isinstance(exc, jsonschema.ValidationError):
        return exc.message
    return str(exc)


def _error_report(
    scenario_id: str, task: str, seed: Optional[int], exc: Exception, timing: float
) -> RunReport:
    return RunReport(
        scenario_id=scenario_id,
        task=task if task in TASKS else "unknown",
        passed=False,
        seed=seed,
        payload={},
        timing=timing,
        error={"type": type(exc).__name__, "message": _error_message(exc)},
    )


def _write_report(report: RunReport, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(explicit: Optional[str]) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _run_config_file(
    path: str,
    seed_override: Optional[int],
    tol_overrides: Dict[str, float],
    command: Optional[str] = None,
) -> Tuple[RunReport, int]:
    """Load, validate, and run one scenario file; exceptions become codes.

    A config whose task differs from ``command`` is not run: the error
    report carries the config's task and the code is 2.  Numerical
    breakdowns (``LinAlgError``, ``FloatingPointError``, e.g. after a finite
    symbol entry overflows during assembly) give an error report and 1.
    """
    start = time.perf_counter()
    scenario_id = Path(path).stem
    task = "unknown"
    seed = None
    try:
        config = ScenarioConfig.from_file(path)
        scenario_id, task, seed = config.scenario_id, config.task, config.seed
        if command is not None and task != command:
            raise InvalidInputError(f"config task {task!r} does not match subcommand {command!r}")
        if seed_override is not None:
            config.seed = seed_override
            seed = seed_override
        config.tolerances.update(tol_overrides)
        return run_scenario(config)
    except (CertificationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        report = _error_report(scenario_id, task, seed, exc, time.perf_counter() - start)
        return report, 1
    except (InvalidInputError, jsonschema.ValidationError, json.JSONDecodeError, OSError, KeyError) as exc:
        report = _error_report(scenario_id, task, seed, exc, time.perf_counter() - start)
        return report, 2


def run_suite(
    manifest_path: str, out_dir: Path, seed_override: Optional[int], tol_overrides: Dict[str, float]
) -> int:
    """Run every scenario in a manifest; aggregate JSON + CSV summary."""
    manifest = _load_json(manifest_path)
    jsonschema.validate(manifest, _load_schema("manifest.schema.json"))
    base = Path(manifest_path).parent
    rows = []
    for entry in manifest["scenarios"]:
        scenario_path = base / entry["path"]
        report, code = _run_config_file(str(scenario_path), seed_override, tol_overrides)
        _write_report(report, out_dir / f"{report.scenario_id}.report.json")
        ok = code == entry["expected_exit"]
        if "expected_pass" in entry:
            ok = ok and report.passed == entry["expected_pass"]
        rows.append(
            {
                "scenario_id": report.scenario_id,
                "task": report.task,
                "exit_code": code,
                "expected_exit": entry["expected_exit"],
                "ok": ok,
            }
        )
    rows.sort(key=lambda r: r["scenario_id"])
    aggregate = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "suite_pass": all(r["ok"] for r in rows),
        "scenario_count": len(rows),
        "scenarios": rows,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "suite_report.json", "w", encoding="utf-8") as fh:
        json.dump(aggregate, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out_dir / "suite_summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["scenario_id", "task", "exit_code", "expected_exit", "ok"]
        )
        writer.writeheader()
        writer.writerows(rows)
    return 0 if aggregate["suite_pass"] else 1


def _parse_tol_overrides(pairs: Optional[List[str]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise InvalidInputError(f"--tol expects name=value, got {pair!r}")
        out[name] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedshift",
        description="run finite-matrix verification scenarios and suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task in TASKS + ("suite",):
        p = sub.add_parser(task, help=f"run a {task} scenario" if task != "suite" else "run a manifest of scenarios")
        p.add_argument("--config", required=True, help="scenario config JSON (manifest JSON for suite)")
        p.add_argument("--out", help="report file (directory for suite); default from $GRADEDSHIFT_OUT_DIR")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE", help="override a tolerance")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol_overrides = _parse_tol_overrides(args.tol)
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "suite":
        out_dir = _out_dir(args.out)
        try:
            return run_suite(args.config, out_dir, args.seed, tol_overrides)
        except (InvalidInputError, jsonschema.ValidationError, json.JSONDecodeError, OSError) as exc:
            print(f"error: {_error_message(exc)}", file=sys.stderr)
            return 2
    report, code = _run_config_file(args.config, args.seed, tol_overrides, args.command)
    if report.task != "unknown" and report.task != args.command:
        print(
            f"error: config task {report.task!r} does not match subcommand {args.command!r}",
            file=sys.stderr,
        )
        return 2
    if args.out:
        out_path = Path(args.out)
    else:
        out_path = _out_dir(None) / f"{report.scenario_id}.report.json"
    _write_report(report, out_path)
    if report.error is not None:
        print(f"{report.scenario_id}: {report.error['type']}: {report.error['message']}", file=sys.stderr)
    else:
        print(f"{report.scenario_id}: {'pass' if report.passed else 'FAIL'} ({out_path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
