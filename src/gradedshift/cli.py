"""Scenario-driven verification harness.

``gradedshift <task> --config scenario.json`` runs one scenario and writes a
JSON report; ``gradedshift suite --config manifest.json`` runs a manifest of
scenarios with expected exit codes and writes per-scenario reports plus an
aggregate JSON and a CSV summary.

Exit codes: 0 all properties pass, 1 a certified property was violated,
2 invalid input (including typed refusals, and a ``MemoryError`` for a size
numpy cannot allocate, which ends in an error report too).  Reports are
deterministic for a fixed config, seed, and version; the top-level
``timing`` key is the only field excluded from golden comparisons.  Configs
give complex numbers as ``[re, im]`` pairs and matrices as row-major nested
arrays of such pairs; no report serialises a matrix.

Reports, ``suite_report.json`` and ``suite_summary.csv`` are overwritten in
place and then cut to the length of what was written; missing parent
directories are made.  A write is not atomic, and was not before: a crash
mid-write used to leave an empty or partial file, and now leaves the old
file, or the new bytes followed by the old tail, which ``json.load``
refuses.  An output that cannot be written (a single task's report path
that is a directory, or a report path or output directory that is, or
lies under, a regular file) is refused before any scenario runs, from
stat calls alone: one ``error:`` line and exit 2.

Configs and manifests are checked against the shipped
``config.schema.json`` and ``manifest.schema.json`` by a small in-package
checker for the draft-7 keywords those schemas use; it refuses a schema
with any other keyword, and it raises the error, with the message, that
``jsonschema.validate`` would.  ``report.schema.json`` uses more of the
draft and is checked with jsonschema in the tests, so the runtime needs
numpy alone.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import itertools
import json
import math
import os
import re
import stat
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .ball_identities import chen_identity_residual, defect_identity_residual
from .dilation import (
    BCLCertificate,
    BCLTriple,
    Colligation,
    _bcl_certificates,
    _random_bcl_stacks,
    _transfer_values,
    bcl_dilation_certify,
    schur_agler_purity,
)
from .errors import CertificationError, InvalidInputError, ValidationError
from .kernels import (
    BallKernelSpec,
    KernelSpec1D,
    ball_series,
    cnp_certificate,
    hardy,
    series_1d,
)
from .operators import _shift_witness, opnorm
from .purity import (
    _purity_verdicts,
    _random_symbols,
    basis_for,
    decay_curve,
    multiplier_purity_verdict,
)
from .spaces import BallDomain, Domain, MultiplierSymbol, PolydiscDomain, TruncatedBasis

__all__ = ["ScenarioConfig", "RunReport", "run_scenario", "run_suite", "main"]

SCHEMA_VERSION = "4"
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


def _refuse_unknown_tolerances(names: Sequence[str], tasks: Sequence[str], field: str) -> None:
    """Refuse a tolerance name that none of ``tasks`` documents; ``field``
    places the name in the refusal, e.g. ``"$.tolerances.{}"``."""
    documented = sorted({name for task in tasks for name in DEFAULT_TOLERANCES[task]})
    for name in names:
        if name not in documented:
            raise InvalidInputError(
                f"{field.format(name)}: unknown tolerance (documented: {', '.join(documented)})"
            )


def _load_schema(name: str) -> Dict[str, Any]:
    text = resources.files("gradedshift").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def _json_int(instance: Any) -> bool:
    """JSON ``integer``: a Python int that is not a bool (``2``, not ``2.0``)."""
    return isinstance(instance, int) and not isinstance(instance, bool)


def _json_number(instance: Any) -> bool:
    return isinstance(instance, (int, float)) and not isinstance(instance, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": _json_int,
    "number": _json_number,
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
# The draft-7 keywords the checker implements, and the annotations it skips.
_KEYWORDS = frozenset(
    "type required properties additionalProperties const enum pattern minimum "
    "exclusiveMinimum items minItems maxItems $ref $schema $id title definitions".split()
)
_REF_PREFIX = "#/definitions/"


def _check_keywords(name: str, root: Dict[str, Any]) -> None:
    """Refuse a schema the checker would misread: a keyword outside its
    subset, a ``type`` that is not one type name, a ``$ref`` that is not
    one of the schema's own definitions, a list ``items``, or a list or
    object in ``const``/``enum``."""
    stack = [root]
    while stack:
        schema = stack.pop()
        bad = sorted(set(schema) - _KEYWORDS)
        if "type" in schema and not (isinstance(schema["type"], str) and schema["type"] in _TYPES):
            bad.append(f"type {schema['type']!r}")
        ref = schema.get("$ref")
        if ref is not None and not (ref.startswith(_REF_PREFIX) and ref[len(_REF_PREFIX) :] in root.get("definitions", {})):
            bad.append(f"$ref {ref!r}")
        values = [schema["const"]] if "const" in schema else schema.get("enum", [])
        bad += [f"{v!r} in const or enum" for v in values if isinstance(v, (list, dict))]
        bad += ["a list of items"] if isinstance(schema.get("items"), list) else []
        if bad:
            raise NotImplementedError(f"{name}: outside the schema checker's subset: {', '.join(bad)}")
        stack.extend(schema.get("properties", {}).values())
        stack.extend(schema.get("definitions", {}).values())
        stack.extend(schema[k] for k in ("additionalProperties", "items") if isinstance(schema.get(k), dict))


@functools.cache
def _validator(name: str) -> Dict[str, Any]:
    """A package schema, loaded and keyword-checked once per process on first
    use (see :func:`_check_keywords`)."""
    schema = _load_schema(name)
    _check_keywords(name, schema)
    return schema


def _json_equal(a: Any, b: Any) -> bool:
    """JSON equality of an instance and a scalar: ``1 == 1.0``, ``True != 1``."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(schema: Dict[str, Any], instance: Any, path: tuple, root: Dict[str, Any], out: list) -> None:
    """Append ``(path, message)`` to ``out`` for every error of ``instance``
    against ``schema``, with jsonschema 4.26's messages; the errors on one
    path keep keyword order, as ``iter_errors`` yields them."""
    while "$ref" in schema:  # draft 7 ignores a $ref's siblings
        schema = root["definitions"][schema["$ref"].removeprefix(_REF_PREFIX)]
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](instance):
                out.append((path, f"{instance!r} is not of type {value!r}"))
        elif key in ("required", "properties", "additionalProperties"):
            if not isinstance(instance, dict):
                continue
            if key == "required":
                out += [(path, f"{p!r} is a required property") for p in value if p not in instance]
            elif key == "properties":
                for p, sub in value.items():
                    if p in instance:
                        _schema_errors(sub, instance[p], path + (p,), root, out)
            elif isinstance(value, dict):
                for p in instance:
                    if p not in schema.get("properties", ()):
                        _schema_errors(value, instance[p], path + (p,), root, out)
            else:
                extras = sorted(p for p in instance if p not in schema.get("properties", ()))
                if extras and not value:
                    verb = "was" if len(extras) == 1 else "were"
                    out.append((path, f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"))
        elif key == "const":
            if not _json_equal(instance, value):
                out.append((path, f"{value!r} was expected"))
        elif key == "enum":
            if not any(_json_equal(instance, v) for v in value):
                out.append((path, f"{instance!r} is not one of {value!r}"))
        elif key == "pattern":
            if isinstance(instance, str) and not re.search(value, instance):
                out.append((path, f"{instance!r} does not match {value!r}"))
        elif key == "minimum":
            if _json_number(instance) and instance < value:
                out.append((path, f"{instance!r} is less than the minimum of {value!r}"))
        elif key == "exclusiveMinimum":
            if _json_number(instance) and instance <= value:
                out.append((path, f"{instance!r} is less than or equal to the minimum of {value!r}"))
        elif isinstance(instance, list):
            if key == "items":
                for k, item in enumerate(instance):
                    _schema_errors(value, item, path + (k,), root, out)
            elif key == "minItems" and len(instance) < value:
                out.append((path, f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"))
            elif key == "maxItems" and len(instance) > value:
                out.append((path, f"{instance!r} {'is expected to be empty' if value == 0 else 'is too long'}"))


def _validate(instance: Any, name: str) -> None:
    """Raise the :class:`ValidationError` that ``jsonschema.validate`` would
    raise for ``instance`` against the package schema ``name``.

    That is ``best_match``'s pick: the first error of greatest relevance
    ``(-len(path), path, the instance misses the failing schema's type)``.
    In this subset one schema checks each path, so errors on one path share
    the last part of that key, and the first of them wins.
    """
    schema = _validator(name)
    out: list = []
    _schema_errors(schema, instance, (), schema, out)
    if out:
        path, message = max(out, key=lambda e: (-len(e[0]), e[0]))
        raise ValidationError("$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path), message)


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise InvalidInputError(f"non-finite number {token} in JSON input")
    return value


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """The object of ``pairs``; a key given twice is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InvalidInputError(f"duplicate key {key!r} in JSON input")
            seen.add(key)
    return obj


def _load_json(path: str) -> Any:
    """json.load that refuses NaN, Infinity, overflowing literals like 1e999,
    and a key given twice in one object (json.load would keep the last)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_finite_float, parse_float=_finite_float, object_pairs_hook=_unique_keys)


def decode_complex(pair: Sequence[float]) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def decode_matrix(rows: Sequence[Sequence[Sequence[float]]], path: str) -> np.ndarray:
    """The complex matrix of a JSON matrix literal; ``path`` names the field
    in the refusal of rows of unequal length."""
    lengths = [len(row) for row in rows]
    if len(set(lengths)) > 1:
        raise InvalidInputError(f"{path}: matrix rows have unequal lengths {lengths}")
    return np.array([[decode_complex(x) for x in row] for row in rows], dtype=complex)


def decode_symbol(obj: Dict[str, Any]) -> MultiplierSymbol:
    """The symbol of a config; a multi-index given twice is refused, not
    summed or overwritten."""
    terms: Dict[Tuple[int, ...], np.ndarray] = {}
    for k, t in enumerate(obj["terms"]):
        alpha = tuple(t["alpha"])
        if alpha in terms:
            raise InvalidInputError(
                f"$.symbol.terms[{k}].alpha: multi-index {list(alpha)} is already "
                f"$.symbol.terms[{list(terms).index(alpha)}].alpha"
            )
        terms[alpha] = decode_matrix(t["matrix"], f"$.symbol.terms[{k}].matrix")
    return MultiplierSymbol(obj["n"], obj["coeff_dim"], terms)


def decode_triple(obj: Dict[str, Any]) -> BCLTriple:
    return BCLTriple(
        e_dim=obj["e_dim"],
        u=decode_matrix(obj["u"], "$.triple.u"),
        p=decode_matrix(obj["p"], "$.triple.p"),
        axis=obj.get("axis", 0),
    )


def decode_colligation(obj: Dict[str, Any]) -> Colligation:
    return Colligation(
        a=decode_matrix(obj["a"], "$.colligation.a"),
        b=decode_matrix(obj["b"], "$.colligation.b"),
        c=decode_matrix(obj["c"], "$.colligation.c"),
        d=decode_matrix(obj["d"], "$.colligation.d"),
        h_dims=tuple(obj["h_dims"]),
        e_dim=obj["e_dim"],
    )


# The field of a config's ``space`` that each family reads besides family,
# n, degree_cap and coeff_dim; no other family may give it.
_FAMILY_FIELDS = {"weighted_bergman": "alpha", "custom": "coeffs", "hm": "m", "custom_ball": "a_coeffs"}


# The optional fields of a config file that each task reads; ``sweep.count``
# comes with ``sweep``.  A file that gives another is refused.
_TASK_FIELDS = {
    "purity": ("symbol", "sweep", "sweep.symbol_degree", "sweep.forced_unitary", "space.coeff_dim"),
    "identity": ("identity_kind", "space.coeff_dim"),
    "cnp": (),
    "bcl": ("triple", "sweep", "space.coeff_dim"),
    "colligation": ("colligation", "space.coeff_dim"),
    "decay": ("symbol", "m_max", "space.coeff_dim"),
    "witness": ("symbol", "space.coeff_dim"),
}
_OPTIONAL_FIELDS = tuple(dict.fromkeys(f for fields in _TASK_FIELDS.values() for f in fields))


def _refuse_unread_fields(raw: Dict[str, Any]) -> None:
    """Refuse a field of a schema-valid config file that its task never reads."""
    task = raw["task"]
    for name in _OPTIONAL_FIELDS:
        head, _, tail = name.partition(".")
        if head in raw and (not tail or tail in raw[head]) and name not in _TASK_FIELDS[task]:
            raise InvalidInputError(f"$.{name}: task {task} reads no {name}")


def build_domain(space: Dict[str, Any]) -> Domain:
    family, n = space["family"], space["n"]
    for name in _FAMILY_FIELDS.values():
        if (name in space) != (_FAMILY_FIELDS.get(family) == name):
            verb = "reads no" if name in space else "needs"
            raise InvalidInputError(f"$.space.{name}: family {family} {verb} {name}")
    if family in ("drury_arveson", "hm"):
        return BallDomain(BallKernelSpec(n=n, family="hm", m=space.get("m", 1)))
    if family == "custom_ball":
        return BallDomain(BallKernelSpec(n, "unitarily_invariant_custom", a_coeffs=tuple(space["a_coeffs"])))
    factor = KernelSpec1D(family, space.get("alpha", 0.0), tuple(space.get("coeffs", ())) or None)
    return PolydiscDomain((factor,) * n)


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
        _validate(raw, "config.schema.json")
        _refuse_unread_fields(raw)
        # the schema admits exactly the fields above, plus schema_version
        del raw["schema_version"]
        return ScenarioConfig(**raw)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[self.task][name]))


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
        if config.symbol is not None:
            raise InvalidInputError("$.symbol: a purity sweep draws its symbols; give a symbol or a sweep")
        rng = np.random.default_rng(config.seed)
        count = config.sweep["count"]
        degree = config.sweep.get("symbol_degree", 2)
        forced = config.sweep.get("forced_unitary", 0)
        symbols = _random_symbols(rng, domain, coeff_dim, degree, count, forced)
        entries = [
            {
                "index": k,
                "forced_unitary": k >= count,
                "verdict": rep.verdict,
                "phi0_rho": rep.phi0_rho,
                "contractivity": rep.contractivity._asdict(),
                "near_boundary": rep.near_boundary,
            }
            for k, rep in enumerate(_purity_verdicts(symbols, domain, d_max, tol))
        ]
        return {"mode": "sweep", "count": count + forced, "symbols": entries}, True
    phi = _require_symbol(config)
    rep = multiplier_purity_verdict(phi, domain, d_max, tol)
    payload = {
        "mode": "single",
        "verdict": rep.verdict,
        "phi0_rho": rep.phi0_rho,
        "contractivity": rep.contractivity._asdict(),
        "near_boundary": rep.near_boundary,
    }
    return payload, True


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

    def entry(cert: BCLCertificate) -> Dict[str, Any]:
        return {
            "product_coeff_error": cert.product_coeff_error,
            "max_commutator": cert.max_commutator,
            "max_isometry_defect": cert.max_isometry_defect,
            "rho_p": cert.rho_p,
            "rho_q": cert.rho_q,
            "verdict_p": cert.verdict_p,
            "verdict_q": cert.verdict_q,
            "passed": cert.passed,
        }

    if config.sweep is not None:
        if config.triple is not None:
            raise InvalidInputError("$.triple: a bcl sweep draws its triples; give a triple or a sweep")
        rng = np.random.default_rng(config.seed)
        count = config.sweep["count"]
        u, p = _random_bcl_stacks(rng, config.space.get("coeff_dim", 2), count)
        certs = _bcl_certificates(u, p, 0, n, d_max, tol, purity_tol)
        entries = [dict(entry(cert), index=k) for k, cert in enumerate(certs)]
        ok = all(e["passed"] for e in entries)
        return {"mode": "sweep", "count": count, "triples": entries}, ok
    if config.triple is None:
        raise InvalidInputError("bcl task needs a triple or a sweep")
    e_dim = config.triple["e_dim"]
    coeff_dim = config.space.get("coeff_dim", e_dim)
    if coeff_dim != e_dim:
        raise InvalidInputError(f"space coeff_dim {coeff_dim} != triple e_dim {e_dim}")
    single = entry(bcl_dilation_certify(decode_triple(config.triple), n, d_max, tol, purity_tol))
    single["mode"] = "single"
    return single, bool(single["passed"])


def _polydisc_points(rng: np.random.Generator, count: int, n_vars: int) -> np.ndarray:
    """``(count, n_vars)`` points z = r e^(i theta) with r = 0.999 sqrt(u),
    theta = 2 pi v, from one draw of ``(u, v)`` per coordinate in point order."""
    draws = rng.uniform(size=(count, n_vars, 2))
    r = np.sqrt(draws[..., 0]) * 0.999
    theta = 2.0 * math.pi * draws[..., 1]
    return r * (np.cos(theta) + 1j * np.sin(theta))


def _run_colligation(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    if config.colligation is None:
        raise InvalidInputError("colligation task needs a colligation literal")
    coll = decode_colligation(config.colligation)
    domain = build_domain(config.space)
    hardy_n = PolydiscDomain((hardy(),) * coll.n_vars)
    if (domain, config.space.get("coeff_dim", coll.e_dim)) != (hardy_n, coll.e_dim):
        raise InvalidInputError(
            f"colligation task runs on the Hardy polydisc with n = len(h_dims) = {coll.n_vars} "
            f"and coeff_dim = e_dim = {coll.e_dim}"
        )
    d_max = config.space["degree_cap"]
    transfer_tol = config.tol("transfer_tol")
    purity_tol = config.tol("purity_tol")
    points = _polydisc_points(np.random.default_rng(config.seed), 200, coll.n_vars)
    max_norm = opnorm(_transfer_values(coll, points))
    rep = schur_agler_purity(coll, d_max, purity_tol)
    payload = {
        "transfer_max_norm": max_norm,
        "jet_degree": d_max,
        "rho_a": rep.phi0_rho,
        "verdict": rep.verdict,
    }
    ok = max_norm <= 1.0 + transfer_tol
    return payload, ok


def _run_decay(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    domain = build_domain(config.space)
    basis = basis_for(domain, config.space["degree_cap"], config.space.get("coeff_dim", 1))
    phi = _require_symbol(config)
    curve = decay_curve(phi, basis, _default_vector(basis), config.m_max, config.tol("contraction_tol"))
    slack = config.tol("monotone_tol")
    nonincreasing = all(curve[i + 1] <= curve[i] + slack for i in range(len(curve) - 1))
    return {"curve": curve, "nonincreasing": nonincreasing}, nonincreasing


def _run_witness(config: ScenarioConfig) -> Tuple[Dict[str, Any], bool]:
    domain = build_domain(config.space)
    basis = basis_for(domain, config.space["degree_cap"], config.space.get("coeff_dim", 1))
    result = _shift_witness(basis, _require_symbol(config), config.tol("tol"))
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


def _public_name(cls: type) -> str:
    """The name of the nearest public class of an exception type: numpy
    raises ``_ArrayMemoryError``, a private subclass of ``MemoryError``."""
    return next(c.__name__ for c in cls.__mro__ if not c.__name__.startswith("_"))


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
        error={"type": _public_name(type(exc)), "message": str(exc)},
    )


def _encode(obj: Any, indent: str, out: List[str]) -> None:
    """Append the chunks of ``obj`` to ``out``; ``indent`` is the newline and
    spaces before its closing bracket, and its items sit two spaces deeper."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            out.append("NaN")
        elif math.isinf(obj):
            out.append("Infinity" if obj > 0 else "-Infinity")
        else:
            out.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _report_text(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` for an object
    with str keys, in one pass.  Before Python 3.13 any ``indent`` makes
    ``json.dumps`` take its pure-Python generator encoder."""
    out: List[str] = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place, then cut the file to it.

    The file is opened without ``O_TRUNC``, so an existing report is never
    cut to zero bytes first; on ext4 (``auto_da_alloc``) such a truncation
    makes ``close`` start a flush that the next overwrite waits for.  The
    parent directories are made only when the open finds them missing.
    """
    data = text.encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_report(report: RunReport, path: Path) -> None:
    _write_text(path, _report_text(report.to_dict()))


def _refuse_unwritable(path: Path, is_dir: bool) -> None:
    """Refuse, by stat calls alone and before any scenario runs, an output
    path that cannot be written: a report path that is a directory, or a
    directory of reports (or a report's parent) that is a regular file or
    lies under one."""
    for k, p in enumerate(itertools.chain((path,), path.parents)):
        try:
            isdir = stat.S_ISDIR(os.stat(p).st_mode)
        except OSError:
            continue
        if isdir != (is_dir or k > 0):
            what = "reports under" if is_dir else "report"
            reason = os.strerror(errno.EISDIR if isdir else errno.ENOTDIR)
            raise InvalidInputError(f"cannot write {what} {str(path)!r}: {reason}")
        return


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
    A ``MemoryError`` (a schema-valid size whose arrays numpy cannot
    allocate, e.g. a sweep ``count`` of 10**15) gives an error report and 2.
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
        _refuse_unknown_tolerances(list(config.tolerances), [task], "$.tolerances.{}")
        if seed_override is not None:
            config.seed = seed_override
            seed = seed_override
        config.tolerances.update(tol_overrides)
        return run_scenario(config)
    except (CertificationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        report = _error_report(scenario_id, task, seed, exc, time.perf_counter() - start)
        return report, 1
    except (InvalidInputError, json.JSONDecodeError, OSError, KeyError, MemoryError) as exc:
        report = _error_report(scenario_id, task, seed, exc, time.perf_counter() - start)
        return report, 2


def run_suite(
    manifest_path: str, out_dir: Path, seed_override: Optional[int], tol_overrides: Dict[str, float]
) -> int:
    """Run every scenario in a manifest; aggregate JSON + CSV summary."""
    manifest = _load_json(manifest_path)
    _validate(manifest, "manifest.schema.json")
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
    _write_text(out_dir / "suite_report.json", _report_text(aggregate))
    summary = io.StringIO(newline="")
    writer = csv.DictWriter(summary, fieldnames=["scenario_id", "task", "exit_code", "expected_exit", "ok"])
    writer.writeheader()
    writer.writerows(rows)
    _write_text(out_dir / "suite_summary.csv", summary.getvalue())
    return 0 if aggregate["suite_pass"] else 1


def _parse_tol_overrides(pairs: Optional[List[str]], command: str) -> Dict[str, float]:
    """The ``--tol`` overrides by name; a name must be documented for the
    command's task, or, for ``suite``, for some task, and given once."""
    out: Dict[str, float] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise InvalidInputError(f"--tol expects name=value, got {pair!r}")
        _refuse_unknown_tolerances([name], TASKS if command == "suite" else [command], "--tol {}")
        if name in out:
            raise InvalidInputError(f"--tol {name} given twice")
        tol = float(value)
        if not (math.isfinite(tol) and tol > 0):
            raise InvalidInputError(f"--tol {name} must be finite and > 0, got {value!r}")
        out[name] = tol
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedshift",
        description="run finite-matrix verification scenarios and suites",
    )
    parser.add_argument(
        "command", choices=TASKS + ("suite",), help="the task of a scenario, or suite for a manifest of scenarios"
    )
    parser.add_argument("--config", required=True, help="scenario config JSON (manifest JSON for suite)")
    parser.add_argument("--out", help="report file (directory for suite); default from $GRADEDSHIFT_OUT_DIR")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE", help="override a tolerance, once per name")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise InvalidInputError(f"--seed must be >= 0, got {args.seed}")
        tol_overrides = _parse_tol_overrides(args.tol, args.command)
        if args.command == "suite" or not args.out:
            _refuse_unwritable(_out_dir(args.out), is_dir=True)
        else:
            _refuse_unwritable(Path(args.out), is_dir=False)
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "suite":
        out_dir = _out_dir(args.out)
        try:
            return run_suite(args.config, out_dir, args.seed, tol_overrides)
        except (InvalidInputError, json.JSONDecodeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
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
    try:
        _write_report(report, out_path)
    except OSError as exc:
        print(f"error: cannot write report {str(out_path)!r}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if report.error is not None:
        print(f"{report.scenario_id}: {report.error['type']}: {report.error['message']}", file=sys.stderr)
    else:
        print(f"{report.scenario_id}: {'pass' if report.passed else 'FAIL'} ({out_path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
