"""The three workloads: seeded op lists over gradedshift's public API.

One op is one certificate.  ``run`` is the timed call into the library;
``check`` looks at its outcome (a result or the exception it raised) and
is not timed.  Every pass of a workload runs the same op list on the same
inputs, so traced call counts repeat exactly from pass to pass and from
run to run.  The seed decides the inputs and the order of the ops; the mix
of size classes is fixed (see README.md for the weights and why).  Each
op list holds its mix several times over, so that a pass has at least 100
ops and the p90 has at least ten ops beyond it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

import gradedshift as gs
from gradedshift import cli

PURITY_TOL = 1e-8
SYMBOL_DEGREE = 2

# (space, coeff_dim, forced unitary constant, ops per copy of the mix), in
# rising per-op cost.  One op in six is forced.  The median falls inside the
# 11 Bergman-bidisc coeff_dim=2 ops (33%-64% of the mix) and the p90 inside
# the 9 Hardy-tridisc coeff_dim=1 ops (69%-94%).  The costly n=3,
# coeff_dim=2 ops are few, so that a pass is short and each op runs in
# many passes.
PURITY_MIX = (
    ("bergman-bidisc", 1, True, 1),
    ("da-B2", 1, True, 1),
    ("hardy-tridisc", 1, True, 1),
    ("H3-B3", 1, True, 1),
    ("da-B2", 1, False, 2),
    ("bergman-bidisc", 1, False, 2),
    ("bergman-bidisc", 2, True, 1),
    ("da-B2", 2, True, 1),
    ("da-B2", 2, False, 2),
    ("bergman-bidisc", 2, False, 11),
    ("H3-B3", 1, False, 2),
    ("hardy-tridisc", 1, False, 9),
    ("H3-B3", 2, False, 1),
    ("hardy-tridisc", 2, False, 1),
)
PURITY_COPIES = 3  # 108 ops per pass

IDENTITY_TOL = 1e-10
BALL_N, BALL_D, BALL_C = 3, 6, 2  # dim 2 * C(9, 3) = 168

# (certificate, ops per copy of the mix), in rising per-op cost.  The median
# falls inside the defect H_2 ops (40%-65%), the p90 inside the defect H_3
# ops (65%-95%).  Chen ops cost several defect ops each and set the peak
# memory; one per copy keeps a pass short, so each op runs in many passes.
BALL_MIX = (
    ("chen-refusal-H2", 4),
    ("defect-H1", 4),
    ("defect-H2", 5),
    ("defect-H3", 6),
    ("chen-cnp", 1),
)
BALL_COPIES = 5  # 100 ops per pass

MANIFEST = Path("configs") / "acceptance_manifest.json"

# Runs of each scenario per copy of the mix: two, except for the three slow
# ones, so that the median falls among the 5-7 ms scenarios (0%-70% of the
# mix) and the p90 inside the purity-sweep-bergman runs (83%-100%).
MANIFEST_WEIGHTS = {"colligation-coordinate-flip": 1, "bcl-sweep": 2, "purity-sweep-bergman": 4}
DEFAULT_MANIFEST_WEIGHT = 2
MANIFEST_COPIES = 5  # 115 ops per pass


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _shuffled(ops: List[Op], seed: int) -> List[Op]:
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def _purity_op(kind: str, domain: Any, d_max: int, coeff_dim: int, forced: bool, key: tuple) -> Op:
    def run() -> Any:
        rng = np.random.default_rng(key)
        phi = gs.random_contractive_symbol(
            rng, domain, coeff_dim, SYMBOL_DEGREE, d_max, unitary_constant=forced
        )
        return phi, gs.multiplier_purity_verdict(phi, domain, d_max, PURITY_TOL)

    def check(out: Any) -> bool:
        if isinstance(out, Exception):
            return False
        phi, rep = out
        rho0 = float(np.max(np.abs(np.linalg.eigvals(phi.phi0))))
        return (
            rep.verdict != "inconsistent"
            and (rep.verdict == "pure") == (rho0 < 1.0 - PURITY_TOL)
            and (rep.verdict == "not_pure" or not forced)
        )

    return Op(kind, run, check)


def purity_sweep(seed: int, root: Path, out_dir: Path) -> List[Op]:
    spaces = {
        "bergman-bidisc": (gs.PolydiscDomain((gs.bergman(),) * 2), 8),
        "da-B2": (gs.BallDomain(gs.drury_arveson(2)), 8),
        "hardy-tridisc": (gs.PolydiscDomain((gs.hardy(),) * 3), 6),
        "H3-B3": (gs.BallDomain(gs.hm_ball(3, 3)), 6),
    }
    ops = []
    for space, coeff_dim, forced, count in PURITY_MIX:
        domain, d_max = spaces[space]
        kind = f"{space}/c{coeff_dim}" + ("/forced" if forced else "")
        for _ in range(count * PURITY_COPIES):
            key = (seed, len(ops))
            ops.append(_purity_op(kind, domain, d_max, coeff_dim, forced, key))
    return _shuffled(ops, seed)


def _residual_ok(out: Any) -> bool:
    return not isinstance(out, Exception) and out.residual_norm <= IDENTITY_TOL


def _chen_ok(out: Any) -> bool:
    if not _residual_ok(out):
        return False
    sums = out.partial_sums
    return out.monotone and all(b <= a + 1e-12 for a, b in zip(sums, sums[1:]))


def _identity_op(kind: str, spec: Any, certificate: str, check: Callable) -> Op:
    # the certificate is looked up by name at call time, so that the traced
    # run's wrapper on the package binding sees the call
    def run() -> Any:
        return getattr(gs, certificate)(gs.ball_basis(spec, BALL_D, BALL_C), IDENTITY_TOL)

    return Op(kind, run, check)


def ball_identities(seed: int, root: Path, out_dir: Path) -> List[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for kind, count in BALL_MIX:
        count *= BALL_COPIES
        for k in range(count):
            if kind == "chen-refusal-H2":
                op = _identity_op(
                    kind,
                    gs.hm_ball(BALL_N, 2),
                    "chen_identity_residual",
                    lambda out: isinstance(out, gs.NotCnpError),
                )
            elif kind == "chen-cnp":
                # a_j = (j+1)^-s is log-convex, so cnp by Kaluza's lemma; one
                # exponent per stratum of [0, 1] keeps the spread of s per pass
                s = (k + rng.uniform()) / count
                coeffs = tuple((j + 1.0) ** -s for j in range(BALL_D + 1))
                spec = gs.BallKernelSpec(BALL_N, "unitarily_invariant_custom", a_coeffs=coeffs)
                op = _identity_op(kind, spec, "chen_identity_residual", _chen_ok)
            else:
                m = int(kind[-1])
                op = _identity_op(
                    kind, gs.hm_ball(BALL_N, m), "defect_identity_residual", _residual_ok
                )
            ops.append(op)
    return _shuffled(ops, seed)


def cli_manifest(seed: int, root: Path, out_dir: Path) -> List[Op]:
    manifest_path = root / MANIFEST
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    sink = io.StringIO()
    references: Dict[str, dict] = {}
    ops = []
    for entry in manifest["scenarios"]:
        config = manifest_path.parent / entry["path"]
        with open(config, "r", encoding="utf-8") as fh:
            task = json.load(fh)["task"]
        name = config.stem
        report_path = out_dir / f"{name}.report.json"
        argv = [task, "--config", str(config), "--out", str(report_path), "--seed", str(seed)]

        def run(argv: List[str] = argv) -> int:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)

        def check(code: Any, entry: dict = entry, name: str = name, path: Path = report_path) -> bool:
            sink.seek(0)
            sink.truncate()
            if code != entry["expected_exit"]:
                return False
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("timing")
            if report["pass"] != entry.get("expected_pass", report["pass"]):
                return False
            return report == references.setdefault(name, report)

        weight = MANIFEST_WEIGHTS.get(name, DEFAULT_MANIFEST_WEIGHT) * MANIFEST_COPIES
        ops.extend(Op(name, run, check) for _ in range(weight))
    return _shuffled(ops, seed)


WORKLOADS = {
    "purity-sweep": purity_sweep,
    "ball-identities": ball_identities,
    "cli-manifest": cli_manifest,
}
