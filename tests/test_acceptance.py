"""Acceptance gate: the eleven certified properties the package ships with.

Each test prints one ``[acceptance] criterion NN <name>: PASS/FAIL`` line
(visible with ``pytest -s tests/test_acceptance.py``) and enforces the
documented tolerance and runtime budget.  Oracles live in tests/oracles.py.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gradedshift import (
    BallDomain,
    BallKernelSpec,
    NotCnpError,
    PolydiscDomain,
    SubspaceFrame,
    ball_basis,
    ball_series,
    basis_for,
    bcl_dilation_certify,
    bergman,
    cauchy_dual,
    chen_identity_residual,
    cli,
    cnp_certificate,
    defect_identity_residual,
    dirichlet,
    drury_arveson,
    hardy,
    hm_ball,
    invariant_restriction_test,
    multiplier_purity_verdict,
    orbit_frame,
    polydisc_basis,
    random_contractive_symbol,
    range_projection,
    scalar_symbol,
    series_1d,
    shift_matrix,
    shift_tuple,
    slice_purity_consistency,
    union_projection,
    wandering_subspace,
    wandering_witness,
)
from gradedshift.dilation import random_bcl_triple

from oracles import (
    brute_force_feasible,
    dense_dual_and_projection,
    dense_per_degree_rho,
    dense_restriction_route,
    frames_match,
    null_space_frame,
    principal_angles,
    sampled_sup_norm,
    sphere_points,
    torus_grid,
    wandering_span_dimension,
    witness_index_oracle,
)

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} {name}: PASS")


def six_spaces():
    return [
        ("hardy-bidisc", PolydiscDomain((hardy(), hardy()))),
        ("bergman-bidisc", PolydiscDomain((bergman(), bergman()))),
        ("dirichlet-bidisc", PolydiscDomain((dirichlet(), dirichlet()))),
        ("da-ball", BallDomain(drury_arveson(2))),
        ("h2-ball", BallDomain(hm_ball(2, 2))),
        ("h3-ball", BallDomain(hm_ball(2, 3))),
    ]


def test_criterion_01_purity_equivalence_sweep():
    with criterion(1, "purity equivalence sweep"):
        start = time.monotonic()
        tol = 1e-8
        d_max = 8
        total = crossed = 0
        for space_idx, (_, domain) in enumerate(six_spaces()):
            for coeff_dim in (1, 2):
                rng = np.random.default_rng(10_000 + space_idx * 10 + coeff_dim)
                for k in range(60):
                    forced = k >= 50
                    phi = random_contractive_symbol(
                        rng, domain, coeff_dim, 2, d_max, unitary_constant=forced
                    )
                    rep = multiplier_purity_verdict(phi, domain, d_max, tol)
                    total += 1
                    assert rep.verdict in ("pure", "not_pure")
                    if forced:
                        assert rep.verdict == "not_pure"
                    # the equivalence: phi0_rho against dense eigvals of
                    # each compression of M_Phi^* to V_d
                    if k in (0, 50):
                        basis = basis_for(domain, d_max, coeff_dim)
                        dense = dense_per_degree_rho(
                            basis.index_table, basis.norm_array, coeff_dim, phi.terms, d_max
                        )
                        assert max(abs(rho - rep.phi0_rho) for rho in dense) <= 1e-12
                        assert all(rho < 1 - tol for rho in dense) == (rep.verdict == "pure")
                        crossed += 1
        assert total == 720
        assert crossed == 24
        assert time.monotonic() - start < 300.0


def test_criterion_01_symbols_are_bounded_on_the_boundary():
    # ||M_Phi|| >= sup ||Phi||, so one sample above 1 proves a symbol is not a
    # contractive multiplier; the padded-truncation generator failed this
    # for 490 of these 720 symbols
    torus = torus_grid(96, 2)
    sphere = sphere_points(np.random.default_rng(0), 20_000, 2)
    checked = 0
    for space_idx, (name, domain) in enumerate(six_spaces()):
        points = torus if isinstance(domain, PolydiscDomain) else sphere
        for coeff_dim in (1, 2):
            rng = np.random.default_rng(10_000 + space_idx * 10 + coeff_dim)
            for k in range(60):
                phi = random_contractive_symbol(
                    rng, domain, coeff_dim, 2, 8, unitary_constant=k >= 50
                )
                assert sampled_sup_norm(phi.terms, points) <= 1.0 + 1e-12, (name, coeff_dim, k)
                checked += 1
    assert checked == 720


def test_criterion_02_defect_identity():
    with criterion(2, "defect identity"):
        start = time.monotonic()
        for m in (1, 2, 3):
            for n in (2, 3):
                for coeff_dim in (1, 2):
                    basis = ball_basis(hm_ball(n, m), 6, coeff_dim=coeff_dim)
                    rep = defect_identity_residual(basis)
                    assert rep.residual_norm <= 1e-10, (m, n, coeff_dim, rep.residual_norm)
        assert time.monotonic() - start < 60.0


def test_criterion_03_chen_identity():
    with criterion(3, "chen identity with typed refusal"):
        custom = BallKernelSpec(
            n=2,
            family="unitarily_invariant_custom",
            a_coeffs=tuple(1.0 / (j + 1) for j in range(10)),
        )
        for spec in (drury_arveson(2), custom):
            basis = ball_basis(spec, 5, coeff_dim=1)
            rep = chen_identity_residual(basis)
            assert rep.residual_norm <= 1e-10
            assert rep.monotone
            for a, b in zip(rep.partial_sums, rep.partial_sums[1:]):
                assert b <= a + 1e-12
        with pytest.raises(NotCnpError):
            chen_identity_residual(ball_basis(hm_ball(2, 2), 5, coeff_dim=1))


def test_criterion_04_cnp_certificates_order_40():
    with criterion(4, "cnp certificates to order 40"):
        passing = [
            series_1d(hardy(), 40),
            ball_series(drury_arveson(2), 40),
            series_1d(dirichlet(), 40),
        ]
        for series in passing:
            cert = cnp_certificate(series)
            assert cert.is_cnp_to_L
            assert all(bj >= -1e-12 for bj in cert.b.coeffs)
        cert = cnp_certificate(series_1d(bergman(), 40))
        assert not cert.is_cnp_to_L
        assert cert.first_violation == 2
        assert cert.b.coeffs[2] == -1.0


def test_criterion_05_bcl_suite():
    with criterion(5, "commuting isometry pairs from unitary-projection data"):
        tol = 1e-8
        for seed in range(100):
            rng = np.random.default_rng(20_000 + seed)
            e_dim = 1 + seed % 6
            t = random_bcl_triple(rng, e_dim)
            cert = bcl_dilation_certify(t, 2, 4, tol=1e-10, purity_tol=tol)
            assert cert.product_coeff_error <= 1e-12
            assert cert.max_commutator <= 1e-10
            assert cert.max_isometry_defect <= 1e-10
            assert (cert.verdict_p == "pure") == (cert.rho_p < 1 - tol)
            assert (cert.verdict_q == "pure") == (cert.rho_q < 1 - tol)


def test_criterion_06_cauchy_dual_structure():
    with criterion(6, "cauchy dual structure"):
        d_cap = 8
        closed_forms = {
            "bergman": lambda m: np.sqrt((m + 2.0) / (m + 1.0)),
            "dirichlet": lambda m: np.sqrt((m + 1.0) / (m + 2.0)),
        }
        for family, spec in (("bergman", bergman()), ("dirichlet", dirichlet())):
            basis = polydisc_basis((spec,), d_cap)
            t = shift_matrix(basis, 0)
            dual = cauchy_dual(t)
            dual_weight = closed_forms[family]
            for m in range(d_cap):
                got = dual.data[basis.coord_index((m + 1,), 0), basis.coord_index((m,), 0)]
                assert abs(got - dual_weight(m)) <= 1e-12
            # the closed form against the dense T (T*T)^(-1)
            dense_dual, _ = dense_dual_and_projection(t.data, t.exact_column_count())
            assert np.max(np.abs(dual.data - dense_dual)) <= 1e-15
            # shared kernel of adjoints
            k1 = null_space_frame(t.data.conj().T)
            k2 = null_space_frame(dual.data.conj().T)
            angles = principal_angles(k1, k2)
            assert k1.dim == k2.dim and (angles.size == 0 or angles.max() <= 1e-10)
            # range projection: idempotent and self-adjoint
            p = range_projection(t).data
            assert np.linalg.norm(p @ p - p, 2) <= 1e-11
            assert np.linalg.norm(p - p.conj().T, 2) <= 1e-11
            # involution on the exactness block
            ddual = cauchy_dual(dual)
            cols = basis.dim_upto(d_cap - 1)
            assert np.linalg.norm(ddual.data[:, :cols] - t.data[:, :cols], 2) <= 1e-10
        # union-projection identity: wandering projector complements the
        # joint shift range on a product tuple
        basis2 = polydisc_basis((bergman(), dirichlet()), 5, coeff_dim=2)
        x = shift_tuple(basis2)
        ranges = [range_projection(t) for t in x]
        pu = union_projection(ranges)
        w = wandering_subspace(x)
        pw = w.columns @ w.columns.conj().T
        assert np.linalg.norm(pu + pw - np.eye(basis2.dim), 2) <= 1e-10


def test_criterion_07_wandering_span_property():
    with criterion(7, "wandering span at truncation"):
        d_cap = 5
        for specs in ((hardy(), hardy()), (bergman(), bergman()), (dirichlet(), dirichlet())):
            basis = polydisc_basis(specs, d_cap, coeff_dim=2)
            x = shift_tuple(basis)
            for tup in (x, [cauchy_dual(t) for t in x]):
                w = wandering_subspace(tup)
                assert wandering_span_dimension(tup, w, d_cap) == basis.dim
            # tensor structure of the wandering subspace
            w2 = wandering_subspace(x)
            w_left = null_space_frame(x[0].data.conj().T)
            w_right = null_space_frame(x[1].data.conj().T)
            inter = w_left.columns @ w_left.columns.conj().T @ w_right.columns
            keep = [
                j
                for j in range(inter.shape[1])
                if np.linalg.norm(inter[:, j] - w_right.columns[:, j]) <= 1e-12
            ]
            tensor = SubspaceFrame.from_columns(w_right.columns[:, keep])
            assert frames_match(w2, tensor)
            assert principal_angles(w2, tensor).max() <= 1e-10


def test_criterion_08_wandering_witness_oracle():
    with criterion(8, "wandering witness vs brute force"):
        d_cap = 5
        for family_idx, specs in enumerate(
            ((hardy(), hardy()), (bergman(), bergman()), (dirichlet(), dirichlet()))
        ):
            basis = polydisc_basis(specs, d_cap)
            x = shift_tuple(basis)
            duals = [cauchy_dual(t).data for t in x]
            w = wandering_subspace(x)
            rng = np.random.default_rng(40_000 + family_idx)
            for trial in range(10):
                seed_vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
                seed_vec[: basis.dim_upto(0)] = 0.0
                frame = orbit_frame(x, seed_vec, d_cap)
                result = wandering_witness(x, frame, d_cap)
                assert result.found
                assert result.certificate_ok
                assert max(result.residuals) <= 1e-8
                feasible = brute_force_feasible(
                    duals, frame.projection(), w.columns[:, result.h_index], d_cap, result.tol
                )
                feasible = [m for m in feasible if sum(m) > 0]
                assert result.m_tilde == witness_index_oracle(feasible)


def test_criterion_09_restriction_ratio(inner_bcl_theta):
    with criterion(9, "restricted compression ratio"):
        theta = inner_bcl_theta(5)
        basis = polydisc_basis((hardy(), hardy()), 10, coeff_dim=2)
        rng = np.random.default_rng(99)
        for trial in range(10):
            coeffs = {
                (0, 0): rng.uniform(0.2, 0.5) * np.exp(2j * np.pi * rng.uniform()),
                (1, 0): rng.uniform(0.05, 0.2),
                (0, 1): rng.uniform(0.05, 0.2),
            }
            phi = scalar_symbol(2, coeffs)
            rep = invariant_restriction_test(phi, theta, basis, 4)
            assert rep.passed
            assert rep.max_ratio_error <= 1e-8
            assert rep.target_ratio == pytest.approx(abs(coeffs[(0, 0)]), abs=1e-12)
            dense, _ = dense_restriction_route(basis, coeffs, theta.terms, 4)
            np.testing.assert_allclose(rep.s_values, dense, rtol=1e-13, atol=0)


def test_criterion_10_slice_consistency():
    with criterion(10, "slice consistency"):
        for n, d_max in ((2, 5), (3, 4)):
            domain = PolydiscDomain((hardy(),) * n)
            rng = np.random.default_rng(31_000 + n)
            for k in range(30):
                phi = random_contractive_symbol(rng, domain, 1, 2, d_max)
                rep = slice_purity_consistency(phi, domain, d_max)
                assert rep.consistent
                assert len(rep.slice_verdicts) == n


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "manifest determinism"):
        manifest = CONFIG_DIR / "acceptance_manifest.json"
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(["suite", "--config", str(manifest), "--out", str(out1)]) == 0
        assert cli.main(["suite", "--config", str(manifest), "--out", str(out2)]) == 0
        agg1 = (out1 / "suite_report.json").read_bytes()
        agg2 = (out2 / "suite_report.json").read_bytes()
        assert agg1 == agg2
        assert (out1 / "suite_summary.csv").read_bytes() == (out2 / "suite_summary.csv").read_bytes()
        reports1 = sorted(p.name for p in out1.glob("*.report.json"))
        reports2 = sorted(p.name for p in out2.glob("*.report.json"))
        assert reports1 == reports2 and reports1
        for name in reports1:
            r1 = json.loads((out1 / name).read_text())
            r2 = json.loads((out2 / name).read_text())
            r1.pop("timing"), r2.pop("timing")
            assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        agg = json.loads(agg1)
        assert agg["suite_pass"] is True


def _without_timing(data):
    return b"\n".join(line for line in data.split(b"\n") if not line.startswith(b'  "timing": '))


def test_rerun_overwrites_every_file_exactly(tmp_path):
    # seed 5 writes longer sweep reports than seed 0, so an overwrite that
    # kept the old length would leave a tail here
    manifest = CONFIG_DIR / "acceptance_manifest.json"
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    for out, seed in ((rerun, 5), (rerun, 0), (fresh, 0)):
        assert cli.main(["suite", "--config", str(manifest), "--out", str(out), "--seed", str(seed)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir()) and len(names) == 13
    for name in names:
        old, new = (rerun / name).read_bytes(), (fresh / name).read_bytes()
        if name.endswith(".report.json"):
            assert old.count(b'\n  "timing": ') == 1
            old, new = _without_timing(old), _without_timing(new)
        assert old == new, name

# SHA-256 of every JSON file ``suite`` writes for the acceptance manifest,
# with ``timing`` removed, as sorted-key JSON.  Criterion 11 compares two runs
# of one tree; these pin the contract across changes to the package.
FROZEN_REPORTS = {
    0: {
        "bcl-sweep.report.json": "17c1de258234a6773e3fe6ba9b4033f65af85a05931a54a5abcc59f17a9b35e9",
        "chen-refusal-h2b2.report.json": "9d80eb888e403d037246d057340006769a2b90aeaeb440f6a05d2f8c92ad78b8",
        "cnp-bergman.report.json": "0a6497ba65b477dddea5c38d0c99af4bfad677142153fcc647957ea3386714b6",
        "cnp-dirichlet-order40.report.json": "bddead83d7f0861c740e9ad12c71198ae06ec803fc74a9736b76e59b7e74657b",
        "colligation-coordinate-flip.report.json": "700dd7413aae9e2352f23e0b3979350ad5b5b8048b849599b7b2af88f74487f9",
        "decay-averaging-symbol.report.json": "55bfd8bdc22ca9dba842afcda9d34db4233397a0e5de5ac1eeffcd04c39ee74a",
        "identity-chen-da.report.json": "1593f83e532304e7e9526491f4d7efdc70e87b46c7a72267a75abaf5246448c1",
        "identity-defect-h2b2.report.json": "a018f7fdd0535ec81c35d0cec3a94e9c77ff908d4c9b6ce95988829fad20c73a",
        "purity-hardy-monomial.report.json": "74038f3b17650078e1e2f97a2f6cd05aabbabc48de5476e51d9b63f9499b7973",
        "purity-sweep-bergman.report.json": "516536bc2d801989e7d35bb350547b92ec4c7b158ccde05dfdd11c4881cd5bf1",
        "suite_report.json": "bf4fcbfee79f79155b7cb2c116ea7236697383014a30e860e694050d085403ee",
        "witness-axis-orbit.report.json": "efe218ecb7a707e890e0fe1b9c3b13277cd124821e2888082ffef6c6ddf7aac3",
    },
    5: {
        "bcl-sweep.report.json": "3aa5b1f94847314a2048730fa5e7af34e03743e1d494084f759b38f9ef1d3b81",
        "chen-refusal-h2b2.report.json": "7424121a3aedbe4edeec1ede2f838c8b94d6dd6b76a6a4f7d986382f749826ad",
        "cnp-bergman.report.json": "21fb95d585b30742d7ade25500c4fb93b2a76f27811a8593914b81f031ca8179",
        "cnp-dirichlet-order40.report.json": "d1846feb96d6d15c1604fad4c893535433f4df8420f672b73f76e0853e866c56",
        "colligation-coordinate-flip.report.json": "506d69ca0c2828d374678c352fb8d6cca5895fe261f6b666e020ce85e0ac3e5e",
        "decay-averaging-symbol.report.json": "aa981557c966dcd4d731730e8e50a001fd2d377cadcbfa6614498df4cd3e883e",
        "identity-chen-da.report.json": "d8f09918f8fb35d4a2bf165654473bbf5e8270627b1eccccc0fe4925565aaf31",
        "identity-defect-h2b2.report.json": "eb9aa5feb120ce03dfefc71a359678e2c5e58b004bedf2798d11a1d59cc89628",
        "purity-hardy-monomial.report.json": "683a67310d045b86f583245d75ef9a1032a1c9971f5b493fabf508349da3c96b",
        "purity-sweep-bergman.report.json": "5fa5a233722e26c1916becf721db3d4366e9e8813f6d2a1474412bf8d60254ea",
        "suite_report.json": "bf4fcbfee79f79155b7cb2c116ea7236697383014a30e860e694050d085403ee",
        "witness-axis-orbit.report.json": "74fd1ef3444eb98751ad5e0bde148239a656f8c27df65220ac0d304b863f86f3",
    },
}


@pytest.mark.parametrize("seed", sorted(FROZEN_REPORTS))
def test_manifest_reports_are_frozen(tmp_path, seed):
    manifest = CONFIG_DIR / "acceptance_manifest.json"
    assert cli.main(["suite", "--config", str(manifest), "--out", str(tmp_path), "--seed", str(seed)]) == 0
    digests = {}
    for path in sorted(tmp_path.glob("*.json")):
        report = json.loads(path.read_text())
        report.pop("timing", None)
        digests[path.name] = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digests == FROZEN_REPORTS[seed]
