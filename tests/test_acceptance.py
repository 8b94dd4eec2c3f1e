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
                    # the equivalence itself, spelled out
                    all_small = all(
                        rep.per_degree_rho[d] < 1 - tol for d in range(d_max + 1)
                    )
                    assert all_small == (rep.phi0_rho < 1 - tol)
                    # per_degree_rho copies phi0_rho, so check it against
                    # dense eigvals of each compression of M_Phi^* to V_d
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
        "bcl-sweep.report.json": "f1d2e5a9b85aaccd8972fba038ebd97dbc6c8ffaac9052eb43b09659bd9d2a6e",
        "chen-refusal-h2b2.report.json": "df61b0e5756be81cb41d8d35576ea1ad5fa76b2ab82db204e5ea79050e0bd0d7",
        "cnp-bergman.report.json": "3320f2eaf03a03189bcfe05a7ef13519da4071f23fd953af3f841b33e974bb96",
        "cnp-dirichlet-order40.report.json": "248f2dafe2085161900ac2527b2f1439d5d8ff9bd3a02b0f6f4331e0ce09cf80",
        "colligation-coordinate-flip.report.json": "9341aaa18c85b10ddf86af9d1239e12b1db3921595d10acd91c2111020064946",
        "decay-averaging-symbol.report.json": "ab1c05073641ade06269426d1e217b4d62e083a5a617d857a5a51b380280635b",
        "identity-chen-da.report.json": "964a647d1d990ed7552ca46ca5ce51c8a5634c39c1f6e778fee25aaac10040a2",
        "identity-defect-h2b2.report.json": "673207e418862e555fe71f866d8ade6d62786e6ba86fea61ea3dce0476125590",
        "purity-hardy-monomial.report.json": "5ce7d451b58a9b82fa3e03cfab4c36461ca608ce4e75495c2fa844f3706cbbd7",
        "purity-sweep-bergman.report.json": "b4faebe12021b0686fb4ec7cd97956075d34d787ac32bf29e803f4abe89ce56e",
        "suite_report.json": "e5cfc1b0baae923f971709f45e73925f1713a36f084369678970ea0aedcbe329",
        "witness-axis-orbit.report.json": "5ce78a0cb017a06c6db1a4261d87bca61fe4717ff6cdfad624bb5a7cc95d36d2",
    },
    5: {
        "bcl-sweep.report.json": "e351345477fdbdf47e9c28733d45024a71f1a3303d66123a75056a7ff852a495",
        "chen-refusal-h2b2.report.json": "fd378b91d43fc26a964445826ba9ed4f097f04a111d21342a7ff63e22dd08c7f",
        "cnp-bergman.report.json": "5aec92425edee87b6cb13b2753f26b73ced6878e095c6acb8917be42ae90f06e",
        "cnp-dirichlet-order40.report.json": "273bfac2d95d57fb13121ffb00e003c28cf1cbf5952e783f8060ac6f40624a02",
        "colligation-coordinate-flip.report.json": "7a39c77b4b9843beeaab0e63704bb0731331a91ac171398c90164e805e00f61f",
        "decay-averaging-symbol.report.json": "8a03bb16380228e6ffdfc45a544b15b8757af6da3d738a35e4caef0e8863be28",
        "identity-chen-da.report.json": "1d9792dc93a2d20633340f7eb5a8786c74d31e2edb0f89d47231cf89df50b960",
        "identity-defect-h2b2.report.json": "ecae3cc3548614d78fb1064da6ec207821dba6d473d44f6c98216d36030308b9",
        "purity-hardy-monomial.report.json": "36da3339baf2e1c36c710b2c9a1959c0b665e6432b412ad327a9b4f39a4f7a16",
        "purity-sweep-bergman.report.json": "025c2bc4dda1e8f519829d0d5aebce2ba40cc59d984dca3e437fc85f603853e3",
        "suite_report.json": "e5cfc1b0baae923f971709f45e73925f1713a36f084369678970ea0aedcbe329",
        "witness-axis-orbit.report.json": "5a63eabbab775de4f6715291a7fa3fea944fa321526b6cae0745d40ef6ba0277",
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
