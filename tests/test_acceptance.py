"""Acceptance gate: the eleven certified properties the package ships with.

Each test prints one ``[acceptance] criterion NN <name>: PASS/FAIL`` line
(visible with ``pytest -s tests/test_acceptance.py``) and enforces the
documented tolerance and runtime budget.  Oracles live in tests/oracles.py.
"""

import hashlib
import json
import time
import tracemalloc
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
        "bcl-sweep.report.json": "6c110ecffb4a4ea3d75299dcd7e3f4840b33f3cf881d202dd0a7e646ff255674",
        "chen-refusal-h2b2.report.json": "2cbb6cae336663d0d536616dc091d630aa7ea1e58f3e6225e1e6e4992fc5ced1",
        "cnp-bergman.report.json": "0c766fafd1bef0c4407f6d0816ef8cb354e98a1b42b327c776c6939a798aff7c",
        "cnp-dirichlet-order40.report.json": "4672a5e058ca6259c4ec424fd05a8e9c0c270e4f0b6a702193885fdfbae1f034",
        "colligation-coordinate-flip.report.json": "175d8df781c84dc77e0643b244e1dcd0bd49115a8fe76b28df50dba912022151",
        "decay-averaging-symbol.report.json": "8fffb5188d62c1aaaaa6bd79cd2d46a170636cc36bf16e42a56320bcc141b324",
        "identity-chen-da.report.json": "e0bd33d0301990bb12f28d16e47cab7894b78f2aeb82e019843ffac545c8e2d1",
        "identity-defect-h2b2.report.json": "e2b2b1d770c26625d7c5da8f06229b795aa931935750e656ebbc2c1b57557066",
        "purity-hardy-monomial.report.json": "3f88aa85679d8ec53f479475cc4e27ae91b531a831883124e3a4bc9617df9dc2",
        "purity-sweep-bergman.report.json": "95791a7032ded94bc3635760b4b5690a1951bdba52d527d357a6a67876fa8932",
        "suite_report.json": "1ca6df6b5fc51ffc4e78a166d576153d4dd73def273a6e38c2adc1abe51570e6",
        "witness-axis-orbit.report.json": "09882649f97e29ad8c0d8f829013b4c96dd0826791faf3380701678ba5ac6a6c",
    },
    5: {
        "bcl-sweep.report.json": "bd56af4ee6699298c3e0500e153e292f7dd67672b4486b4cb45e6741f69e74cd",
        "chen-refusal-h2b2.report.json": "c73d27456a56641cb8d6192acf1fddf85cbc2536ee20e94ecfd16b5278ac928f",
        "cnp-bergman.report.json": "ac784d33dca34f9945eb0ffb59bf04a46bc0fbceeb2d027b940327e157ed7fc9",
        "cnp-dirichlet-order40.report.json": "eed8fee5d0a4cf8adfb7b253bac60b71cdad0b98e56359ce968a187b03f8f44f",
        "colligation-coordinate-flip.report.json": "63001ddd621e7ccbcbfc13f27d3d4de3fd99c29c6b4b446cc6250e7108265d19",
        "decay-averaging-symbol.report.json": "1912377cf1510d7debb71a26f31929e60a1b6eb7b1c16b156110f0ee51f784be",
        "identity-chen-da.report.json": "288f06fda815aa9498d2f71e168434a52e2bdf12747f450b624ef3852c0bc22c",
        "identity-defect-h2b2.report.json": "12efb4f90bf21bfa2bc5ac37892ceb199cc1796d6c5563bd0ee1207ea7935439",
        "purity-hardy-monomial.report.json": "03008c10d7ba981ef5898b4f7c8c2d3f7ecf7e8c02035f7b3dac13f1dab168e3",
        "purity-sweep-bergman.report.json": "6d6b7ed4b6a34aac6c428d6b11ab301cc99c0a62f4f9f979c0321913f9fbe026",
        "suite_report.json": "1ca6df6b5fc51ffc4e78a166d576153d4dd73def273a6e38c2adc1abe51570e6",
        "witness-axis-orbit.report.json": "7290d678495d6f223f5d9d2f43dc61d12619bbf6f160e7d092847b57f46b9eb6",
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

# The timing-free reports of configs/scale_manifest.json: each task at its
# largest size within MAX_DIM (the README's size table).
SCALE_REPORTS = {
    "scale-bcl-sweep-hardy2-d50.report.json": "2e642d83893e0f9f7dbc0e390785a08d92521691082ccda78ecfb72a853a763a",
    "scale-cnp-dirichlet-order64.report.json": "629b3159075417bd3bbed45499cb216e6e2de79d91afb9ef3d9478e1ad07d415",
    "scale-colligation-cycle-d64.report.json": "93fdbd12467570fcdccf520dbe5df2a712dd27a68ddb528ac3eb5527796383fa",
    "scale-decay-hardy3-d27.report.json": "9eab906ca2007d7ad5e6867d7f4011cd26a834bfc3e83f1dd322f8049f9dac7b",
    "scale-identity-chen-da3-d27.report.json": "e21d60bb6027fe54b87b6fddf1e7adc3aacda6babdc13cb90d7867a5692c396c",
    "scale-identity-defect-h2b3-d27.report.json": "410587311ff39963ff4d1b52359359f51291464a27bf2e55ba66fc213cfc7b0c",
    "scale-purity-da3-d27.report.json": "9006c00f7a6cc6a218edc9ee300e58151e4735cbb63160a648624390d1f98876",
    "scale-purity-sweep-da3-d21.report.json": "fe13a7954c4c4c2efed7bd953da9849a4265c4b25c56832f6b57018f06deebb5",
    "scale-witness-axis-d25.report.json": "4dbb0bdbc288bf82b222e40d22a62e687484cc991418cfded287e1168edbd0c8",
    "scale-witness-two-term-d12.report.json": "5f37d083ed7895f53ba27e3d6351197279a4b210ee1b80572108d784233d1e8c",
    "suite_report.json": "c784cbfd91a9ad9011ae610b4d80b4d56cde9b360f82d103697a33975643a8ae",
}

# The tracemalloc peak of each scale scenario from cold memos, at most (MiB):
# about twice the peak measured when the budget was set, rounded up to a
# power of two, and at least 1; the two-term witness is the dense frame route.
SCALE_PEAK_MIB = {
    "scale-bcl-sweep-hardy2-d50": 4,
    "scale-cnp-dirichlet-order64": 1,
    "scale-colligation-cycle-d64": 1,
    "scale-decay-hardy3-d27": 4,
    "scale-identity-chen-da3-d27": 16,
    "scale-identity-defect-h2b3-d27": 4,
    "scale-purity-da3-d27": 2,
    "scale-purity-sweep-da3-d21": 2,
    "scale-witness-axis-d25": 4,
    "scale-witness-two-term-d12": 32,
}


def test_scale_reports_are_frozen_within_their_memory_budgets(tmp_path, monkeypatch, cold_memos):
    run = cli._run_config_file
    peaks = {}

    def traced(path, *args):
        cold_memos()
        tracemalloc.start()
        try:
            return run(path, *args)
        finally:
            peaks[Path(path).stem] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_run_config_file", traced)
    manifest = CONFIG_DIR / "scale_manifest.json"
    assert cli.main(["suite", "--config", str(manifest), "--out", str(tmp_path)]) == 0
    digests = {}
    for path in sorted(tmp_path.glob("*.json")):
        report = json.loads(path.read_text())
        report.pop("timing", None)
        digests[path.name] = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digests == SCALE_REPORTS
    assert peaks.keys() == SCALE_PEAK_MIB.keys()
    assert {name: peak for name, peak in peaks.items() if peak > SCALE_PEAK_MIB[name]} == {}
