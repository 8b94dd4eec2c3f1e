"""Purity verdicts, decay curves, invariant-restriction decay, and slice
consistency.

Decay curves are validated against a direct matrix-power oracle; spectral
expectations come from hand-computable symbols (constants, monomials,
block-diagonal mixes).
"""

import numpy as np
import pytest

from gradedshift import (
    CertificationError,
    InvalidInputError,
    NotContractiveError,
    PolydiscDomain,
    adjoint_compression,
    basis_for,
    bergman,
    decay_curve,
    dirichlet,
    drury_arveson,
    hardy,
    hm_ball,
    invariant_restriction_test,
    multiplier_matrix,
    multiplier_purity_verdict,
    random_contractive_symbol,
    scalar_symbol,
    slice_purity_consistency,
)
from gradedshift import purity as purity_module
from gradedshift import spaces as spaces_module
from gradedshift.operators import spectral_radius
from gradedshift.spaces import BallDomain, MultiplierSymbol, lift_scalar_symbol, slice_symbol

from oracles import dense_multiplier, dense_per_degree_rho, random_symbol_oracle

EPS = np.finfo(float).eps
HARDY2 = PolydiscDomain((hardy(), hardy()))
HARDY1 = PolydiscDomain((hardy(),))


class TestAdjointCompression:
    def test_constant_scalar(self):
        basis = basis_for(HARDY1, 3, 1)
        phi = scalar_symbol(1, {(0,): 0.3 + 0.4j})
        adj = adjoint_compression(phi, basis)
        np.testing.assert_allclose(adj.data, (0.3 - 0.4j) * np.eye(4), atol=1e-15)

    def test_backward_shift(self):
        basis = basis_for(HARDY1, 3, 1)
        adj = adjoint_compression(scalar_symbol(1, {(1,): 1.0}), basis)
        expected = np.zeros((4, 4))
        for m in range(3):
            expected[m, m + 1] = 1.0
        np.testing.assert_allclose(adj.data, expected, atol=1e-15)
        assert np.linalg.matrix_power(adj.data, 4).max() == 0.0

    def test_degree_zero_block_is_phi0_star(self):
        rng = np.random.default_rng(11)
        for seed in range(8):
            coeff_dim = 2
            basis = basis_for(HARDY2, 4, coeff_dim)
            phi = random_contractive_symbol(
                np.random.default_rng(seed), HARDY2, coeff_dim, 2, 4
            )
            adj = adjoint_compression(phi, basis)
            block = adj.data[:coeff_dim, :coeff_dim]
            np.testing.assert_allclose(block, phi.phi0.conj().T, atol=1e-13)


class TestDecayCurve:
    def test_constant_one(self):
        basis = basis_for(HARDY1, 4, 1)
        adj = adjoint_compression(scalar_symbol(1, {(0,): 1.0}), basis)
        h = np.zeros(basis.dim, dtype=complex)
        h[0] = 2.0
        curve = decay_curve(adj, h, 5)
        np.testing.assert_allclose(curve, [2.0] * 6, atol=1e-14)

    def test_shift_kills_constants(self):
        basis = basis_for(HARDY1, 4, 1)
        adj = adjoint_compression(scalar_symbol(1, {(1,): 1.0}), basis)
        h = np.zeros(basis.dim, dtype=complex)
        h[0] = 1.0
        curve = decay_curve(adj, h, 3)
        np.testing.assert_allclose(curve, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_half_one_plus_z_matches_power_oracle(self):
        basis = basis_for(HARDY1, 10, 1)
        phi = scalar_symbol(1, {(0,): 0.5, (1,): 0.5})
        adj = adjoint_compression(phi, basis)
        h = np.zeros(basis.dim, dtype=complex)
        h[0] = 1.0
        curve = decay_curve(adj, h, 8)
        acc = h.copy()
        for m in range(9):
            assert curve[m] == pytest.approx(float(np.linalg.norm(acc)), abs=1e-13)
            acc = adj.data @ acc
        assert all(curve[i + 1] < curve[i] for i in range(8))

    def test_noncontraction_rejected(self):
        basis = basis_for(HARDY1, 3, 1)
        mat = multiplier_matrix(basis, scalar_symbol(1, {(0,): 2.0}))
        with pytest.raises(NotContractiveError):
            decay_curve(mat, np.ones(basis.dim, dtype=complex), 3)

    def test_monotone_within_slack(self):
        rng = np.random.default_rng(5)
        basis = basis_for(HARDY2, 5, 2)
        phi = random_contractive_symbol(rng, HARDY2, 2, 2, 5)
        adj = adjoint_compression(phi, basis)
        h = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        curve = decay_curve(adj, h, 12)
        for a, b in zip(curve, curve[1:]):
            assert b <= a + 1e-12


class TestPurityVerdict:
    def test_constant_small_is_pure(self):
        domain = PolydiscDomain((bergman(), bergman()))
        rep = multiplier_purity_verdict(scalar_symbol(2, {(0, 0): 0.9}), domain, 4)
        assert rep.verdict == "pure"
        assert rep.phi0_rho == pytest.approx(0.9, abs=1e-14)

    def test_constant_one_not_pure(self):
        domain = PolydiscDomain((bergman(), bergman()))
        rep = multiplier_purity_verdict(scalar_symbol(2, {(0, 0): 1.0}), domain, 4)
        assert rep.verdict == "not_pure"
        assert all(r == pytest.approx(1.0, abs=1e-12) for r in rep.per_degree_rho.values())

    def test_inner_monomial_pure_all_zero(self):
        rep = multiplier_purity_verdict(scalar_symbol(2, {(1, 1): 1.0}), HARDY2, 6)
        assert rep.verdict == "pure"
        assert all(r == pytest.approx(0.0, abs=1e-14) for r in rep.per_degree_rho.values())

    def test_block_diag_one_and_shift(self):
        phi = MultiplierSymbol(
            1,
            2,
            {
                (0,): np.diag([1.0, 0.0]).astype(complex),
                (1,): np.diag([0.0, 1.0]).astype(complex),
            },
        )
        rep = multiplier_purity_verdict(phi, HARDY1, 4)
        assert rep.verdict == "not_pure"
        assert rep.phi0_rho == pytest.approx(1.0, abs=1e-14)
        for rho in rep.per_degree_rho.values():
            assert rho == pytest.approx(1.0, abs=1e-12)

    def test_noncontractive_rejected(self):
        with pytest.raises(NotContractiveError):
            multiplier_purity_verdict(scalar_symbol(2, {(0, 0): 1.5}), HARDY2, 4)

    def test_sliced_compressions_equal_fresh_assembly(self):
        # Every per-degree radius is rho(Phi(0)) by the structural
        # certificate, and dense eigvals of the fresh compressions agree.
        d_max = 5
        cases = (
            (PolydiscDomain((hardy(), bergman())), 2),
            (BallDomain(hm_ball(2, 2)), 2),
            (HARDY2, 1),
        )
        for domain, c in cases:
            phi = random_contractive_symbol(np.random.default_rng(11), domain, c, 2, d_max)
            rep = multiplier_purity_verdict(phi, domain, d_max)
            for d in range(d_max + 1):
                fresh = adjoint_compression(phi, basis_for(domain, d, c))
                assert rep.per_degree_rho[d] == rep.phi0_rho
                assert abs(spectral_radius(fresh) - rep.phi0_rho) <= 1e-12

    def test_ball_space_sweep_no_inconsistency(self):
        domain = BallDomain(hm_ball(2, 2))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            phi = random_contractive_symbol(rng, domain, 2, 2, 5)
            rep = multiplier_purity_verdict(phi, domain, 5)
            assert rep.verdict == "pure"

    def test_forced_unitary_constant_not_pure(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            phi = random_contractive_symbol(
                rng, HARDY2, 2, 2, 5, unitary_constant=True
            )
            rep = multiplier_purity_verdict(phi, HARDY2, 5)
            assert rep.phi0_rho >= 1.0 - 1e-10
            assert rep.verdict == "not_pure"


SIX_SPACES = (
    PolydiscDomain((hardy(), hardy())),
    PolydiscDomain((bergman(), bergman())),
    PolydiscDomain((dirichlet(), dirichlet())),
    BallDomain(drury_arveson(2)),
    BallDomain(hm_ball(2, 2)),
    BallDomain(hm_ball(2, 3)),
)


class TestStructuralCertificate:
    @pytest.mark.parametrize("domain", SIX_SPACES, ids=lambda d: repr(d)[:40])
    @pytest.mark.parametrize("c", (1, 2))
    def test_every_degree_is_phi0_rho_and_dense_agrees(self, domain, c):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            d_max = 4 + seed
            for forced in (False, True):
                phi = random_contractive_symbol(
                    rng, domain, c, 2, d_max, unitary_constant=forced
                )
                rep = multiplier_purity_verdict(phi, domain, d_max)
                assert sorted(rep.per_degree_rho) == list(range(d_max + 1))
                assert all(r == rep.phi0_rho for r in rep.per_degree_rho.values())
                basis = basis_for(domain, d_max, c)
                dense = dense_per_degree_rho(basis.index_table, basis.norms, c, phi.terms, d_max)
                assert max(abs(r - rep.phi0_rho) for r in dense) <= 1e-12
                assert rep.verdict == ("not_pure" if forced else "pure")

    def test_broken_degree_grading_raises(self, monkeypatch):
        real = purity_module._shift_map

        def patched(basis, beta):
            # one entry of the beta = (1, 0) map stays in its own degree
            src, dst, w = real(basis, beta)
            if tuple(beta) == (1, 0):
                dst = dst.copy()
                dst[0] = src[0]
            return src, dst, w

        phi = scalar_symbol(2, {(0, 0): 0.3, (1, 0): 0.5})
        monkeypatch.setattr(purity_module, "_shift_map", patched)
        with pytest.raises(CertificationError, match=r"\(1, 0\)"):
            multiplier_purity_verdict(phi, HARDY2, 4)

    def test_broken_constant_term_raises(self, monkeypatch):
        real = purity_module._shift_map

        def patched(basis, beta):
            src, dst, w = real(basis, beta)
            return src, dst, w * 1.0000001 if sum(beta) == 0 else w

        monkeypatch.setattr(purity_module, "_shift_map", patched)
        with pytest.raises(CertificationError):
            multiplier_purity_verdict(scalar_symbol(2, {(0, 0): 0.3}), HARDY2, 4)


class TestPaddedNormRecord:
    def test_verdict_reuses_the_generator_norm(self, monkeypatch):
        domain, d_max = BallDomain(hm_ball(2, 2)), 5
        phi = random_contractive_symbol(np.random.default_rng(3), domain, 2, 2, d_max)
        key, norm = phi.padded_norm_record
        assert key == (domain, d_max + 2, 2)
        rebuilt = MultiplierSymbol(phi.n, phi.coeff_dim, phi.terms)
        assert rebuilt.padded_norm_record is None
        svd_norm = multiplier_purity_verdict(rebuilt, domain, d_max).padded_norm
        assert abs(norm - svd_norm) <= 1e-15
        monkeypatch.setattr(purity_module, "_opnorms", pytest.fail)
        assert multiplier_purity_verdict(phi, domain, d_max).padded_norm == norm

    def test_other_truncations_take_the_svd(self):
        phi = random_contractive_symbol(np.random.default_rng(4), HARDY2, 1, 2, 5)
        rep = multiplier_purity_verdict(phi, HARDY2, 4)
        want = np.linalg.norm(multiplier_matrix(basis_for(HARDY2, 6, 1), phi).data, 2)
        assert rep.padded_norm == want
        other = PolydiscDomain((hardy(), bergman()))
        rep = multiplier_purity_verdict(phi, other, 5)
        want = np.linalg.norm(multiplier_matrix(basis_for(other, 7, 1), phi).data, 2)
        assert rep.padded_norm == want

    def test_recorded_norm_is_still_refused(self):
        phi = random_contractive_symbol(np.random.default_rng(5), HARDY2, 1, 2, 5)
        key, _ = phi.padded_norm_record
        phi.padded_norm_record = (key, 1.5)
        with pytest.raises(NotContractiveError):
            multiplier_purity_verdict(phi, HARDY2, 5)

    def test_derived_symbols_carry_no_record(self):
        phi = random_contractive_symbol(np.random.default_rng(6), HARDY2, 1, 2, 5)
        assert phi.padded_norm_record is not None
        for other in (phi.scaled(1.0), slice_symbol(phi, 0), lift_scalar_symbol(phi, 2)):
            assert other.padded_norm_record is None

    def test_forced_symbols_carry_the_direct_sum_record(self):
        # a forced symbol draws its phase, then an inner symbol of size c - 1
        rng = np.random.default_rng(6)
        u = complex(np.exp(2j * np.pi * rng.uniform()))
        inner = random_contractive_symbol(rng, HARDY2, 1, 2, 5)
        _, r = inner.padded_norm_record
        forced, constant = (
            random_contractive_symbol(np.random.default_rng(6), HARDY2, c, 2, 5, unitary_constant=True)
            for c in (2, 1)
        )
        assert forced.padded_norm_record == ((HARDY2, 7, 2), max(abs(u), r))
        assert constant.padded_norm_record == ((HARDY2, 5, 1), abs(u))

    @pytest.mark.parametrize("domain", SIX_SPACES, ids=lambda d: repr(d)[:40])
    @pytest.mark.parametrize("c", (1, 2, 3))
    def test_forced_records_equal_the_dense_norm(self, monkeypatch, domain, c):
        d_max = 3
        phis = purity_module._random_symbols(np.random.default_rng(c), domain, c, 2, d_max, 0, 4)
        for phi in phis:
            key, norm = phi.padded_norm_record
            assert key == (domain, d_max + phi.degree, c)
            padded = basis_for(*key)
            dense = dense_multiplier(padded.index_table, padded.norms, c, phi.terms)
            # the record is exact; the dense SVD carries its rounding, of order dim * eps
            assert abs(norm - np.linalg.svd(dense, compute_uv=False)[0]) <= padded.dim * EPS
        monkeypatch.setattr(purity_module, "_opnorms", pytest.fail)
        monkeypatch.setattr(purity_module, "_weighted_shift", pytest.fail)
        stacked = purity_module._purity_verdicts(phis, domain, d_max)
        for phi, rep in zip(phis, stacked):
            assert rep == multiplier_purity_verdict(phi, domain, d_max)
            assert rep.padded_norm == phi.padded_norm_record[1]
            assert rep.verdict == "not_pure"


# (domain, symbol degree, d_max): the six criterion-01 spaces, a constant
# symbol, and a symbol of degree above the cap on one variable
STACK_CASES = [(domain, 2, 3) for domain in SIX_SPACES] + [
    (HARDY2, 0, 3),
    (HARDY1, 4, 2),
]


class TestStackedSweep:
    @pytest.mark.parametrize("one_matrix_chunks", (False, True), ids=("budget", "one-matrix"))
    @pytest.mark.parametrize("count, forced", ((4, 0), (2, 3)), ids=("plain", "plain+forced"))
    @pytest.mark.parametrize("c", (1, 2, 3))
    @pytest.mark.parametrize(
        "domain, degree, d_max", STACK_CASES, ids=lambda v: repr(v)[:40]
    )
    def test_stack_equals_single_calls_bit_for_bit(
        self, monkeypatch, domain, degree, d_max, c, count, forced, one_matrix_chunks
    ):
        if one_matrix_chunks:
            monkeypatch.setattr(spaces_module, "_STACK_BYTES", 1)
        rngs = [np.random.default_rng(77) for _ in range(3)]
        stacked = purity_module._random_symbols(rngs[0], domain, c, degree, d_max, count, forced)
        singles = [
            random_contractive_symbol(rngs[1], domain, c, degree, d_max, unitary_constant=k >= count)
            for k in range(count + forced)
        ]
        assert len(stacked) == count + forced
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        padded = basis_for(domain, d_max + degree, 1)
        reports = purity_module._purity_verdicts(stacked, domain, d_max)
        for k, (phi, single, rep) in enumerate(zip(stacked, singles, reports)):
            terms, record = random_symbol_oracle(
                rngs[2], padded.index_table, padded.norms, c, degree, forced=k >= count
            )
            for other in (single.terms, terms):
                assert list(phi.terms) == list(other)
                for beta, mat in phi.terms.items():
                    assert mat.tobytes() == other[beta].tobytes()
            assert phi.padded_norm_record == single.padded_norm_record
            assert phi.padded_norm_record[1] == record
            assert rep == multiplier_purity_verdict(single, domain, d_max)
        assert rngs[0].bit_generator.state == rngs[2].bit_generator.state

    def test_recorded_norm_is_refused_inside_a_stack(self):
        phis = purity_module._random_symbols(np.random.default_rng(5), HARDY2, 1, 2, 5, 3, 0)
        key, _ = phis[1].padded_norm_record
        phis[1].padded_norm_record = (key, 1.5)
        with pytest.raises(NotContractiveError) as single:
            multiplier_purity_verdict(phis[1], HARDY2, 5)
        with pytest.raises(NotContractiveError) as stacked:
            purity_module._purity_verdicts(phis, HARDY2, 5)
        assert str(stacked.value) == str(single.value)

    def test_computed_norm_is_refused_inside_a_stack(self):
        phis = [scalar_symbol(2, {(0, 0): v, (1, 0): 0.1}) for v in (0.3, 1.5, 0.2)]
        with pytest.raises(NotContractiveError) as single:
            multiplier_purity_verdict(phis[1], HARDY2, 4)
        with pytest.raises(NotContractiveError) as stacked:
            purity_module._purity_verdicts(phis, HARDY2, 4)
        assert str(stacked.value) == str(single.value)

    def test_every_call_certifies_each_support_once(self, monkeypatch):
        phis = purity_module._random_symbols(np.random.default_rng(8), HARDY2, 2, 2, 4, 3, 2)
        real = purity_module._shift_map
        seen = []

        def counting(basis, beta):
            seen.append((basis.degree_cap, tuple(beta)))
            return real(basis, beta)

        monkeypatch.setattr(purity_module, "_shift_map", counting)
        # plain and forced symbols share one support on the padded V_6
        support = [(6, beta) for beta in phis[0].terms]
        for _ in range(2):
            seen.clear()
            purity_module._purity_verdicts(phis, HARDY2, 4)
            assert seen == support


class TestInvariantRestriction:
    def test_constant_phi_exact_ratio(self, inner_bcl_theta):
        basis = basis_for(HARDY2, 8, 2)
        theta = inner_bcl_theta(0)
        c = 0.35 - 0.2j
        phi = scalar_symbol(2, {(0, 0): c})
        rep = invariant_restriction_test(phi, theta, basis, m_max=5)
        assert rep.passed
        assert rep.target_ratio == pytest.approx(abs(c), abs=1e-14)
        assert rep.max_ratio_error <= 1e-10

    def test_bcl_theta_with_polynomial_phi(self, inner_bcl_theta):
        basis = basis_for(HARDY2, 10, 2)
        theta = inner_bcl_theta(4)
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            terms = {
                (0, 0): 0.4 * (rng.standard_normal() + 1j * rng.standard_normal()),
                (1, 0): 0.2 * rng.standard_normal(),
                (0, 1): 0.2 * rng.standard_normal(),
            }
            phi = scalar_symbol(2, terms)
            rep = invariant_restriction_test(phi, theta, basis, m_max=4)
            assert rep.passed
            assert rep.max_ratio_error <= 1e-8

    def test_theta_vanishing_at_zero_rejected(self):
        basis = basis_for(HARDY2, 6, 1)
        theta = scalar_symbol(2, {(1, 1): 1.0})
        phi = scalar_symbol(2, {(0, 0): 0.5})
        with pytest.raises(InvalidInputError):
            invariant_restriction_test(phi, theta, basis, m_max=3)

    def test_budget_too_small_reported(self, inner_bcl_theta):
        basis = basis_for(HARDY2, 3, 2)
        theta = inner_bcl_theta(1)
        phi = scalar_symbol(2, {(2, 0): 0.3, (0, 0): 0.4})
        with pytest.raises(InvalidInputError, match="certified"):
            invariant_restriction_test(phi, theta, basis, m_max=6)

    def test_non_inner_theta_rejected(self):
        basis = basis_for(HARDY2, 6, 1)
        theta = scalar_symbol(2, {(0, 0): 0.5, (1, 0): 0.5})
        phi = scalar_symbol(2, {(0, 0): 0.5})
        with pytest.raises(InvalidInputError):
            invariant_restriction_test(phi, theta, basis, m_max=3)


class TestSliceConsistency:
    def test_inner_monomial(self):
        rep = slice_purity_consistency(scalar_symbol(2, {(1, 1): 1.0}), HARDY2, 5)
        assert rep.full_verdict == "pure"
        assert rep.consistent
        assert rep.slice_verdicts == ["pure", "pure"]

    def test_unitary_constant(self):
        phi = scalar_symbol(2, {(0, 0): np.exp(0.3j)})
        rep = slice_purity_consistency(phi, HARDY2, 4)
        assert rep.full_verdict == "not_pure"
        assert rep.consistent

    def test_half_one_plus_z1(self):
        phi = scalar_symbol(2, {(0, 0): 0.5, (1, 0): 0.5})
        rep = slice_purity_consistency(phi, HARDY2, 5, axis=1)
        assert rep.full_verdict == "pure"
        assert rep.slice_verdicts == ["pure"]
        assert rep.consistent

    def test_requires_hardy_polydisc(self):
        domain = PolydiscDomain((bergman(), bergman()))
        with pytest.raises(InvalidInputError):
            slice_purity_consistency(scalar_symbol(2, {(1, 1): 1.0}), domain, 4)

    def test_seeded_sweep(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            phi = random_contractive_symbol(rng, HARDY2, 2, 2, 5)
            rep = slice_purity_consistency(phi, HARDY2, 5)
            assert rep.consistent


class TestRandomSymbolGenerator:
    def test_padded_norm_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            phi = random_contractive_symbol(rng, HARDY2, 2, 2, 5)
            rep = multiplier_purity_verdict(phi, HARDY2, 5)
            assert rep.padded_norm <= 1.0 + 1e-10

    def test_unitary_constant_branch_unimodular(self):
        rng = np.random.default_rng(10)
        phi = random_contractive_symbol(rng, HARDY2, 3, 2, 5, unitary_constant=True)
        eig = np.abs(np.linalg.eigvals(phi.phi0))
        assert np.max(eig) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        a = random_contractive_symbol(np.random.default_rng(42), HARDY2, 2, 2, 5)
        b = random_contractive_symbol(np.random.default_rng(42), HARDY2, 2, 2, 5)
        assert set(a.terms) == set(b.terms)
        for key in a.terms:
            np.testing.assert_array_equal(a.terms[key], b.terms[key])
