"""Purity verdicts, decay curves, invariant-restriction decay, and slice
consistency.

Decay curves are validated against a direct matrix-power oracle; spectral
expectations come from hand-computable symbols (constants, monomials,
block-diagonal mixes).
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gradedshift import (
    BallKernelSpec,
    CertificationError,
    InvalidInputError,
    NotContractiveError,
    PolydiscDomain,
    basis_for,
    bergman,
    cli,
    decay_curve,
    dirichlet,
    drury_arveson,
    hardy,
    hm_ball,
    invariant_restriction_test,
    KernelSpec1D,
    ball_coeff,
    coeff_1d,
    multiplier_purity_verdict,
    random_contractive_symbol,
    scalar_symbol,
    slice_purity_consistency,
    weighted_bergman,
)
from gradedshift import operators as operators_module
from gradedshift import purity as purity_module
from gradedshift import spaces as spaces_module
from gradedshift.operators import spectral_radius
from gradedshift.dilation import bcl_pair, haar_unitary, random_bcl_triple
from gradedshift.spaces import BallDomain, MultiplierSymbol, lift_scalar_symbol, slice_symbol, symbol_product

from oracles import (
    dense_adjoint_compression,
    dense_multiplier,
    dense_per_degree_rho,
    dense_restriction_route,
    realized_symbol_oracle,
    sampled_sup_norm,
    sphere_points,
    symbol_product_chain,
    torus_grid,
)

EPS = np.finfo(float).eps
ACCEPTANCE_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"
HARDY2 = PolydiscDomain((hardy(), hardy()))
HARDY1 = PolydiscDomain((hardy(),))
DIAG_ONE_Z = MultiplierSymbol(
    1, 2, {(0,): np.diag([1.0, 0.0]).astype(complex), (1,): np.diag([0.0, 1.0]).astype(complex)}
)


def map_compression(phi, basis):
    """The compression of M_Phi^* to V_D, column by column, from the
    shift-map apply on the identity columns."""
    eye = np.eye(basis.dim, dtype=complex)
    return np.column_stack(
        [list(purity_module._adjoint_orbit(phi, basis, e, 1))[1] for e in eye]
    )


class TestAdjointCompression:
    def test_constant_scalar(self):
        basis = basis_for(HARDY1, 3, 1)
        phi = scalar_symbol(1, {(0,): 0.3 + 0.4j})
        adj = map_compression(phi, basis)
        np.testing.assert_allclose(adj, (0.3 - 0.4j) * np.eye(4), atol=1e-15)

    def test_backward_shift(self):
        basis = basis_for(HARDY1, 3, 1)
        adj = map_compression(scalar_symbol(1, {(1,): 1.0}), basis)
        expected = np.zeros((4, 4))
        for m in range(3):
            expected[m, m + 1] = 1.0
        np.testing.assert_allclose(adj, expected, atol=1e-15)
        assert np.linalg.matrix_power(adj, 4).max() == 0.0

    def test_degree_zero_block_is_phi0_star(self):
        for seed in range(8):
            coeff_dim = 2
            basis = basis_for(HARDY2, 4, coeff_dim)
            phi = random_contractive_symbol(
                np.random.default_rng(seed), HARDY2, coeff_dim, 2, 4
            )
            adj = map_compression(phi, basis)
            block = adj[:coeff_dim, :coeff_dim]
            np.testing.assert_allclose(block, phi.phi0.conj().T, atol=1e-13)


class TestDecayCurve:
    def test_constant_one(self):
        basis = basis_for(HARDY1, 4, 1)
        h = np.zeros(basis.dim, dtype=complex)
        h[0] = 2.0
        curve = decay_curve(scalar_symbol(1, {(0,): 1.0}), basis, h, 5)
        np.testing.assert_allclose(curve, [2.0] * 6, atol=1e-14)

    def test_shift_kills_constants(self):
        basis = basis_for(HARDY1, 4, 1)
        h = np.zeros(basis.dim, dtype=complex)
        h[0] = 1.0
        curve = decay_curve(scalar_symbol(1, {(1,): 1.0}), basis, h, 3)
        np.testing.assert_allclose(curve, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_half_one_plus_z_matches_power_oracle(self):
        basis = basis_for(HARDY1, 10, 1)
        phi = scalar_symbol(1, {(0,): 0.5, (1,): 0.5})
        adj = dense_adjoint_compression(basis, phi.terms)
        h = np.zeros(basis.dim, dtype=complex)
        h[0] = 1.0
        curve = decay_curve(phi, basis, h, 8)
        acc = h.copy()
        for m in range(9):
            assert curve[m] == pytest.approx(float(np.linalg.norm(acc)), abs=1e-13)
            acc = adj @ acc
        assert all(curve[i + 1] < curve[i] for i in range(8))

    def test_wrong_length_vector_refused(self):
        basis = basis_for(HARDY1, 4, 1)
        phi = scalar_symbol(1, {(0,): 0.5, (1,): 0.5})
        for size in (basis.dim - 1, basis.dim + 2):
            with pytest.raises(InvalidInputError, match=f"vector has {size} entries, V_D has dim 5"):
                decay_curve(phi, basis, np.ones(size, dtype=complex), 3)

    def test_matches_dense_oracle(self):
        # Hardy bidisc with c = 2, Bergman, and a ball, at D <= 8
        cases = (
            (HARDY2, 2, 6),
            (PolydiscDomain((bergman(),)), 1, 8),
            (BallDomain(drury_arveson(2)), 2, 5),
        )
        for domain, c, d_cap in cases:
            rng = np.random.default_rng(d_cap)
            basis = basis_for(domain, d_cap, c)
            phi = random_contractive_symbol(rng, domain, c, 2, d_cap)
            h = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            adj = dense_adjoint_compression(basis, phi.terms)
            expected = [float(np.linalg.norm(np.linalg.matrix_power(adj, m) @ h)) for m in range(13)]
            np.testing.assert_allclose(decay_curve(phi, basis, h, 12), expected, rtol=1e-15, atol=0)

    def test_noncontraction_rejected(self):
        basis = basis_for(HARDY1, 3, 1)
        with pytest.raises(NotContractiveError, match=r"coefficient bound 2\.0+ exceeds"):
            decay_curve(scalar_symbol(1, {(0,): 2.0}), basis, np.ones(basis.dim, dtype=complex), 3)

    def test_monotone_within_slack(self, monkeypatch):
        rng = np.random.default_rng(5)
        basis = basis_for(HARDY2, 5, 2)
        phi = random_contractive_symbol(rng, HARDY2, 2, 2, 5)
        h = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        # the realization record certifies the curve: no norm is taken
        monkeypatch.setattr(purity_module, "_opnorms", pytest.fail)
        curve = decay_curve(phi, basis, h, 12)
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
        assert rep.phi0_rho == pytest.approx(1.0, abs=1e-12)

    def test_inner_monomial_pure_all_zero(self):
        rep = multiplier_purity_verdict(scalar_symbol(2, {(1, 1): 1.0}), HARDY2, 6)
        assert rep.verdict == "pure"
        assert rep.phi0_rho == pytest.approx(0.0, abs=1e-14)

    def test_block_diag_one_and_shift(self):
        # the coefficient sum of diag(1, z) is 2, its largest block bound 1
        rep = multiplier_purity_verdict(DIAG_ONE_Z, HARDY1, 4)
        assert rep.verdict == "not_pure"
        assert rep.phi0_rho == pytest.approx(1.0, abs=1e-14)
        assert rep.contractivity == ("coefficient_sum", 1.0)

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
                fresh = dense_adjoint_compression(basis_for(domain, d, c), phi.terms)
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
                basis = basis_for(domain, d_max, c)
                dense = dense_per_degree_rho(basis.index_table, basis.norms, c, phi.terms, d_max)
                assert max(abs(r - rep.phi0_rho) for r in dense) <= 1e-12
                assert rep.verdict == ("not_pure" if forced else "pure")

    def test_broken_degree_grading_raises(self, cold_memos, break_tables):
        # the constant monomial is its own successor, so one entry of the
        # beta = (1, 0) map stays in its own degree
        phi = scalar_symbol(2, {(0, 0): 0.3, (1, 0): 0.5})
        break_tables(basis_for(HARDY2, 4, 1), stall=0)
        with pytest.raises(CertificationError, match=r"\(1, 0\)"):
            multiplier_purity_verdict(phi, HARDY2, 4)

    @pytest.mark.parametrize(
        "support, broken, named",
        (
            ([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)], [(1, 1)], (1, 1)),
            ([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)], [(1, 1), (0, 1)], (0, 1)),
            ([(1, 0), (0, 1), (0, 0)], [(0, 0), (1, 0)], (1, 0)),
            ([(1, 0), (0, 1), (0, 0)], [(0, 0)], (0, 0)),
        ),
    )
    def test_the_first_broken_term_of_the_support_is_named(
        self, cold_memos, break_tables, support, broken, named
    ):
        # the maps of the sound terms are built first; then every map built
        # breaks at its last entries: a lifted one stalls at degree D - 1,
        # and beta = 0 weighs the last monomial by nan
        basis = basis_for(HARDY2, 4, 1)
        for beta in support:
            if beta not in broken:
                purity_module._shift_map(basis, beta)
        lifted = any(map(sum, broken))
        break_tables(basis, stall=3 if lifted else None, nan_norm=(0, 0) in broken)
        phi = scalar_symbol(2, {beta: 0.1 for beta in support})
        assert list(phi.terms) == support
        with pytest.raises(CertificationError) as exc:
            multiplier_purity_verdict(phi, HARDY2, 4)
        assert str(exc.value) == f"shift map of term {named} breaks the degree grading of V_4"
        assert set(basis._shift_maps) == set(support) - set(broken)

    def test_broken_constant_term_raises(self, cold_memos, break_tables):
        break_tables(basis_for(HARDY2, 4, 1), nan_norm=True)
        with pytest.raises(CertificationError, match=r"\(0, 0\)"):
            multiplier_purity_verdict(scalar_symbol(2, {(0, 0): 0.3}), HARDY2, 4)

    def test_a_map_whose_build_failed_is_not_memoised(self, cold_memos, break_tables):
        basis = basis_for(HARDY2, 4, 1)
        break_tables(basis, stall=0)
        phi = scalar_symbol(2, {(0, 0): 0.3, (1, 1): 0.5})
        for _ in range(2):
            with pytest.raises(CertificationError, match=r"\(1, 1\)"):
                multiplier_purity_verdict(phi, HARDY2, 4)
            assert list(basis._shift_maps) == [(0, 0)]

    @pytest.mark.parametrize(
        "domain",
        (PolydiscDomain((bergman(),) * 2), PolydiscDomain((hardy(),) * 3)),
        ids=("bergman2", "hardy3"),
    )
    def test_a_warm_verdict_builds_no_map(self, cold_memos, monkeypatch, domain):
        # warm, a verdict reads no table a map is built or checked from
        phis = purity_module._random_symbols(np.random.default_rng(3), domain, 2, 2, 4, 1)
        d_max = 8 if domain.n == 2 else 6
        cold = purity_module._purity_verdicts(phis, domain, d_max)
        basis = basis_for(domain, d_max, 2)
        maps = dict(basis._shift_maps)
        assert list(maps) == list(phis[0].terms)
        for name in ("successors", "degree_array", "norm_array", "index_array"):
            monkeypatch.setitem(vars(basis), name, None)
        assert purity_module._purity_verdicts(phis, domain, d_max) == cold
        assert [multiplier_purity_verdict(phi, domain, d_max) for phi in phis] == cold
        assert basis._shift_maps.keys() == maps.keys()
        assert all(basis._shift_maps[beta] is maps[beta] for beta in maps)


CUSTOM_1D = KernelSpec1D("custom", custom_coeffs=tuple(1.0 / (m + 1) ** 2 for m in range(20)))
CUSTOM_BALL = BallDomain(
    BallKernelSpec(
        2, "unitarily_invariant_custom", a_coeffs=tuple(1.0 / (j + 1) for j in range(20))
    )
)
DIRICHLET2 = PolydiscDomain((dirichlet(), dirichlet()))
# Every kernel family the generator draws on, with the ratio bound q_i =
# min(1, inf_m c_m / c_(m-1)) of each axis, worked out by hand: 1 where the
# kernel is Szego or Drury-Arveson times a positive kernel, 1/2 for
# Dirichlet, 2 - alpha for weighted Bergman with alpha in (1, 2), and the
# first ratio of the two custom kernels (1/4 and 1/2)
SCALED_SPACES = {
    "hardy2": (HARDY2, (1.0, 1.0)),
    "bergman2": (PolydiscDomain((bergman(), bergman())), (1.0, 1.0)),
    "wbergman0.5": (PolydiscDomain((weighted_bergman(0.5),) * 2), (1.0, 1.0)),
    "da2": (BallDomain(drury_arveson(2)), (1.0, 1.0)),
    "h2b2": (BallDomain(hm_ball(2, 2)), (1.0, 1.0)),
    "h3b2": (BallDomain(hm_ball(2, 3)), (1.0, 1.0)),
    "dirichlet2": (DIRICHLET2, (0.5, 0.5)),
    "dirichlet-hardy": (PolydiscDomain((dirichlet(), hardy())), (0.5, 1.0)),
    "wbergman1.5": (PolydiscDomain((weighted_bergman(1.5),) * 2), (0.5, 0.5)),
    "wbergman1.9": (PolydiscDomain((weighted_bergman(1.9),) * 2), (2 - 1.9, 2 - 1.9)),
    "custom1d": (PolydiscDomain((CUSTOM_1D,) * 2), (0.25, 0.25)),
    "custom-ball": (CUSTOM_BALL, (0.5, 0.5)),
}


# Drawn on the first space, the symbols of these two cases are contractive
# on the second one only by norms on a truncation (0.88 and 0.51), which are
# lower bounds; their coefficient bounds are 1.56 and 1.25
REFUSED_WITHOUT_RECORD = {("wbergman1.5", "wbergman1.9"), ("da2", "custom-ball")}


def _geometry(domain):
    return "polydisc" if isinstance(domain, PolydiscDomain) else "ball"


def _key(name):
    domain, scales = SCALED_SPACES[name]
    return (_geometry(domain), scales)


def _take_no_norm(monkeypatch):
    # the generator and the coefficient bound norm with _opnorms; a dense
    # norm would assemble with operators._weighted_shift and take opnorm
    for name in ("_opnorms", "opnorm"):
        monkeypatch.setattr(purity_module, name, pytest.fail)
    monkeypatch.setattr(operators_module, "_weighted_shift", pytest.fail)


class TestRealizationScales:
    @pytest.mark.parametrize("name", SCALED_SPACES)
    def test_scale_table(self, name):
        domain, scales = SCALED_SPACES[name]
        assert purity_module._realization_scales(domain) == scales

    @pytest.mark.parametrize(
        "spec",
        [hardy(), bergman(), dirichlet(), CUSTOM_1D]
        + [weighted_bergman(a) for a in (-0.5, 0.0, 0.5, 1.0, 1.25, 1.5, 1.9)],
        ids=repr,
    )
    def test_closed_forms_are_the_ratio_floor(self, spec):
        ratios = [coeff_1d(spec, m) / coeff_1d(spec, m - 1) for m in range(1, 20)]
        got = purity_module._realization_scales(PolydiscDomain((spec, hardy())))
        assert got == (min([1.0] + ratios), 1.0)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_hm_balls_take_one(self, m):
        spec = hm_ball(3, m)
        assert min(ball_coeff(spec, j) / ball_coeff(spec, j - 1) for j in range(1, 20)) >= 1.0
        assert purity_module._realization_scales(BallDomain(spec)) == (1.0,) * 3

    def test_custom_scale_is_the_least_ratio_capped_at_one(self):
        # ratios 2, 0.75 and 4/3; a kernel whose coefficients grow takes 1
        spec = KernelSpec1D("custom", custom_coeffs=(1.0, 2.0, 1.5, 2.0))
        assert purity_module._realization_scales(PolydiscDomain((spec, hardy()))) == (0.75, 1.0)
        ball = BallKernelSpec(3, "unitarily_invariant_custom", a_coeffs=(1.0, 2.0, 3.0))
        assert purity_module._realization_scales(BallDomain(ball)) == (1.0,) * 3


class TestCoefficientBound:
    def test_config_symbols_take_the_coefficient_bound(self, monkeypatch):
        phi = random_contractive_symbol(np.random.default_rng(4), DIRICHLET2, 1, 2, 5)
        rebuilt = MultiplierSymbol(phi.n, phi.coeff_dim, phi.terms)
        assert rebuilt.contractivity_record is None
        monkeypatch.setattr(operators_module, "_weighted_shift", pytest.fail)
        monkeypatch.setattr(purity_module, "opnorm", pytest.fail)
        for name, d_max in (("dirichlet2", 4), ("dirichlet-hardy", 5)):
            domain, scales = SCALED_SPACES[name]
            # sum_alpha |Phi_alpha| prod_i q_i^(-alpha_i / 2), by hand
            want = sum(
                abs(mat[0, 0]) * np.prod([q ** (-a / 2) for q, a in zip(scales, alpha)])
                for alpha, mat in rebuilt.terms.items()
            )
            kind, bound = multiplier_purity_verdict(rebuilt, domain, d_max).contractivity
            assert kind == "coefficient_sum" and abs(bound - want) <= 8 * EPS

    def test_blocks_take_the_largest_block_bound(self):
        # directions {0, 2} are linked by the z_1 coefficient, {1} is alone
        phi = MultiplierSymbol(
            2,
            3,
            {
                (0, 0): np.array([[0.2, 0, 0], [0, 0.9, 0], [0, 0, 0.1]]),
                (1, 0): np.array([[0, 0, 0.3], [0, 0, 0], [0, 0, 0]]),
                (0, 2): np.array([[0, 0, 0], [0, 0, 0], [0, 0, -0.4j]]),
            },
        )
        # on Dirichlet x Hardy: the block {0, 2} gets 0.2 + 0.3 sqrt(2) + 0.4
        domain = SCALED_SPACES["dirichlet-hardy"][0]
        want = 0.2 + 0.3 * np.sqrt(2.0) + 0.4
        assert abs(purity_module._coefficient_bound(phi, domain) - want) <= 4 * EPS
        assert abs(purity_module._coefficient_bound(phi, HARDY2) - 0.9) <= 4 * EPS
        with pytest.raises(NotContractiveError, match="coefficient bound"):
            multiplier_purity_verdict(phi.scaled(1.2), domain, 3)

    @pytest.mark.parametrize("name", ("hardy2", "dirichlet2", "custom-ball"))
    def test_forced_symbols_need_no_record(self, name):
        # u (+) Phi_inner with the records dropped: the blocks give max(1, b_inner)
        domain = SCALED_SPACES[name][0]
        inner = random_contractive_symbol(np.random.default_rng(3), domain, 2, 2, 4)
        r = inner.contractivity_record[1].bound
        stack = np.array([list(inner.terms.values())])
        (forced,) = purity_module._with_unitary_constants(domain, [-1.0], list(inner.terms), stack, [r])
        assert forced.contractivity_record == (inner.contractivity_record[0], ("realization", 1.0))
        inner, forced = (MultiplierSymbol(p.n, p.coeff_dim, p.terms) for p in (inner, forced))
        b_inner = purity_module._coefficient_bound(inner, domain)
        assert purity_module._coefficient_bound(forced, domain) == max(1.0, b_inner)

    @pytest.mark.parametrize("name", ("hardy2", "dirichlet2"))
    def test_slices_keep_the_record_and_other_derived_symbols_carry_none(self, monkeypatch, name):
        domain, scales = SCALED_SPACES[name]
        phi = random_contractive_symbol(np.random.default_rng(6), domain, 1, 2, 5)
        key, cert = phi.contractivity_record
        for other in (phi.scaled(1.0), lift_scalar_symbol(phi, 2)):
            assert other.contractivity_record is None
        for axis in (0, 1):
            sliced = slice_symbol(phi, axis)
            kept = scales[1 - axis : 2 - axis]
            assert sliced.contractivity_record == ((key[0], kept), cert)
            # the compressed colligation bounds the dense norm of the slice
            sub = PolydiscDomain(domain.factors[1 - axis : 2 - axis])
            padded = basis_for(sub, 6 + sliced.degree, 1)
            dense = dense_multiplier(padded.index_table, padded.norms, 1, sliced.terms)
            assert np.linalg.svd(dense, compute_uv=False)[0] <= cert.bound + padded.dim * EPS
        _take_no_norm(monkeypatch)
        assert multiplier_purity_verdict(slice_symbol(phi, 1), sub, 6).contractivity == cert


class TestRealizationRecord:
    @pytest.mark.parametrize("name", ("hardy2", "dirichlet2", "custom-ball"))
    def test_forced_symbols_carry_the_direct_sum_record(self, name):
        # a forced symbol draws its phase, then an inner symbol of size c - 1
        domain = SCALED_SPACES[name][0]
        rng = np.random.default_rng(6)
        u = complex(np.exp(2j * np.pi * rng.uniform()))
        inner = random_contractive_symbol(rng, domain, 1, 2, 5)
        r = inner.contractivity_record[1].bound
        forced, constant = (
            random_contractive_symbol(np.random.default_rng(6), domain, c, 2, 5, unitary_constant=True)
            for c in (2, 1)
        )
        assert inner.contractivity_record[0] == _key(name)
        assert forced.contractivity_record == (_key(name), ("realization", max(abs(u), r)))
        assert constant.contractivity_record == (_key(name), ("realization", abs(u)))

    @pytest.mark.parametrize("name", SCALED_SPACES)
    @pytest.mark.parametrize("c", (1, 2, 3))
    def test_forced_records_bound_the_dense_norm(self, monkeypatch, name, c):
        domain = SCALED_SPACES[name][0]
        d_max = 3
        phis = purity_module._random_symbols(np.random.default_rng(c), domain, c, 2, 0, 4)
        for phi in phis:
            padded = basis_for(domain, d_max + phi.degree, c)
            dense = dense_multiplier(padded.index_table, padded.norms, c, phi.terms)
            norm = np.linalg.svd(dense, compute_uv=False)[0]
            key, cert = phi.contractivity_record
            # the dense SVD carries its rounding, of order dim * eps
            assert key == _key(name) and cert.kind == "realization"
            assert norm <= cert.bound + padded.dim * EPS
        _take_no_norm(monkeypatch)
        stacked = purity_module._purity_verdicts(phis, domain, d_max)
        for phi, rep in zip(phis, stacked):
            assert rep == multiplier_purity_verdict(phi, domain, d_max)
            assert rep.contractivity == phi.contractivity_record[1]
            assert rep.verdict == "not_pure"

    @pytest.mark.parametrize("name", SCALED_SPACES)
    def test_verdict_on_v_d_with_no_norm(self, monkeypatch, name):
        domain = SCALED_SPACES[name][0]
        d_max = 4
        phis = purity_module._random_symbols(np.random.default_rng(1), domain, 2, 2, 3, 2)
        real = purity_module.basis_for
        caps = []

        def recording(dom, cap, c):
            caps.append(cap)
            return real(dom, cap, c)

        monkeypatch.setattr(purity_module, "basis_for", recording)
        _take_no_norm(monkeypatch)
        for phi, rep in zip(phis, purity_module._purity_verdicts(phis, domain, d_max)):
            assert rep.contractivity == phi.contractivity_record[1]
            assert rep.contractivity.kind == "realization"
        assert set(caps) == {d_max}

    @pytest.mark.parametrize(
        "source, target",
        [
            ("hardy2", "dirichlet2"),
            ("hardy2", "dirichlet-hardy"),
            ("hardy2", "wbergman1.5"),
            ("wbergman1.5", "wbergman1.9"),
            ("dirichlet2", "custom1d"),
            ("da2", "custom-ball"),
            ("hardy2", "da2"),
            ("da2", "hardy2"),
            ("custom-ball", "dirichlet2"),
        ],
    )
    def test_record_is_ignored_where_it_does_not_hold(self, monkeypatch, source, target):
        # a smaller scale on some axis, or the other geometry: the symbol
        # takes its coefficient bound and no matrix is assembled or normed
        phi = random_contractive_symbol(np.random.default_rng(2), SCALED_SPACES[source][0], 1, 2, 4)
        domain = SCALED_SPACES[target][0]
        bound = purity_module._coefficient_bound(phi, domain)
        monkeypatch.setattr(operators_module, "_weighted_shift", pytest.fail)
        monkeypatch.setattr(purity_module, "opnorm", pytest.fail)
        if (source, target) in REFUSED_WITHOUT_RECORD:
            assert bound > 1.0
            with pytest.raises(NotContractiveError, match="coefficient bound"):
                multiplier_purity_verdict(phi, domain, 4)
        else:
            assert multiplier_purity_verdict(phi, domain, 4).contractivity == ("coefficient_sum", bound)

    @pytest.mark.parametrize(
        "source, target",
        [
            ("dirichlet2", "hardy2"),
            ("dirichlet2", "dirichlet-hardy"),
            ("dirichlet-hardy", "hardy2"),
            ("custom1d", "dirichlet2"),
            ("wbergman1.9", "wbergman1.5"),
            ("wbergman1.5", "bergman2"),
            ("custom-ball", "h3b2"),
        ],
    )
    def test_record_holds_where_every_scale_is_at_least_the_recorded_one(
        self, monkeypatch, source, target
    ):
        phi = random_contractive_symbol(np.random.default_rng(2), SCALED_SPACES[source][0], 2, 2, 4)
        _take_no_norm(monkeypatch)
        rep = multiplier_purity_verdict(phi, SCALED_SPACES[target][0], 4)
        assert rep.contractivity == phi.contractivity_record[1]

    @pytest.mark.parametrize("name", ("hardy2", "dirichlet2"))
    def test_realization_bound_is_refused(self, name):
        domain = SCALED_SPACES[name][0]
        phis = purity_module._random_symbols(np.random.default_rng(5), domain, 1, 2, 3, 0)
        key, cert = phis[1].contractivity_record
        phis[1].contractivity_record = (key, cert._replace(bound=1.5))
        with pytest.raises(NotContractiveError, match="realization norm bound") as single:
            multiplier_purity_verdict(phis[1], domain, 5)
        with pytest.raises(NotContractiveError) as stacked:
            purity_module._purity_verdicts(phis, domain, 5)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("name", ("hardy2", "da2", "dirichlet2"))
    @pytest.mark.parametrize("c", (1, 3))
    def test_degree_zero_is_one_colligations_a(self, name, c):
        domain = SCALED_SPACES[name][0]
        for seed in range(5):
            phi = random_contractive_symbol(np.random.default_rng(seed), domain, c, 0, 4)
            assert list(phi.terms) == [(0,) * domain.n]
            a = phi.phi0
            assert np.linalg.norm(a, 2) <= 0.99 + 1e-15
            assert not np.allclose(a, np.eye(c))
            rep = multiplier_purity_verdict(phi, domain, 4)
            assert rep.verdict == "pure" and rep.contractivity.kind == "realization"


# The dense gate, (domain, D, q per axis): every one-variable family at n = 2,
# D = 8 and n = 3, D = 5, Dirichlet x Hardy, the H_1, H_2, H_3 balls at both
# sizes, the custom ball and the Hardy disc
DENSE_GATE = (
    [
        (PolydiscDomain((spec,) * n), d_max, (q,) * n)
        for n, d_max in ((2, 8), (3, 5))
        for spec, q in (
            (hardy(), 1.0),
            (bergman(), 1.0),
            (weighted_bergman(0.5), 1.0),
            (dirichlet(), 0.5),
            (weighted_bergman(1.5), 0.5),
            (weighted_bergman(1.9), 2 - 1.9),
            (CUSTOM_1D, 0.25),
        )
    ]
    + [(SCALED_SPACES["dirichlet-hardy"][0], 8, (0.5, 1.0))]
    + [(BallDomain(hm_ball(n, m)), d_max, (1.0,) * n) for n, d_max in ((2, 8), (3, 5)) for m in (1, 2, 3)]
    + [(CUSTOM_BALL, 8, (0.5, 0.5))]
    + [(HARDY1, 8, (1.0,))]
)


def _config_symbols():
    # (domain, symbol) of every acceptance config that gives a symbol
    out = []
    for path in sorted(ACCEPTANCE_DIR.glob("*.json")):
        config = json.loads(path.read_text(encoding="utf-8"))
        if "symbol" in config:
            out.append((cli.build_domain(config["space"]), cli.decode_symbol(config["symbol"])))
    return out


# Symbols with no record that the dense gate also checks, each on its own
# space: the acceptance configs' and those of TestPurityVerdict
UNRECORDED_SYMBOLS = _config_symbols() + [
    (PolydiscDomain((bergman(), bergman())), scalar_symbol(2, {(0, 0): 0.9})),
    (PolydiscDomain((bergman(), bergman())), scalar_symbol(2, {(0, 0): 1.0})),
    (HARDY2, scalar_symbol(2, {(1, 1): 1.0})),
    (HARDY2, scalar_symbol(2, {(0, 0): 1.5})),
    (HARDY1, DIAG_ONE_Z),
]


def _boundary_points(domain):
    # ||M_Phi|| >= sup ||Phi||, the max over the torus or the sphere
    if isinstance(domain, PolydiscDomain):
        return torus_grid(64 if domain.n <= 2 else 16, domain.n)
    return sphere_points(np.random.default_rng(0), 4096, domain.n)


def _padded_norm(domain, d_max, phi):
    """The dense norm of Phi's matrix on V_(D + deg Phi), and that size."""
    padded = basis_for(domain, d_max + phi.degree, phi.coeff_dim)
    dense = dense_multiplier(padded.index_table, padded.norms, phi.coeff_dim, phi.terms)
    return np.linalg.svd(dense, compute_uv=False)[0], padded.dim


class TestRealizedSymbols:
    @pytest.mark.parametrize("domain, d_max, scales", DENSE_GATE, ids=lambda v: repr(v)[:48])
    def test_oracle_terms_and_contractive_compressions(self, domain, d_max, scales):
        # Both certificates are upper bounds on ||M_Phi||, so each is at
        # least the dense padded norm (a compression norm) and the sampled
        # sup; a realization is at most 1 as well.  The coefficient bound is
        # checked on the realized symbols with their records dropped, and on
        # the unrecorded symbols of this space.
        points = _boundary_points(domain)
        for phi in [phi for space, phi in UNRECORDED_SYMBOLS if space == domain]:
            norm, dim = _padded_norm(domain, d_max, phi)
            bound = purity_module._coefficient_bound(phi, domain)
            assert norm <= bound + dim * EPS
            assert sampled_sup_norm(phi.terms, points) <= bound + 1e-12
        for seed in range(20):
            c = 1 + seed % 3
            forced = seed % 5 == 4
            phi = random_contractive_symbol(
                np.random.default_rng(seed), domain, c, 2, d_max, unitary_constant=forced
            )
            terms, bound = realized_symbol_oracle(
                np.random.default_rng(seed), _geometry(domain), domain.n, c, 2, forced, scales
            )
            assert set(phi.terms) == set(terms)
            for alpha, mat in terms.items():
                np.testing.assert_allclose(phi.terms[alpha], mat, rtol=0, atol=1e-14)
            assert phi.contractivity_record == ((_geometry(domain), scales), ("realization", bound))
            norm, dim = _padded_norm(domain, d_max, phi)
            sup = sampled_sup_norm(phi.terms, points)
            assert norm <= 1.0 + dim * EPS
            assert norm <= bound + dim * EPS
            assert sup <= 1.0 + 1e-12
            unrecorded = MultiplierSymbol(phi.n, c, phi.terms)
            coefficient_bound = purity_module._coefficient_bound(unrecorded, domain)
            assert norm <= coefficient_bound + dim * EPS
            assert sup <= coefficient_bound + 1e-12


# (space, symbol degree, d_max): every family at degree 2, constant symbols,
# and a symbol of degree above the cap on one variable
STACK_CASES = [(SCALED_SPACES[name], 2, 3) for name in SCALED_SPACES] + [
    (SCALED_SPACES["hardy2"], 0, 3),
    (SCALED_SPACES["dirichlet2"], 0, 3),
    ((HARDY1, (1.0,)), 4, 2),
]


def _chain_domain(geometry, n):
    # a polydisc mixing scales 0.5 and 1, or a ball with q = 1 or q = 0.5
    if geometry == "polydisc":
        return PolydiscDomain((dirichlet(), hardy(), weighted_bergman(1.5))[:n])
    if geometry == "ball-da":
        return BallDomain(drury_arveson(n))
    return BallDomain(BallKernelSpec(n, "unitarily_invariant_custom", a_coeffs=CUSTOM_BALL.spec.a_coeffs))


class TestProductPlan:
    @pytest.mark.parametrize("one_matrix_chunks", (False, True), ids=("budget", "one-matrix"))
    @pytest.mark.parametrize("geometry", ("polydisc", "ball-da", "ball-custom"))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_stack_equals_the_symbol_product_chain_byte_for_byte(
        self, monkeypatch, n, geometry, one_matrix_chunks
    ):
        # the product plan replays symbol_product's term order and sums
        domain = _chain_domain(geometry, n)
        scales = purity_module._realization_scales(domain)
        if one_matrix_chunks:
            monkeypatch.setattr(spaces_module, "_STACK_BYTES", 1)
        for c in (1, 2, 3):
            for degree in range(5):
                rngs = [np.random.default_rng((n, c, degree)) for _ in range(2)]
                stacked = purity_module._random_symbols(rngs[0], domain, c, degree, 3, 2)
                chained = symbol_product_chain(rngs[1], domain.kind, n, c, degree, 3, 2, scales)
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
                assert len(stacked) == len(chained) == 5
                for phi, (chain, bound) in zip(stacked, chained):
                    assert list(phi.terms) == list(chain.terms)
                    assert [m.tobytes() for m in phi.terms.values()] == [
                        m.tobytes() for m in chain.terms.values()
                    ]
                    assert phi.contractivity_record == ((domain.kind, scales), ("realization", bound))

    def test_plan_is_memoised_per_shape(self, cold_memos):
        support, steps = purity_module._product_plan(2, 2, True)
        assert support == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        assert purity_module._product_plan(2, 2, True)[1] is steps
        ((first, rounds),) = steps
        # (1, 0) and (0, 1) sum 1 z_i and z_i 1, (1, 1) sums z_1 z_2 and z_2 z_1
        assert first.tolist() == [0, 1, 2, 4, 5, 8] and len(rounds) == 1
        assert [a.tolist() for a in rounds[0]] == [[1, 2, 4], [3, 6, 7]]
        assert not any(a.flags.writeable for a in (first, *rounds[0]))
        assert purity_module._product_plan(2, 1, False) == (((0, 0),), ())
        assert purity_module._product_plan.cache_info().currsize == 2


class TestStackedSweep:
    @pytest.mark.parametrize("one_matrix_chunks", (False, True), ids=("budget", "one-matrix"))
    @pytest.mark.parametrize("count, forced", ((4, 0), (2, 3)), ids=("plain", "plain+forced"))
    @pytest.mark.parametrize("c", (1, 2, 3))
    @pytest.mark.parametrize(
        "space, degree, d_max", STACK_CASES, ids=lambda v: repr(v)[:40]
    )
    def test_stack_equals_single_calls_bit_for_bit(
        self, monkeypatch, space, degree, d_max, c, count, forced, one_matrix_chunks
    ):
        domain, scales = space
        if one_matrix_chunks:
            monkeypatch.setattr(spaces_module, "_STACK_BYTES", 1)
        rngs = [np.random.default_rng(77) for _ in range(3)]
        stacked = purity_module._random_symbols(rngs[0], domain, c, degree, count, forced)
        singles = [
            random_contractive_symbol(rngs[1], domain, c, degree, d_max, unitary_constant=k >= count)
            for k in range(count + forced)
        ]
        assert len(stacked) == count + forced
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        reports = purity_module._purity_verdicts(stacked, domain, d_max)
        for k, (phi, single, rep) in enumerate(zip(stacked, singles, reports)):
            assert list(phi.terms) == list(single.terms)
            for beta, mat in phi.terms.items():
                assert mat.tobytes() == single.terms[beta].tobytes()
            # the oracle writes E(e_i) out, so its products round differently
            terms, record = realized_symbol_oracle(
                rngs[2], _geometry(domain), domain.n, c, degree, k >= count, scales
            )
            assert set(phi.terms) == set(terms)
            for beta, mat in terms.items():
                np.testing.assert_allclose(phi.terms[beta], mat, rtol=0, atol=1e-14)
            assert phi.contractivity_record == single.contractivity_record
            assert phi.contractivity_record == ((_geometry(domain), scales), ("realization", record))
            assert rep == multiplier_purity_verdict(single, domain, d_max)
        assert rngs[0].bit_generator.state == rngs[2].bit_generator.state

    def test_computed_norm_is_refused_inside_a_stack(self):
        phis = [scalar_symbol(2, {(0, 0): v, (1, 0): 0.1}) for v in (0.3, 1.5, 0.2)]
        with pytest.raises(NotContractiveError) as single:
            multiplier_purity_verdict(phis[1], HARDY2, 4)
        with pytest.raises(NotContractiveError) as stacked:
            purity_module._purity_verdicts(phis, HARDY2, 4)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize(
        "name, recorded",
        (("dirichlet2", True), ("hardy2", True), ("dirichlet2", False)),
        ids=("dirichlet", "hardy", "config-symbols"),
    )
    def test_every_call_certifies_each_support_once(self, monkeypatch, name, recorded):
        domain = SCALED_SPACES[name][0]
        phis = purity_module._random_symbols(np.random.default_rng(8), domain, 2, 2, 3, 2)
        if not recorded:
            phis = [MultiplierSymbol(phi.n, phi.coeff_dim, phi.terms) for phi in phis]
        real = purity_module._shift_map
        seen = []

        def counting(basis, beta):
            seen.append((basis.degree_cap, tuple(beta)))
            return real(basis, beta)

        monkeypatch.setattr(purity_module, "_shift_map", counting)
        # plain and forced symbols share one support, certified on V_4
        # itself, with or without a record
        support = [(4, beta) for beta in phis[0].terms]
        for _ in range(2):
            seen.clear()
            purity_module._purity_verdicts(phis, domain, 4)
            assert seen == support


# the four spaces of the benchmark's purity sweep and the Dirichlet bidisc
DIGEST_SPACES = (
    PolydiscDomain((bergman(),) * 2),
    BallDomain(drury_arveson(2)),
    PolydiscDomain((hardy(),) * 3),
    BallDomain(hm_ball(3, 3)),
    DIRICHLET2,
)

# SHA-256 of generator_digest() as the generator stood before its
# realization plans and support memo; any change to a coefficient bit, a
# support, a record, a verdict field or the rng state after a draw moves it
GENERATOR_DIGEST = "b69f0208de1b6b864e0affbc02f9e53c5b61c81f0f36af49ee202fd2acb39fb7"


def generator_digest():
    digest = hashlib.sha256()
    for domain in DIGEST_SPACES:
        for c in (1, 2, 3):
            for seed in range(5):
                for count, forced in ((1, 0), (0, 1), (7, 3)):
                    rng = np.random.default_rng(seed)
                    phis = purity_module._random_symbols(rng, domain, c, 2, count, forced)
                    reports = purity_module._purity_verdicts(phis, domain, 4)
                    digest.update(repr(rng.bit_generator.state).encode())
                    for phi, rep in zip(phis, reports):
                        digest.update(repr((list(phi.terms), phi.contractivity_record, rep)).encode())
                        for mat in phi.terms.values():
                            digest.update(mat.tobytes())
    return digest.hexdigest()


class TestGeneratorIdentity:
    def test_generator_digest_is_frozen(self):
        assert generator_digest() == GENERATOR_DIGEST

    def test_a_sweep_checks_its_support_once_and_a_warm_plan_changes_no_bit(self, cold_memos, monkeypatch):
        real, seen = spaces_module._multi_index, []
        monkeypatch.setattr(spaces_module, "_multi_index", lambda n, alpha: seen.append(alpha) or real(n, alpha))
        domain = PolydiscDomain((bergman(),) * 2)
        # 12 plain and 3 forced symbols, two stacks on one support
        cold = purity_module._random_symbols(np.random.default_rng(29), domain, 2, 2, 12, 3)
        assert len(cold) == 15
        assert seen == list(purity_module._realization_plan(domain, 2, 2).support)
        seen.clear()
        warm = purity_module._random_symbols(np.random.default_rng(29), domain, 2, 2, 12, 3)
        assert seen == []
        for a, b in zip(cold, warm):
            assert list(a.terms) == list(b.terms)
            assert [m.tobytes() for m in a.terms.values()] == [m.tobytes() for m in b.terms.values()]
            assert a.contractivity_record == b.contractivity_record
        assert purity_module._purity_verdicts(cold, domain, 6) == purity_module._purity_verdicts(warm, domain, 6)

    def test_plans_are_memoised_per_space_size_and_degree(self, cold_memos):
        domain = DIRICHLET2
        plan = purity_module._realization_plan(domain, 2, 2)
        assert plan is purity_module._realization_plan(DIRICHLET2, 2, 2)
        assert plan.shape == (2, 2, 6, 6) and plan.roots == ((0, np.sqrt(0.5)), (1, np.sqrt(0.5)))
        assert (plan.support, plan.steps) == purity_module._product_plan(2, 2, True)
        assert purity_module._realization_plan(domain, 1, 0).support == ((0, 0),)
        assert purity_module._realization_plan(HARDY2, 1, 1).roots == ()
        assert purity_module._realization_plan.cache_info().currsize == 3

    def test_an_oversized_symbol_is_refused_before_its_draw_and_no_plan_is_kept(self, cold_memos):
        # c C(D + 1, 1) = 65 * 64 > MAX_DIM
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="^a degree-63 symbol in 1 variables with coeff_dim 65 "):
                random_contractive_symbol(rng, PolydiscDomain((hardy(),)), 65, 63, 63)
        assert rng.bit_generator.state == state
        assert purity_module._realization_plan.cache_info().currsize == 0


def random_inner_symbol(rng, n, c):
    """An inner symbol in n variables with coeff_dim c: the product of two
    random (P + z_p P_perp) U* on random axes, P of rank >= 1 so that the
    factors do not vanish at 0, times a Haar unitary constant."""
    factors = []
    for _ in range(2):
        t = random_bcl_triple(rng, c, axis=int(rng.integers(n)), rank=int(rng.integers(1, c + 1)))
        factors.append(bcl_pair(t, n)[0])
    unitary = MultiplierSymbol(n, c, {(0,) * n: haar_unitary(rng, c)})
    return symbol_product(symbol_product(*factors), unitary)


def defect_bounds(basis, thetas):
    """The isometry-defect bound of each symbol, one call per symbol."""
    return [
        purity_module._isometry_defect_bounds(basis, tuple(t.terms), np.array(list(t.terms.values()))[None])[0]
        for t in thetas
    ]


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
        dense, defect = dense_restriction_route(basis, {(0, 0): c}, theta.terms, 5)
        assert defect <= 1e-14
        np.testing.assert_allclose(rep.s_values, dense, rtol=1e-13, atol=0)

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
            dense, _ = dense_restriction_route(basis, terms, theta.terms, 4)
            np.testing.assert_allclose(rep.s_values, dense, rtol=1e-13, atol=0)

    def test_degree_two_inner_theta_matches_dense_route(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            theta = random_inner_symbol(rng, 2, 2)
            assert np.linalg.norm(theta.phi0) > 1e-3
            terms = {(0, 0): 0.3 + 0.1j, (1, 0): 0.2, (0, 1): -0.15}
            basis = basis_for(HARDY2, 9, 2)
            rep = invariant_restriction_test(scalar_symbol(2, terms), theta, basis, m_max=4)
            assert rep.passed
            dense, _ = dense_restriction_route(basis, terms, theta.terms, 4)
            np.testing.assert_allclose(rep.s_values, dense, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("c", (1, 2))
    def test_defect_bound_dominates_dense_defect(self, n, c):
        rng = np.random.default_rng(10 * n + c)
        domain = PolydiscDomain((hardy(),) * n)
        basis = basis_for(domain, 5, c)
        thetas = [random_inner_symbol(rng, n, c) for _ in range(3)]
        thetas += [random_contractive_symbol(rng, domain, c, 2, 5) for _ in range(3)]
        pencil = {(0,) * n: 0.6 * np.eye(c), (1,) + (0,) * (n - 1): 0.8 * haar_unitary(rng, c)}
        thetas.append(MultiplierSymbol(n, c, pencil))
        bounds = defect_bounds(basis, thetas)
        for theta, bound in zip(thetas, bounds):
            dense = dense_multiplier(basis.index_table, basis.norms, c, theta.terms)
            cols = dense[:, : basis.dim_upto(5 - theta.degree)]
            defect = np.linalg.svd(cols.conj().T @ cols - np.eye(cols.shape[1]), compute_uv=False)[0]
            assert defect <= bound * (1 + 1e-12) + 1e-14
        # the inner ones are certified, the contractive draws and the pencil are not
        assert max(bounds[:3]) <= 1e-14 and min(bounds[3:]) > 1e-3

    def test_defect_bound_is_sharp_for_a_pencil(self):
        # theta = a + b z: M^* M - I = conj(a) b S + a conj(b) S^*, of norm
        # 2 |a b|, which the compressions to V_D approach from below
        a, b = 0.6, 0.8j
        theta = scalar_symbol(1, {(0,): a, (1,): b})
        basis = basis_for(HARDY1, 60, 1)
        (bound,) = defect_bounds(basis, [theta])
        assert bound == pytest.approx(2 * abs(a * b), rel=1e-15)
        cols = dense_multiplier(basis.index_table, basis.norms, 1, theta.terms)[:, :60]
        defect = np.linalg.svd(cols.conj().T @ cols - np.eye(60), compute_uv=False)[0]
        assert 0.99 * bound <= defect <= bound

    def test_hardy_bidisc_at_dim_1722_forms_no_matrix(self, inner_bcl_theta, monkeypatch):
        # a dense M_theta here is 45 MiB, and its SVD frame as much again
        basis = basis_for(HARDY2, 40, 2)
        theta = inner_bcl_theta(5)
        phi = scalar_symbol(2, {(0, 0): 0.4 - 0.1j, (1, 0): 0.2, (0, 1): 0.1})
        real_svd = np.linalg.svd

        def small_only(a, *args, **kwargs):
            assert np.shape(a)[-2] <= 64, f"SVD of a matrix with {np.shape(a)[-2]} rows"
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", small_only)
        monkeypatch.setattr(operators_module, "_weighted_shift", pytest.fail)
        tracemalloc.start()
        try:
            rep = invariant_restriction_test(phi, theta, basis, m_max=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.certified_m_max == 8
        assert peak < 16 * 2**20

    def test_cap_below_deg_theta_rejected(self, inner_bcl_theta):
        phi = scalar_symbol(2, {(0, 0): 0.5})
        with pytest.raises(InvalidInputError, match="certified m = 0"):
            invariant_restriction_test(phi, inner_bcl_theta(0), basis_for(HARDY2, 0, 2), m_max=3)

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

    def test_seeded_sweep(self, monkeypatch):
        phis = [random_contractive_symbol(np.random.default_rng(seed), HARDY2, 2, 2, 5) for seed in range(10)]
        # the symbols and their slices are certified by their records
        _take_no_norm(monkeypatch)
        for phi in phis:
            rep = slice_purity_consistency(phi, HARDY2, 5)
            assert rep.consistent


class TestRandomSymbolGenerator:
    @pytest.mark.parametrize("domain", (HARDY2, DIRICHLET2), ids=_geometry)
    def test_contractivity_bounded(self, domain):
        rng = np.random.default_rng(9)
        for _ in range(5):
            phi = random_contractive_symbol(rng, domain, 2, 2, 5)
            rep = multiplier_purity_verdict(phi, domain, 5)
            assert rep.contractivity.bound <= 1.0 + 1e-10

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
