"""Transfer functions of unitary colligations and isometric-pair symbols.

Hand cases are frozen from direct matrix algebra; the jet is validated
against pointwise transfer evaluation with a geometric tail bound.
"""

import numpy as np
import pytest

from gradedshift import (
    BCLTriple,
    CertificationError,
    Colligation,
    InvalidInputError,
    PolydiscDomain,
    bcl_dilation_certify,
    bcl_pair,
    bergman,
    hardy,
    multiplier_purity_verdict,
    scalar_symbol,
    schur_agler_purity,
    symbol_product,
    transfer_eval,
    transfer_jet,
)
from gradedshift import dilation as dilation_module
from gradedshift import operators as operators_module
from gradedshift import purity as purity_module
from gradedshift.dilation import (
    _bcl_certificates,
    _check_bcl_stacks,
    _random_bcl_stacks,
    haar_unitary,
    random_bcl_triple,
)
from gradedshift.operators import opnorm, spectral_radius
from gradedshift.spaces import polydisc_basis

from oracles import bcl_bound_oracle, bcl_certificate_oracle, bcl_triple_oracle


def random_colligation(seed: int, e_dim: int, h_dims) -> Colligation:
    rng = np.random.default_rng(seed)
    h = sum(h_dims)
    u = haar_unitary(rng, e_dim + h)
    return Colligation(
        a=u[:e_dim, :e_dim],
        b=u[:e_dim, e_dim:],
        c=u[e_dim:, :e_dim],
        d=u[e_dim:, e_dim:],
        h_dims=tuple(h_dims),
        e_dim=e_dim,
    )


def eval_symbol(sym, z):
    acc = np.zeros((sym.coeff_dim, sym.coeff_dim), dtype=complex)
    for alpha, coeff in sym.terms.items():
        acc += coeff * np.prod([z[i] ** alpha[i] for i in range(len(z))])
    return acc


class TestTransferEval:
    def test_b_zero_is_constant(self):
        rng = np.random.default_rng(7)
        a = haar_unitary(rng, 2)
        d = haar_unitary(rng, 3)
        c = Colligation(
            a=a, b=np.zeros((2, 3)), c=np.zeros((3, 2)), d=d, h_dims=(2, 1), e_dim=2
        )
        for z in ((0.1, -0.2), (0.5j, 0.3), (0.0, 0.0)):
            assert np.allclose(transfer_eval(c, z), a, atol=1e-14)

    def test_d_zero_is_linear_pencil(self):
        # [[0, I], [I, 0]] is unitary with d = 0, so Phi(z) = E(z) exactly
        c = Colligation(
            a=np.zeros((2, 2)),
            b=np.eye(2),
            c=np.eye(2),
            d=np.zeros((2, 2)),
            h_dims=(1, 1),
            e_dim=2,
        )
        for z in ((0.3, -0.4), (0.1j, 0.7)):
            assert np.allclose(transfer_eval(c, z), np.diag(z), atol=1e-14)
        jet = transfer_jet(c, 2)
        assert np.allclose(jet.terms[(1, 0)], np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(jet.terms[(0, 1)], np.diag([0.0, 1.0]), atol=1e-14)
        # one variable: [[0, 1], [1, 0]] realizes Phi(z) = z, a jet of one term
        shift = Colligation(
            a=np.zeros((1, 1)), b=np.eye(1), c=np.eye(1), d=np.zeros((1, 1)), h_dims=(1,), e_dim=1
        )
        jet = transfer_jet(shift, 3)
        assert set(jet.terms) == {(1,)}
        assert np.array_equal(jet.terms[(1,)], np.eye(1))

    def test_boundary_point_rejected(self):
        c = random_colligation(5, 1, (2,))
        with pytest.raises(InvalidInputError):
            transfer_eval(c, (1.0, 0.0))
        with pytest.raises(InvalidInputError):
            transfer_eval(c, (0.2, 1.2))

    def test_wrong_arity_rejected(self):
        c = random_colligation(5, 1, (2,))
        with pytest.raises(InvalidInputError):
            transfer_eval(c, (0.2, 0.2, 0.2))

    def test_schur_class_contractivity(self):
        rng = np.random.default_rng(11)
        c = random_colligation(13, 2, (2, 3))
        for _ in range(200):
            z = 0.95 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / np.sqrt(2)
            val = transfer_eval(c, z)
            assert np.linalg.norm(val, 2) <= 1.0 + 1e-10


class TestTransferValues:
    # e == h included: there numpy 1.x would read a 2-D c as a stack of vectors
    @pytest.mark.parametrize(
        "seed,e_dim,h_dims", [(13, 2, (2, 3)), (4, 1, (1, 1, 1)), (8, 3, (4,)), (21, 2, (1, 1)), (22, 3, (3,))]
    )
    def test_point_equals_pointwise_algebra_bit_for_bit(self, seed, e_dim, h_dims):
        c = random_colligation(seed, e_dim, h_dims)
        rng = np.random.default_rng(seed)
        k, h = len(h_dims), sum(h_dims)
        points = 0.99 * np.sqrt(rng.uniform(size=(40, k))) * np.exp(2j * np.pi * rng.uniform(size=(40, k)))
        for z in points:
            ez = np.diag(np.repeat(z, h_dims))
            direct = c.a + c.b @ ez @ np.linalg.solve(np.eye(h) - c.d @ ez, c.c)
            assert np.array_equal(transfer_eval(c, z), direct)

    def test_bad_point_refused(self):
        c = random_colligation(5, 1, (2,))
        for bad in (1.0, 0.6 + 0.8j, np.nan, complex(0.0, np.inf)):
            with pytest.raises(InvalidInputError):
                transfer_eval(c, (bad,))
        for wrong_arity in ((), (0.1, 0.2), [(0.1,)]):
            with pytest.raises(InvalidInputError):
                transfer_eval(c, wrong_arity)


class TestTransferJet:
    @pytest.mark.parametrize("seed,e_dim,h_dims", [(1, 1, (2,)), (2, 2, (2, 2)), (3, 2, (1, 1, 1))])
    def test_jet_matches_pointwise_eval(self, seed, e_dim, h_dims):
        c = random_colligation(seed, e_dim, h_dims)
        degree = 12
        jet = transfer_jet(c, degree)
        rng = np.random.default_rng(seed + 100)
        n = len(h_dims)
        for _ in range(5):
            z = (0.2 / n) * np.exp(2j * np.pi * rng.uniform(size=n))
            direct = transfer_eval(c, z)
            approx = eval_symbol(jet, z)
            # Schur-class tail: sum_{k > degree} (sum_i |z_i|)^k <= 0.2^13 / 0.8
            assert np.linalg.norm(direct - approx, 2) <= 1e-8

    def test_jet_degree_guard(self):
        c = random_colligation(4, 1, (2,))
        with pytest.raises(InvalidInputError):
            transfer_jet(c, -1)
        with pytest.raises(InvalidInputError):
            transfer_jet(c, 65)

    def test_non_unitary_colligation_rejected(self):
        with pytest.raises(InvalidInputError, match="unitary"):
            Colligation(
                a=np.array([[0.5]]),
                b=np.zeros((1, 2)),
                c=np.zeros((2, 1)),
                d=np.eye(2),
                h_dims=(2,),
                e_dim=1,
            )

    @pytest.mark.parametrize("entry", (2.0 + 1e-9, 1e200, np.nan))
    def test_large_entry_refused_before_any_product(self, entry):
        # U*U of a 1e200 entry overflows; the refusal comes first, with no warning
        eye = np.eye(2)
        with np.errstate(all="raise"):
            with pytest.raises(InvalidInputError, match="colligation block matrix not unitary"):
                Colligation(a=np.array([[entry]]), b=np.zeros((1, 2)), c=np.zeros((2, 1)), d=eye, h_dims=(2,), e_dim=1)
            with pytest.raises(InvalidInputError, match="U is not unitary"):
                _check_bcl_stacks(np.array([[[entry, 0.0], [0.0, 1.0]]]), eye[None])
            with pytest.raises(InvalidInputError, match="P is not an orthogonal projection"):
                _check_bcl_stacks(eye[None], np.array([[[entry, 0.0], [0.0, 0.0]]]))


class TestBCLPair:
    def test_identity_u_rank_one_p(self):
        t = BCLTriple(e_dim=2, u=np.eye(2), p=np.diag([1.0, 0.0]))
        pp, qq = bcl_pair(t, 1)
        assert np.allclose(pp.terms[(0,)], np.diag([1.0, 0.0]))
        assert np.allclose(pp.terms[(1,)], np.diag([0.0, 1.0]))
        assert np.allclose(qq.terms[(0,)], np.diag([0.0, 1.0]))
        assert np.allclose(qq.terms[(1,)], np.diag([1.0, 0.0]))

    def test_full_projection(self):
        rng = np.random.default_rng(21)
        u = haar_unitary(rng, 3)
        t = BCLTriple(e_dim=3, u=u, p=np.eye(3))
        pp, qq = bcl_pair(t, 1)
        assert np.allclose(pp.terms[(0,)], u.conj().T, atol=1e-14)
        assert (1,) not in pp.terms or np.allclose(pp.terms[(1,)], 0)
        assert np.allclose(qq.terms[(1,)], u, atol=1e-14)

    def test_zero_projection(self):
        rng = np.random.default_rng(22)
        u = haar_unitary(rng, 3)
        t = BCLTriple(e_dim=3, u=u, p=np.zeros((3, 3)))
        pp, qq = bcl_pair(t, 1)
        assert np.allclose(pp.terms[(1,)], u.conj().T, atol=1e-14)
        assert np.allclose(qq.terms[(0,)], u, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_product_is_axis_coordinate(self, seed):
        rng = np.random.default_rng(seed)
        t = random_bcl_triple(rng, e_dim=3)
        pp, qq = bcl_pair(t, 2)
        prod = symbol_product(pp, qq)
        for alpha, coeff in prod.terms.items():
            if alpha == (1, 0):
                assert np.allclose(coeff, np.eye(3), atol=1e-12)
            else:
                assert np.linalg.norm(coeff) <= 1e-12
        prod_rev = symbol_product(qq, pp)
        assert np.allclose(prod_rev.terms[(1, 0)], np.eye(3), atol=1e-12)

    def test_invalid_projection_rejected(self):
        with pytest.raises(InvalidInputError):
            BCLTriple(e_dim=2, u=np.eye(2), p=np.array([[0.5, 0.0], [0.0, 0.0]]))

    def test_non_unitary_u_rejected(self):
        with pytest.raises(InvalidInputError):
            BCLTriple(e_dim=2, u=2 * np.eye(2), p=np.eye(2))


class TestBCLCertify:
    def test_identity_hand_case(self):
        t = BCLTriple(e_dim=2, u=np.eye(2), p=np.diag([1.0, 0.0]))
        cert = bcl_dilation_certify(t, 2, 6)
        assert cert.rho_p == pytest.approx(1.0, abs=1e-12)
        assert cert.rho_q == pytest.approx(1.0, abs=1e-12)
        assert cert.verdict_p == "not_pure"
        assert cert.verdict_q == "not_pure"
        assert cert.passed
        assert cert.product_coeff_error <= 1e-14

    def test_zero_projection_purity(self):
        rng = np.random.default_rng(30)
        u = haar_unitary(rng, 2)
        t = BCLTriple(e_dim=2, u=u, p=np.zeros((2, 2)))
        cert = bcl_dilation_certify(t, 2, 6)
        # P = 0 makes Phi_p = z U*, a pure isometry; Phi_q = U stays unitary.
        assert cert.rho_p <= 1e-12
        assert cert.verdict_p == "pure"
        assert cert.verdict_q == "not_pure"
        assert cert.passed

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sweep_consistent(self, seed):
        rng = np.random.default_rng(1000 + seed)
        t = random_bcl_triple(rng, e_dim=4)
        cert = bcl_dilation_certify(t, 2, 5)
        assert cert.passed
        # the verdicts' Phi(0) radii are rho(P U*) and rho(U P_perp), bit for bit
        assert cert.rho_p == spectral_radius(t.p @ t.u.conj().T)
        assert cert.rho_q == spectral_radius(t.u @ t.p_perp)
        assert cert.max_commutator <= 1e-10
        assert cert.max_isometry_defect <= 1e-10
        assert cert.product_coeff_error <= 1e-12

    def test_three_variable_axis(self):
        rng = np.random.default_rng(44)
        t = random_bcl_triple(rng, e_dim=3, axis=1)
        cert = bcl_dilation_certify(t, 3, 4)
        assert cert.passed


# ranks forced per triple of a stacked sweep; at rank 0, P = 0 exactly, so
# Phi_q is constant there; None draws the rank
SWEEP_RANKS = (0, 0, "e", "e", None, None, None)


def _mixed_sweep(rng, e_dim):
    """A sweep drawn as three stacks: two rank-0, two rank-e, three drawn."""
    stacks = [_random_bcl_stacks(rng, e_dim, 2, 0), _random_bcl_stacks(rng, e_dim, 2, e_dim)]
    stacks.append(_random_bcl_stacks(rng, e_dim, 3))
    return np.concatenate([u for u, _ in stacks]), np.concatenate([p for _, p in stacks])


def _fields(cert):
    """A certificate's residuals, radii and verdicts."""
    return (
        cert.product_coeff_error,
        cert.max_commutator,
        cert.max_isometry_defect,
        cert.rho_p,
        cert.rho_q,
        cert.verdict_p,
        cert.verdict_q,
    )


def _assert_bounds_dominate(cert, dense, factor=1.0):
    """The certificate's bounds against the dense residuals of
    :func:`oracles.bcl_certificate_oracle`, and its other fields equal."""
    assert (cert.product_coeff_error, *_fields(cert)[3:]) == (dense[0], *dense[3:])
    assert cert.max_commutator >= dense[1] * factor - 1e-15
    assert cert.max_isometry_defect >= dense[2] * factor - 1e-15
    if max(dense[1], dense[2]) > cert.tol:
        assert not cert.passed


class TestStackedBCL:
    @pytest.mark.parametrize("degree_cap", (0, 1, 3))
    @pytest.mark.parametrize("n, axis", ((2, 0), (3, 0), (3, 1)))
    @pytest.mark.parametrize("e_dim", (1, 2, 3, 4))
    def test_stack_equals_single_calls_bit_for_bit(self, e_dim, n, axis, degree_cap):
        rngs = [np.random.default_rng(100 + e_dim) for _ in range(3)]
        u, p = _mixed_sweep(rngs[0], e_dim)
        ranks = [e_dim if r == "e" else r for r in SWEEP_RANKS]
        singles = [random_bcl_triple(rngs[1], e_dim, axis, rank) for rank in ranks]
        drawn = [bcl_triple_oracle(rngs[2], e_dim, rank) for rank in ranks]
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert rngs[0].bit_generator.state == rngs[2].bit_generator.state
        basis = polydisc_basis((hardy(),) * (n - 1), degree_cap, e_dim)
        certs = _bcl_certificates(u, p, axis, n, degree_cap, 1e-10, 1e-8)
        assert len(certs) == len(ranks)
        for k, (cert, t, (u_k, p_k)) in enumerate(zip(certs, singles, drawn)):
            for got_u, got_p in ((t.u, t.p), (u_k, p_k)):
                assert got_u.tobytes() == u[k].tobytes()
                assert got_p.tobytes() == p[k].tobytes()
            assert cert == bcl_dilation_certify(t, n, degree_cap)
            bounds = bcl_bound_oracle(u_k, p_k, axis, n - 1, degree_cap)
            assert (cert.max_commutator, cert.max_isometry_defect) == bounds
            _assert_bounds_dominate(cert, bcl_certificate_oracle(u_k, p_k, axis, basis.index_table, basis.norms))
            assert cert.passed
        # rank 0 makes Phi_q constant, so constant symbols share the sweep
        assert [bcl_pair(t, n - 1)[1].degree for t in singles[:2]] == [0, 0]

    @pytest.mark.parametrize("e_dim, count", ((1, 1), (2, 5), (3, 4), (4, 2)))
    def test_generator_leaves_rng_as_single_calls(self, e_dim, count):
        stacked, single = np.random.default_rng(9), np.random.default_rng(9)
        u, p = _random_bcl_stacks(stacked, e_dim, count)
        triples = [random_bcl_triple(single, e_dim) for _ in range(count)]
        assert stacked.bit_generator.state == single.bit_generator.state
        assert u.shape == p.shape == (count, e_dim, e_dim)
        assert u.tobytes() == np.array([t.u for t in triples]).tobytes()
        assert p.tobytes() == np.array([t.p for t in triples]).tobytes()

    # (product error, commutator bound, isometry-defect bound, rho_p, rho_q,
    # verdicts) of the triples of rank 0, e and a drawn rank.  All but the
    # two bounds are those of the dense per-triple path that came before.
    PINNED = {
        (12, 3, 3, 1, 3): [
            (4.440948905049759e-16, 4.512480908001304e-16, 4.779154476266342e-16,
             0.0, 1.0, "pure", "not_pure"),
            (9.992872416041467e-16, 1.9447539893393554e-15, 2.443010323434271e-15,
             1.0000000000000007, 4.086189027754154e-16, "not_pure", "pure"),
            (8.883003129068515e-16, 2.796653438379777e-15, 2.597994231587198e-15,
             0.9397894776570004, 0.3615233924923176, "pure", "pure"),
        ],
        (4, 2, 2, 0, 4): [
            (4.440957164955956e-16, 3.7252915648369863e-16, 4.766576081086439e-16,
             0.0, 1.0, "pure", "not_pure"),
            (2.2611900120438456e-16, 2.2221284626709234e-16, 8.260191844410596e-16,
             1.0000000000000004, 2.465380976574689e-16, "not_pure", "pure"),
            (4.445373847447075e-16, 4.835592977697032e-16, 9.053320333149186e-16,
             0.4421118261872011, 0.4421118261872012, "pure", "pure"),
        ],
    }

    @pytest.mark.parametrize("seed, e_dim, n, axis, degree_cap", sorted(PINNED))
    def test_pinned_certificates(self, seed, e_dim, n, axis, degree_cap):
        rng = np.random.default_rng(seed)
        stacks = [_random_bcl_stacks(rng, e_dim, 1, rank) for rank in (0, e_dim, None)]
        u = np.concatenate([u for u, _ in stacks])
        p = np.concatenate([p for _, p in stacks])
        certs = _bcl_certificates(u, p, axis, n, degree_cap, 1e-10, 1e-8)
        assert [_fields(c) for c in certs] == self.PINNED[(seed, e_dim, n, axis, degree_cap)]

    @pytest.mark.parametrize("n, axis, degree_cap", ((2, 0, 4), (3, 1, 3)))
    def test_bounds_dominate_dense_residuals_off_the_construction(self, n, axis, degree_cap):
        rng = np.random.default_rng(50 + n)
        u, p = _random_bcl_stacks(rng, 3, 4)
        noise = rng.standard_normal((2, 4, 3, 3)) + 1j * rng.standard_normal((2, 4, 3, 3))
        hermitian = noise[1] + noise[1].conj().swapaxes(-1, -2)
        # U off unitary by 1e-3, P off a projection by 1e-2: passed straight
        # to the stacked certificate, past the triple checks
        cases = [(u + 1e-3 * noise[0], p), (u, p + 1e-2 * hermitian)]
        # U scaled by 1 + t: the product error stays <= 1e-12 while the dense
        # isometry defect, about 2t, straddles tol
        scales = 1.0 + np.logspace(-15, -12, 13)
        cases.append((scales[:, None, None] * u[0], np.repeat(p[:1], len(scales), axis=0)))
        tol = 1e-13
        basis = polydisc_basis((hardy(),) * (n - 1), degree_cap, 3)
        assert basis.dim <= 300
        outcomes = []
        for u_s, p_s in cases:
            certs = _bcl_certificates(u_s, p_s, axis, n, degree_cap, tol, 1e-8)
            for cert, u_k, p_k in zip(certs, u_s, p_s):
                bounds = bcl_bound_oracle(u_k, p_k, axis, n - 1, degree_cap)
                assert (cert.max_commutator, cert.max_isometry_defect) == bounds
                dense = bcl_certificate_oracle(u_k, p_k, axis, basis.index_table, basis.norms)
                _assert_bounds_dominate(cert, dense, 1.0 - 1e-12)
                outcomes.append((dense[2] > tol, cert.product_coeff_error <= 1e-12, cert.passed))
        assert not any(passed for _, _, passed in outcomes[:8])
        scaled = outcomes[8:]
        # some pass, and some fail on the defect bound alone
        assert any(passed for _, _, passed in scaled)
        assert any(exceeds and product_ok for exceeds, product_ok, _ in scaled)

    def test_scale_takes_only_e_by_e_norms(self, monkeypatch):
        # n=3, e=2, D=40: the dense certificate took 36 s on a dim-1,722 space
        t = random_bcl_triple(np.random.default_rng(40), 2, rank=1)
        assert polydisc_basis((hardy(),) * 2, 40, 2).dim == 1722
        shapes = []
        real = operators_module._opnorms

        def recording(stack):
            shapes.append(stack.shape[-2:])
            return real(stack)

        for module in (operators_module, purity_module, dilation_module):
            monkeypatch.setattr(module, "_opnorms", recording)
        cert = bcl_dilation_certify(t, 3, 40)
        assert cert.passed
        assert shapes and set(shapes) == {(2, 2)}

    def test_basis_norms_other_than_one_are_refused(self, monkeypatch):
        t = BCLTriple(e_dim=2, u=np.eye(2), p=np.diag([1.0, 0.0]))
        monkeypatch.setattr(dilation_module, "hardy", bergman)
        with pytest.raises(CertificationError, match="exactly 1.0"):
            bcl_dilation_certify(t, 2, 3)

    def test_verdicts_take_no_padded_norm(self):
        # a purity tolerance far below rounding: a padded-norm check would
        # refuse symbols whose norm rounds above 1, the defect bound does not
        rng = np.random.default_rng(61)
        for _ in range(20):
            cert = bcl_dilation_certify(random_bcl_triple(rng, 3), 2, 3, purity_tol=1e-300)
            assert cert.passed and cert.max_isometry_defect <= 1e-10

    @pytest.mark.parametrize("rank", (-1, 4))
    def test_rank_out_of_range_refused_before_drawing(self, rank):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match="out of range"):
            random_bcl_triple(rng, 3, rank=rank)
        with pytest.raises(InvalidInputError, match="out of range"):
            _random_bcl_stacks(rng, 3, 4, rank)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "which, bad",
        (
            ("u", 2 * np.eye(2)),
            ("p", np.diag([0.5, 0.0])),
            ("p", np.array([[1.0, 1.0], [0.0, 0.0]])),  # idempotent, not self-adjoint
        ),
    )
    def test_stack_refusal_matches_triple(self, which, bad):
        u, p = _random_bcl_stacks(np.random.default_rng(5), 2, 3)
        stacks = {"u": u, "p": p}
        stacks[which][1] = bad
        with pytest.raises(InvalidInputError) as stacked:
            _check_bcl_stacks(u, p)
        with pytest.raises(InvalidInputError) as single:
            BCLTriple(e_dim=2, u=u[1], p=p[1])
        assert str(stacked.value) == str(single.value)


class TestSchurAglerPurity:
    def test_constant_unitary_not_pure(self):
        rng = np.random.default_rng(2)
        a = haar_unitary(rng, 2)
        d = haar_unitary(rng, 2)
        c = Colligation(
            a=a, b=np.zeros((2, 2)), c=np.zeros((2, 2)), d=d, h_dims=(1, 1), e_dim=2
        )
        rep = schur_agler_purity(c, 5)
        assert rep.verdict == "not_pure"
        assert rep.phi0_rho == spectral_radius(a) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_sweep_never_inconsistent(self, seed):
        c = random_colligation(600 + seed, 2, (2, 2))
        rep = schur_agler_purity(c, 5)
        assert rep.verdict in ("pure", "not_pure")
        assert rep.phi0_rho == spectral_radius(c.a)

    # A jet is certified on V_D itself.  Its padded truncation V_2D would be
    # past the Hardy series cap for n=1 at D >= 33 and past MAX_DIM for n=2
    # at D=46 (dim 4,371, against 1,128 for V_46).
    @pytest.mark.parametrize("n_vars, degree_cap", [(1, d) for d in range(33, 65)] + [(2, 46)])
    def test_jet_verdict_at_large_degree(self, n_vars, degree_cap):
        tol = 1e-8
        h_dims = (1,) * n_vars
        rng = np.random.default_rng(degree_cap)
        unitary_a = Colligation(
            a=haar_unitary(rng, 1),
            b=np.zeros((1, n_vars)),
            c=np.zeros((n_vars, 1)),
            d=haar_unitary(rng, n_vars),
            h_dims=h_dims,
            e_dim=1,
        )
        verdicts = []
        for c in (random_colligation(700 + degree_cap, 1, h_dims), unitary_a):
            rep = schur_agler_purity(c, degree_cap, tol)
            assert rep.phi0_rho == spectral_radius(c.a)
            assert rep.verdict == ("pure" if rep.phi0_rho < 1.0 - tol else "not_pure")
            assert rep.contractivity is None
            verdicts.append(rep.verdict)
        assert verdicts == ["pure", "not_pure"]

    def test_jet_takes_no_norm(self, monkeypatch):
        def refuse(stack):
            raise AssertionError("a norm was taken")

        monkeypatch.setattr(purity_module, "_opnorms", refuse)
        monkeypatch.setattr(purity_module, "opnorm", refuse)
        rep = schur_agler_purity(random_colligation(7, 2, (2, 2)), 5)
        assert rep.contractivity is None
        # a checked verdict does reach the patched norm
        with pytest.raises(AssertionError, match="a norm was taken"):
            multiplier_purity_verdict(scalar_symbol(1, {(1,): 0.5}), PolydiscDomain((hardy(),)), 4)


class TestRandomGenerators:
    def test_haar_unitary_is_unitary_and_deterministic(self):
        u1 = haar_unitary(np.random.default_rng(5), 6)
        u2 = haar_unitary(np.random.default_rng(5), 6)
        np.testing.assert_array_equal(u1, u2)
        assert np.linalg.norm(u1.conj().T @ u1 - np.eye(6), 2) <= 1e-12

    def test_random_bcl_triple_valid(self):
        rng = np.random.default_rng(8)
        t = random_bcl_triple(rng, e_dim=5, rank=2)
        assert np.linalg.norm(t.u.conj().T @ t.u - np.eye(5), 2) <= 1e-12
        assert np.linalg.norm(t.p @ t.p - t.p, 2) <= 1e-12
        assert np.linalg.norm(t.p - t.p.conj().T, 2) <= 1e-12
        assert int(round(np.trace(t.p).real)) == 2
