"""Shift matrices, multipliers, Cauchy duals, projections, wandering data.

Closed-form expectations: shift weights are norm ratios (Bergman
sqrt((m+1)/(m+2)), Dirichlet sqrt((m+2)/(m+1))), duals swap the two, the
Hardy shift is isometric.  Structural claims (kernel equality, involution,
the union-projection identity, witness minimality) are checked against
brute-force oracles computed directly from the matrices.
"""

import math

import numpy as np
import pytest

from gradedshift import (
    BallKernelSpec,
    CertificationError,
    InvalidInputError,
    KernelSpec1D,
    NotLeftInvertibleError,
    SubspaceFrame,
    ball_basis,
    bergman,
    cauchy_dual,
    dirichlet,
    drury_arveson,
    hardy,
    hm_ball,
    multiplier_matrix,
    orbit_frame,
    polydisc_basis,
    range_projection,
    scalar_symbol,
    shift_matrix,
    shift_tuple,
    union_projection,
    wandering_subspace,
    wandering_witness,
    weighted_bergman,
)
from gradedshift.operators import (
    OperatorMatrix,
    _apply_powers,
    _dual_orbit_scalars,
    _shift_witness,
    opnorm,
    spectral_radius,
)
from gradedshift.spaces import MultiplierSymbol, ball_basis, enumerate_indices

from oracles import (
    brute_force_feasible,
    dense_dual_and_projection,
    dense_witness_route,
    frames_match,
    null_space_frame,
    principal_angles,
    wandering_span_dimension,
    witness_index_oracle,
)


def one_var_basis(spec, cap, coeff_dim=1):
    return polydisc_basis((spec,), cap, coeff_dim)


class TestOpnorm:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_entry_raises(self, bad):
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(FloatingPointError):
            opnorm(a)

    def test_finite_and_empty(self):
        assert opnorm(np.diag([0.5, -2.0])) == pytest.approx(2.0, abs=1e-15)
        assert opnorm(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (8, 8), (40, 40), (3, 7), (9, 2)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_numpy_two_norm_exactly(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape)
        if dtype is complex:
            a = a + 1j * rng.standard_normal(shape)
        # opnorm reads every input as complex, real ones included
        assert opnorm(a) == float(np.linalg.norm(np.asarray(a, dtype=complex), 2))

    def test_stack_is_largest_member_norm(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        assert opnorm(stack) == max(opnorm(m) for m in stack)
        stack[2, 0, 1] = np.nan
        with pytest.raises(FloatingPointError):
            opnorm(stack)


class TestShiftMatrix:
    def test_hardy_truncated_unilateral(self):
        basis = one_var_basis(hardy(), 3)
        s = shift_matrix(basis, 0)
        expected = np.zeros((4, 4))
        for m in range(3):
            expected[m + 1, m] = 1.0
        np.testing.assert_allclose(s.data, expected, atol=0)
        assert s.exactness_degree == 2
        assert s.exact_column_count() == basis.dim_upto(2) == 3

    def test_bergman_weights(self):
        basis = one_var_basis(bergman(), 6)
        s = shift_matrix(basis, 0)
        for m in range(6):
            assert s.data[m + 1, m] == pytest.approx(
                math.sqrt((m + 1) / (m + 2)), rel=1e-15
            )

    def test_dirichlet_weights(self):
        basis = one_var_basis(dirichlet(), 6)
        s = shift_matrix(basis, 0)
        for m in range(6):
            assert s.data[m + 1, m] == pytest.approx(
                math.sqrt((m + 2) / (m + 1)), rel=1e-15
            )

class TestMultiplierMatrix:
    def test_identity_symbol(self):
        basis = polydisc_basis((hardy(), hardy()), 3, coeff_dim=2)
        phi = MultiplierSymbol(2, 2, {(0, 0): np.eye(2, dtype=complex)})
        m = multiplier_matrix(basis, phi)
        np.testing.assert_allclose(m.data, np.eye(basis.dim), atol=0)
        assert m.exactness_degree == basis.degree_cap

    def test_single_variable_shift_equivalence(self):
        basis = one_var_basis(hardy(), 2)
        phi = scalar_symbol(1, {(1,): 1.0})
        m = multiplier_matrix(basis, phi)
        np.testing.assert_allclose(m.data, shift_matrix(basis, 0).data, atol=0)
        assert m.exactness_degree == 1

    def test_z1z2_coefficient_bookkeeping(self):
        basis = polydisc_basis((hardy(), hardy()), 2)
        phi = scalar_symbol(2, {(1, 1): 1.0})
        m = multiplier_matrix(basis, phi)
        src = basis.position((0, 0))
        dst = basis.position((1, 1))
        col = m.data[:, src]
        assert col[dst] == pytest.approx(1.0)
        assert np.linalg.norm(col) == pytest.approx(1.0)
        for alpha in basis.index_table:
            if sum(alpha) >= 1:
                assert np.linalg.norm(m.data[:, basis.position(alpha)]) == 0.0

    def test_adjoint_is_exact_restriction(self):
        # KEY CONTRACT: the adjoint of the truncated multiplier equals the
        # true adjoint restricted to V_D.  Oracle: build the multiplier on a
        # padded basis (degree D + deg Phi, where the forward matrix is exact
        # on all of V_D), take its adjoint there, and cut out the V_D corner.
        # The corner must match bit for bit.
        rng = np.random.default_rng(3)
        d_cap, deg = 4, 2
        terms = {
            (1, 1): rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            (0, 2): rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            (0, 0): rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        }
        phi = MultiplierSymbol(2, 2, terms)
        for make_basis in (
            lambda cap: polydisc_basis((hardy(), bergman()), cap, coeff_dim=2),
            lambda cap: ball_basis(drury_arveson(2), cap, coeff_dim=2),
        ):
            basis, padded = make_basis(d_cap), make_basis(d_cap + deg)
            small = multiplier_matrix(basis, phi)
            big = multiplier_matrix(padded, phi)
            ncut = basis.dim
            true_adjoint_corner = big.data.conj().T[:ncut, :ncut]
            np.testing.assert_allclose(small.data.conj().T, true_adjoint_corner, rtol=0, atol=0)


class TestCauchyDual:
    def test_hardy_self_dual(self):
        basis = one_var_basis(hardy(), 5)
        s = shift_matrix(basis, 0)
        d = cauchy_dual(s)
        np.testing.assert_allclose(d.data, s.data, atol=1e-14)

    def test_bergman_dual_weights(self):
        basis = one_var_basis(bergman(), 6)
        d = cauchy_dual(shift_matrix(basis, 0))
        for m in range(5):
            assert abs(d.data[m + 1, m]) == pytest.approx(
                math.sqrt((m + 2) / (m + 1)), rel=1e-12
            )

    def test_dirichlet_dual_weights(self):
        basis = one_var_basis(dirichlet(), 6)
        d = cauchy_dual(shift_matrix(basis, 0))
        for m in range(5):
            assert abs(d.data[m + 1, m]) == pytest.approx(
                math.sqrt((m + 1) / (m + 2)), rel=1e-12
            )

    def test_involution(self):
        for spec in (bergman(), dirichlet(), weighted_bergman(-0.5)):
            basis = one_var_basis(spec, 6)
            s = shift_matrix(basis, 0)
            dd = cauchy_dual(cauchy_dual(s))
            ncols = s.exact_column_count()
            assert opnorm(dd.data[:, :ncols] - s.data[:, :ncols]) <= 1e-10

    def test_kernel_of_adjoint_shared(self):
        for spec in (bergman(), dirichlet()):
            basis = one_var_basis(spec, 6, coeff_dim=2)
            s = shift_matrix(basis, 0)
            d = cauchy_dual(s)
            k1 = wandering_subspace([s])
            k2 = wandering_subspace([d])
            assert k1.dim == k2.dim
            assert np.max(principal_angles(k1, k2)) <= 1e-10

    def test_not_left_invertible(self):
        basis = one_var_basis(hardy(), 4)
        zero = multiplier_matrix(basis, scalar_symbol(1, {(1,): 0.0}))
        # z^5 raises every monomial of V_4 out of the truncation
        beyond = multiplier_matrix(basis, scalar_symbol(1, {(5,): 1.0}))
        # four exact columns in a 2-dim codomain: full row rank, yet a kernel
        narrow = one_var_basis(hardy(), 1)
        wide = OperatorMatrix(np.arange(1.0, 9.0).reshape(2, 4), one_var_basis(hardy(), 3), narrow, 3)
        for inverse in (cauchy_dual, range_projection):
            with pytest.raises(NotLeftInvertibleError, match="sigma_min"):
                inverse(zero)
            with pytest.raises(NotLeftInvertibleError, match="no exact columns"):
                inverse(beyond)
            with pytest.raises(NotLeftInvertibleError, match="sigma_min=0"):
                inverse(wide)


# every space family, as bidiscs and as balls in C^2, at D = 5
CUSTOM_1D = KernelSpec1D("custom", custom_coeffs=tuple(1.0 / (m + 1) ** 2 for m in range(20)))
CUSTOM_BALL = BallKernelSpec(
    n=2, family="unitarily_invariant_custom", a_coeffs=tuple(1.0 / (j + 1) for j in range(10))
)
GATE_BASES = {
    "hardy": lambda c: polydisc_basis((hardy(),) * 2, 5, c),
    "bergman": lambda c: polydisc_basis((bergman(),) * 2, 5, c),
    "dirichlet": lambda c: polydisc_basis((dirichlet(),) * 2, 5, c),
    "weighted-bergman-(-0.5)": lambda c: polydisc_basis((weighted_bergman(-0.5),) * 2, 5, c),
    "weighted-bergman-1.5": lambda c: polydisc_basis((weighted_bergman(1.5),) * 2, 5, c),
    "custom-1d": lambda c: polydisc_basis((CUSTOM_1D,) * 2, 5, c),
    "drury-arveson": lambda c: ball_basis(drury_arveson(2), 5, c),
    "h2-ball": lambda c: ball_basis(hm_ball(2, 2), 5, c),
    "h3-ball": lambda c: ball_basis(hm_ball(2, 3), 5, c),
    "custom-ball": lambda c: ball_basis(CUSTOM_BALL, 5, c),
}


def shift_tuples(basis):
    """The shift tuple, its Cauchy duals and the duals of those."""
    x = shift_tuple(basis)
    xd = [cauchy_dual(t) for t in x]
    return x, xd, [cauchy_dual(t) for t in xd]


class TestMonomialClosedForms:
    @pytest.mark.parametrize("coeff_dim", (1, 2))
    @pytest.mark.parametrize("space", sorted(GATE_BASES))
    def test_match_dense_oracles(self, space, coeff_dim):
        basis = GATE_BASES[space](coeff_dim)
        for tup in shift_tuples(basis):
            for t in tup:
                dual, proj = dense_dual_and_projection(t.data, t.exact_column_count())
                assert np.max(np.abs(cauchy_dual(t).data - dual)) <= 1e-15
                assert np.max(np.abs(range_projection(t).data - proj)) <= 1e-15
            w = wandering_subspace(tup)
            assert w.dim == coeff_dim
            assert all(not np.any(t.data.conj().T @ w.columns) for t in tup)
            # the SVD null space itself is only good to about 2.3e-15 here
            dense = null_space_frame(np.vstack([t.data.conj().T for t in tup]))
            assert frames_match(w, dense, 1e-14)

    @pytest.mark.parametrize("beta, c", [((0, 0), 0.5j), ((1, 0), 0.6 - 0.8j), ((1, 2), -2.0 + 1j)])
    def test_complex_monomial_multiplier(self, beta, c):
        # c z^beta is monomial; its dual has 1/conj(c w), not 1/(c w)
        basis = GATE_BASES["bergman"](2)
        t = multiplier_matrix(basis, MultiplierSymbol(2, 2, {beta: c * np.eye(2)}))
        dual, proj = dense_dual_and_projection(t.data, t.exact_column_count())
        assert np.max(np.abs(cauchy_dual(t).data - dual)) <= 1e-15
        assert np.max(np.abs(range_projection(t).data - proj)) <= 1e-15

    def test_no_dense_linear_algebra(self, monkeypatch):
        bases = [GATE_BASES["bergman"](2), GATE_BASES["drury-arveson"](2), GATE_BASES["custom-1d"](1)]

        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra on a shift tuple")

        for name in ("svd", "qr", "eig", "eigvals", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for basis in bases:
            for tup in shift_tuples(basis):
                assert wandering_subspace(tup).dim == basis.coeff_dim
                for t in tup:
                    range_projection(t)

    def test_non_monomial_refused(self):
        # 1 + z/2 is bounded below by 1/2 but sends e_0 to two monomials
        basis = one_var_basis(hardy(), 4)
        m = multiplier_matrix(basis, scalar_symbol(1, {(0,): 1.0, (1,): 0.5}))
        assert np.linalg.svd(m.data[:, : m.exact_column_count()], compute_uv=False)[-1] > 0.4
        for call in (cauchy_dual, range_projection, lambda t: wandering_subspace([shift_matrix(basis, 0), t])):
            with pytest.raises(InvalidInputError, match="not monomial") as refusal:
                call(m)
            assert refusal.type is InvalidInputError


class TestRangeProjection:
    def test_identity(self):
        basis = one_var_basis(hardy(), 3)
        phi = scalar_symbol(1, {(0,): 1.0})
        p = range_projection(multiplier_matrix(basis, phi))
        np.testing.assert_allclose(p.data, np.eye(4), atol=1e-14)

    def test_hardy_shift_projection(self):
        basis = one_var_basis(hardy(), 3)
        p = range_projection(shift_matrix(basis, 0))
        np.testing.assert_allclose(p.data, np.diag([0.0, 1.0, 1.0, 1.0]), atol=1e-14)

    def test_idempotent_self_adjoint(self):
        for spec in (bergman(), dirichlet()):
            basis = polydisc_basis((spec, spec), 4)
            for axis in range(2):
                p = range_projection(shift_matrix(basis, axis)).data
                assert opnorm(p @ p - p) <= 1e-11
                assert opnorm(p - p.conj().T) <= 1e-11

    def test_projection_shared_with_dual(self):
        basis = one_var_basis(bergman(), 6)
        s = shift_matrix(basis, 0)
        p1 = range_projection(s).data
        p2 = range_projection(cauchy_dual(s)).data
        assert opnorm(p1 - p2) <= 1e-10


class TestWanderingSubspace:
    def test_hardy_pair_constants(self):
        # the constants, on the bidisc and on the Drury-Arveson ball
        for basis in (
            polydisc_basis((hardy(), hardy()), 4, coeff_dim=2),
            ball_basis(drury_arveson(2), 4, coeff_dim=2),
        ):
            w = wandering_subspace(shift_tuple(basis))
            assert w.dim == 2
            coords = np.abs(w.columns)
            assert np.max(coords[basis.dim_upto(0) :, :]) <= 1e-12

    def test_single_shift_coeff_dim(self):
        basis = one_var_basis(hardy(), 4, coeff_dim=2)
        w = wandering_subspace([shift_matrix(basis, 0)])
        assert w.dim == 2

    def test_dual_tuple_same_wandering(self):
        basis = polydisc_basis((bergman(), dirichlet()), 4)
        x = shift_tuple(basis)
        xd = [cauchy_dual(t) for t in x]
        assert frames_match(wandering_subspace(x), wandering_subspace(xd), 1e-10)


class TestUnionProjection:
    def test_single(self):
        p = np.diag([1.0, 0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(union_projection([p]), p, atol=1e-14)

    def test_complementary_diagonals(self):
        p1 = np.diag([1.0, 0.0]).astype(complex)
        p2 = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(union_projection([p1, p2]), np.eye(2), atol=1e-14)

    def test_against_orthonormalized_union_oracle(self):
        rng = np.random.default_rng(7)
        dim = 12
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(gauss)
        pats = [rng.integers(0, 2, dim).astype(float) for _ in range(3)]
        ps = [q @ np.diag(pat) @ q.conj().T for pat in pats]
        got = union_projection(ps)
        cols = np.hstack([q[:, pat.astype(bool)] for pat in pats])
        if cols.shape[1]:
            frame = SubspaceFrame.from_columns(cols)
            want = frame.projection()
        else:
            want = np.zeros((dim, dim), dtype=complex)
        assert opnorm(got - want) <= 1e-10

    def test_noncommuting_rejected(self):
        p1 = np.diag([1.0, 0.0]).astype(complex)
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        p2 = v @ np.diag([1.0, 0.0]) @ v.conj().T
        with pytest.raises(InvalidInputError):
            union_projection([p1, p2])

    def test_wandering_complement_identity(self):
        # Union of the shift range projections equals I - P_W for doubly
        # commuting product tuples.
        for specs in ((hardy(), hardy()), (bergman(), bergman()), (dirichlet(), bergman())):
            basis = polydisc_basis(specs, 4)
            x = shift_tuple(basis)
            union = union_projection([range_projection(t).data for t in x])
            w = wandering_subspace(x)
            complement = np.eye(basis.dim) - w.projection()
            assert opnorm(union - complement) <= 1e-10


class TestWanderingSpanProperty:
    @pytest.mark.parametrize(
        "specs", [(hardy(), hardy()), (bergman(), bergman()), (dirichlet(), dirichlet())]
    )
    def test_full_span_for_tuple_and_dual(self, specs):
        basis = polydisc_basis(specs, 4, coeff_dim=2)
        x = shift_tuple(basis)
        w = wandering_subspace(x)
        assert wandering_span_dimension(x, w, basis.degree_cap) == basis.dim
        xd = [cauchy_dual(t) for t in x]
        assert wandering_span_dimension(xd, w, basis.degree_cap) == basis.dim


class TestSpectralRadius:
    @pytest.mark.parametrize(
        "build, want",
        [
            (lambda: np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0),
            (lambda: np.diag([0.5, -0.9j, 0.25]), 0.9),
            (lambda: np.array([[0.6, -0.8], [0.8, 0.6]]), 1.0),
            (lambda: np.zeros((0, 0)), 0.0),
            (
                lambda: multiplier_matrix(
                    polydisc_basis((bergman(),), 4), scalar_symbol(1, {(0,): 0.6})
                ),
                0.6,
            ),
        ],
        ids=["nilpotent", "diagonal", "rotation", "empty", "constant-multiplier"],
    )
    def test_hand_spectra(self, build, want):
        assert spectral_radius(build()) == pytest.approx(want, abs=1e-14)


class TestFrames:
    # cos(1e-13) rounds to 1.0, so arccos alone would return 0 there
    @pytest.mark.parametrize("t", [0.3, 1e-13])
    def test_angle_between_lines(self, t):
        line = SubspaceFrame.from_columns(np.array([[1.0], [0.0], [0.0]]))
        tilted = SubspaceFrame.from_columns(np.array([[math.cos(t)], [math.sin(t)], [0.0]]))
        np.testing.assert_allclose(principal_angles(line, tilted), [t], rtol=0, atol=1e-15)
        assert not frames_match(line, tilted, t - 1e-15)
        assert frames_match(line, tilted, t + 1e-15)

    def test_small_angle_keeps_its_own_sine(self):
        # Each angle takes the sine or cosine of that same angle: pairing a
        # cosine with another angle's sine returns [1.2, 0.0] here.
        angles = np.array([1.2, 1e-9])
        planes = SubspaceFrame(np.eye(4)[:, :2])
        turned = SubspaceFrame(np.vstack([np.diag(np.cos(angles)), np.diag(np.sin(angles))]))
        for pair in ((planes, turned), (turned, planes)):
            np.testing.assert_allclose(principal_angles(*pair), angles, rtol=0, atol=1e-15)

    def test_frames_match_span_not_columns(self):
        plane = SubspaceFrame.from_columns(np.eye(3)[:, :2])
        turned = SubspaceFrame.from_columns(np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]))
        assert frames_match(plane, turned, 1e-12)
        assert not frames_match(plane, SubspaceFrame.from_columns(np.eye(3)[:, :1]))
        assert frames_match(SubspaceFrame.empty(3), SubspaceFrame.empty(3))
        assert principal_angles(SubspaceFrame.empty(3), plane).size == 0

    def test_null_space_frame(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1e-12, 0.0]])
        frame = null_space_frame(a)
        assert frame.dim == 2
        assert frames_match(frame, SubspaceFrame.from_columns(np.eye(3)[:, 1:]), 1e-12)
        # a zero threshold keeps the tiny singular value out of the kernel
        assert null_space_frame(a, tol=0.0).dim == 1
        # no rows: the whole space
        assert null_space_frame(np.zeros((0, 4))).dim == 4


class TestOrbitFrame:
    @pytest.mark.parametrize("n, budget", [(1, 0), (2, 4), (3, 3)])
    def test_powers_apply_the_last_axis_first(self, n, budget):
        # X^m = X_0^m_0 ... X_(n-1)^m_(n-1), here on a tuple that neither
        # commutes nor is nilpotent, past the basis's degree cap of 1
        rng = np.random.default_rng(n)
        basis = polydisc_basis((hardy(),) * n, 1)
        x = [
            OperatorMatrix(rng.standard_normal((basis.dim,) * 2) + 0j, basis, basis, 1)
            for _ in range(n)
        ]
        seed = rng.standard_normal((basis.dim, 2)) + 1j * rng.standard_normal((basis.dim, 2))
        powers = _apply_powers(x, seed, budget)
        assert list(powers) == list(enumerate_indices(n, budget))
        for m, got in powers.items():
            want = seed
            for i in reversed(range(n)):
                for _ in range(m[i]):
                    want = x[i].data @ want
            assert np.array_equal(got, want)

    def test_invariance_by_construction(self):
        rng = np.random.default_rng(0)
        basis = polydisc_basis((hardy(), bergman()), 5)
        x = shift_tuple(basis)
        seed = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        seed[: basis.dim_upto(0)] = 0.0
        frame = orbit_frame(x, seed, basis.degree_cap)
        q = frame.columns
        for t in x:
            leak = opnorm(t.data @ q - q @ (q.conj().T @ t.data @ q))
            assert leak <= 1e-10

    def test_z1_orbit_on_drury_arveson(self):
        # the orbit of z_1 is z_1 C[z]: the monomials with alpha_1 >= 1
        basis = ball_basis(drury_arveson(2), 5, coeff_dim=1)
        x = shift_tuple(basis)
        seed = np.zeros(basis.dim, dtype=complex)
        seed[basis.coord_index((1, 0), 0)] = 1.0
        frame = orbit_frame(x, seed, basis.degree_cap)
        cols = [
            basis.coord_index(alpha, 0)
            for alpha in basis.index_table
            if alpha[0] >= 1
        ]
        assert frame.dim == len(cols) == math.comb(4 + 2, 2)
        want = SubspaceFrame.from_columns(np.eye(basis.dim)[:, cols])
        assert frames_match(frame, want, 1e-10)

    def test_a_scaled_seed_has_the_same_frame(self):
        # ranks are relative to the largest singular value, so a seed of
        # norm 1e-12 spans the 10 monomials z_1 z^alpha, |alpha| <= 3, too
        basis = polydisc_basis((hardy(),) * 2, 4)
        seed = np.zeros(basis.dim, dtype=complex)
        seed[basis.coord_index((1, 0), 0)] = 1.0
        x = shift_tuple(basis)
        frame, scaled = (orbit_frame(x, t * seed, 4) for t in (1.0, 1e-12))
        assert frame.dim == scaled.dim == 10
        assert frames_match(frame, scaled, 1e-12)


class TestWanderingWitness:
    def test_z1z2_block_witness(self):
        d_cap = 5
        basis = polydisc_basis((hardy(), hardy()), d_cap)
        x = shift_tuple(basis)
        pi = multiplier_matrix(basis, scalar_symbol(2, {(1, 1): 1.0}))
        m_frame = SubspaceFrame.from_columns(pi.data[:, : basis.dim_upto(d_cap - 2)])
        res = wandering_witness(x, m_frame, budget=d_cap)
        assert res.found and res.certificate_ok
        assert res.m_tilde == (1, 1)
        assert max(res.residuals) <= 1e-8
        # Independent oracle: recursive coordinate minimization over the
        # brute-force feasible set of the dual orbit.
        duals = [cauchy_dual(t).data for t in x]
        w = wandering_subspace(x)
        p_m = m_frame.projection()
        feas = brute_force_feasible(duals, p_m, w.columns[:, 0], d_cap, res.tol)
        feas = [m for m in feas if sum(m) > 0]
        assert witness_index_oracle(feas) == res.m_tilde

    def test_witness_matches_oracle_on_random_orbits(self):
        d_cap = 5
        basis = polydisc_basis((hardy(), hardy()), d_cap)
        x = shift_tuple(basis)
        duals = [cauchy_dual(t).data for t in x]
        w = wandering_subspace(x)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            vec[: basis.dim_upto(0)] = 0.0
            m_frame = orbit_frame(x, vec, d_cap)
            if m_frame.dim >= basis.dim:
                continue
            res = wandering_witness(x, m_frame, budget=d_cap)
            assert res.found and res.certificate_ok
            p_m = m_frame.projection()
            feas = brute_force_feasible(
                duals, p_m, w.columns[:, res.h_index], d_cap, res.tol
            )
            feas = [m for m in feas if sum(m) > 0]
            assert witness_index_oracle(feas) == res.m_tilde

    def test_h_index_names_the_coefficient_direction(self):
        # W is the constants e_0 (x) xi_j in the order j = 0, 1, so M =
        # orbit(z_1 (x) xi_1) is first met by the dual orbit of xi_1
        basis = polydisc_basis((hardy(), hardy()), 5, coeff_dim=2)
        x = shift_tuple(basis)
        np.testing.assert_array_equal(wandering_subspace(x).columns, np.eye(basis.dim)[:, :2])
        seed = np.zeros(basis.dim, dtype=complex)
        seed[basis.coord_index((1, 0), 1)] = 1.0
        res = wandering_witness(x, orbit_frame(x, seed, 5), budget=5)
        assert res.found and res.certificate_ok
        assert (res.h_index, res.m_tilde) == (1, (1, 0))

    def test_whole_space_rejected(self):
        basis = polydisc_basis((hardy(), hardy()), 3)
        x = shift_tuple(basis)
        full = SubspaceFrame.from_columns(np.eye(basis.dim, dtype=complex))
        with pytest.raises(InvalidInputError):
            wandering_witness(x, full, budget=3)

    def test_zero_subspace_rejected(self):
        basis = polydisc_basis((hardy(), hardy()), 3)
        x = shift_tuple(basis)
        with pytest.raises(InvalidInputError):
            wandering_witness(x, SubspaceFrame.empty(basis.dim), budget=3)


WITNESS_BASES = {
    "hardy-bidisc": lambda c: polydisc_basis((hardy(), hardy()), 8, c),
    "bergman-bidisc": lambda c: polydisc_basis((bergman(), bergman()), 8, c),
    "dirichlet-tridisc": lambda c: polydisc_basis((dirichlet(),) * 3, 5, c),
    "da-b3": lambda c: ball_basis(drury_arveson(3), 5, c),
    "h3-b3": lambda c: ball_basis(hm_ball(3, 3), 5, c),
}


class TestShiftWitness:
    """The witness route off the shift maps (a mask for one term, an SVD
    frame otherwise) against the dense route with its leak and overlap
    norms (tests/oracles.py)."""

    @staticmethod
    def theta(basis, terms, rank_one, seed):
        # terms at distinct multi-indices of degree 1 or 2; a rank-one
        # coefficient has range xi_(c-1), which only the last h meets
        rng = np.random.default_rng(seed)
        support = [alpha for alpha in basis.index_table if 1 <= sum(alpha) <= 2]
        c = basis.coeff_dim
        coeffs = {}
        for k in rng.choice(len(support), size=terms, replace=False):
            mat = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
            if rank_one:
                mat[:-1] = 0.0
            coeffs[support[k]] = mat
        return MultiplierSymbol(basis.n, c, coeffs)

    @pytest.mark.parametrize("rank_one", (False, True))
    @pytest.mark.parametrize("terms", (1, 2))
    @pytest.mark.parametrize("c", (1, 2))
    @pytest.mark.parametrize("space", sorted(WITNESS_BASES))
    def test_agrees_with_the_dense_route(self, space, c, terms, rank_one):
        basis = WITNESS_BASES[space](c)
        theta = self.theta(basis, terms, rank_one, seed=7 * c + terms)
        got = _shift_witness(basis, theta)
        want = dense_witness_route(basis, theta.terms, got.tol)
        assert want["leak"] <= got.tol and want["overlap"] <= got.tol
        assert got.found and got.budget == basis.degree_cap
        assert (got.found, got.h_index, got.m_tilde, got.certificate_ok) == (
            want["found"],
            want["h_index"],
            want["m_tilde"],
            want["certificate_ok"],
        )
        assert got.h_index == (c - 1 if rank_one else 0)
        # the dense frame's round-off grows with its condition number; the
        # mask route's residuals are exact zeros
        atol = 1e-15 * want["cond"]
        np.testing.assert_allclose(got.residuals, want["residuals"], rtol=0, atol=atol)

    @pytest.mark.parametrize("space", sorted(WITNESS_BASES))
    def test_dual_orbit_scalars_are_apply_powers_bit_for_bit(self, space):
        basis = WITNESS_BASES[space](2)
        duals = [cauchy_dual(t) for t in shift_tuple(basis)]
        orbit = _apply_powers(duals, np.eye(basis.dim, dtype=complex)[:, :1], basis.degree_cap)
        scalars = _dual_orbit_scalars(basis)
        for k, m in enumerate(basis.index_table):
            want = np.zeros(basis.dim, dtype=complex)
            want[k * basis.coeff_dim] = scalars[k]
            assert np.array_equal(orbit[m][:, 0], want), m

    def test_a_mask_that_leaks_is_refused(self, monkeypatch):
        # e_2 sends (1, 0) to (0, 2): the map keeps the grading, so it is
        # certified, but the range of z_1 is not closed under it
        basis = polydisc_basis((hardy(), hardy()), 3)
        successors = basis.successors.copy()
        successors[1, basis.position((1, 0))] = basis.position((0, 2))
        successors.flags.writeable = False
        monkeypatch.setitem(vars(basis), "successors", successors)
        monkeypatch.setitem(vars(basis), "_shift_maps", {})
        with pytest.raises(CertificationError, match="leaks under shift 1"):
            _shift_witness(basis, scalar_symbol(2, {(1, 0): 1.0}))
