"""Ball-space defect identity and the CNP coefficient identity.

Gamma coefficients are validated against the multinomial theorem (sympy
expansion of (x_1 + ... + x_n)^j); the m = 1 defect identity is rebuilt
directly from the shift matrices as an independent assembly oracle, and the
diagonal power Grams behind both identities are checked bit for bit against
dense products built from the monomial norms alone.
"""

import math
import tracemalloc

import numpy as np
import pytest
import sympy

from gradedshift import (
    BallKernelSpec,
    InvalidInputError,
    NotCnpError,
    ball_basis,
    chen_coeffs,
    chen_identity_residual,
    defect_identity_residual,
    drury_arveson,
    gamma_coeffs,
    hm_ball,
    polydisc_basis,
    shift_tuple,
    hardy,
)
from gradedshift.ball_identities import _fold, _power_grams

from oracles import dense_power_grams

DIRICHLET_BALL = BallKernelSpec(
    n=2, family="unitarily_invariant_custom", a_coeffs=tuple(1.0 / (j + 1) for j in range(10))
)


class TestGammaCoeffs:
    def test_hand_values(self):
        g2 = gamma_coeffs(2, 3)
        assert g2.values[(1, 1)] == 2
        assert g2.values[(2, 0)] == 1
        assert g2.values[(1, 0)] == 1
        g3 = gamma_coeffs(3, 3)
        assert g3.values[(1, 1, 1)] == 6

    def test_multinomial_expansion_oracle(self):
        xs = sympy.symbols("x0 x1 x2")
        for n in (2, 3):
            table = gamma_coeffs(n, 3)
            for j in (1, 2, 3):
                expanded = sympy.expand(sum(xs[:n]) ** j)
                for alpha, gamma in table.values.items():
                    if sum(alpha) != j:
                        continue
                    mono = sympy.prod([xs[i] ** alpha[i] for i in range(n)])
                    assert expanded.coeff(mono.as_poly(xs[:n]).as_expr()) == gamma or (
                        sympy.Poly(expanded, *xs[:n]).coeff_monomial(mono) == gamma
                    )

    def test_overflow_guard(self):
        with pytest.raises(InvalidInputError):
            gamma_coeffs(2, 100)

    def test_shared_table_is_immutable(self):
        table = gamma_coeffs(3, 4)
        assert gamma_coeffs(3, 4) is table
        with pytest.raises(TypeError):
            table.values[(1, 0, 0)] = 5
        with pytest.raises(TypeError):
            del table.values[(1, 0, 0)]
        assert table.values[(1, 0, 0)] == 1



class TestDefectIdentity:
    def test_m1_matches_direct_assembly(self):
        basis = ball_basis(drury_arveson(2), 6, coeff_dim=1)
        res = defect_identity_residual(basis)
        assert res.residual_norm <= 1e-12
        # Independent oracle: I - sum_i M_i M_i* minus the degree-0 projector.
        x = shift_tuple(basis)
        acc = np.eye(basis.dim, dtype=complex)
        for t in x:
            acc -= t.data @ t.data.conj().T
        p0 = np.zeros((basis.dim, basis.dim), dtype=complex)
        p0[: basis.dim_upto(0), : basis.dim_upto(0)] = np.eye(basis.dim_upto(0))
        assert np.linalg.norm(acc - p0, 2) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_residual_small_across_orders(self, m, n):
        basis = ball_basis(hm_ball(n, m), 5, coeff_dim=1)
        res = defect_identity_residual(basis)
        assert res.residual_norm <= 1e-10

    def test_e_blind(self):
        r1 = defect_identity_residual(ball_basis(hm_ball(2, 2), 5, coeff_dim=1))
        r3 = defect_identity_residual(ball_basis(hm_ball(2, 2), 5, coeff_dim=3))
        assert abs(r1.residual_norm - r3.residual_norm) <= 1e-12

    def test_family_mismatch_rejected(self):
        basis = ball_basis(DIRICHLET_BALL, 4, coeff_dim=1)
        with pytest.raises(InvalidInputError):
            defect_identity_residual(basis)

    def test_polydisc_rejected(self):
        basis = polydisc_basis((hardy(), hardy()), 4)
        with pytest.raises(InvalidInputError):
            defect_identity_residual(basis)


class TestChenIdentity:
    def test_drury_arveson_reduces_to_defect(self):
        basis = ball_basis(drury_arveson(2), 5, coeff_dim=1)
        res = chen_identity_residual(basis)
        assert res.residual_norm <= 1e-12

    def test_custom_cnp_ball_kernel(self):
        basis = ball_basis(DIRICHLET_BALL, 4, coeff_dim=1)
        res = chen_identity_residual(basis)
        assert res.residual_norm <= 1e-10

    def test_refuses_non_cnp(self):
        basis = ball_basis(hm_ball(2, 2), 5, coeff_dim=1)
        with pytest.raises(NotCnpError, match="c_2"):
            chen_identity_residual(basis)

    def test_partial_sums_monotone(self):
        for spec in (drury_arveson(2), DIRICHLET_BALL):
            basis = ball_basis(spec, 5, coeff_dim=1)
            res = chen_identity_residual(basis)
            assert res.monotone
            sums = res.partial_sums
            for a, b in zip(sums, sums[1:]):
                assert b <= a + 1e-12


def _grid_spec(family, n):
    if family == "da":
        return drury_arveson(n)
    if family == "custom":
        # a_j = 1/(j+1) is log-convex, so the kernel is cnp (Kaluza)
        return BallKernelSpec(
            n=n, family="unitarily_invariant_custom", a_coeffs=tuple(1.0 / (j + 1) for j in range(10))
        )
    return hm_ball(n, int(family[1:]))


def _gamma(alpha):
    out = math.factorial(sum(alpha))
    for a in alpha:
        out //= math.factorial(a)
    return out


def _dense_defect(dense, m, budget, p0):
    total = np.zeros_like(p0)
    for alpha, gram in dense.items():
        j = sum(alpha)
        if 1 <= j <= budget:
            total += (-1) ** (j - 1) * math.comb(m, j) * _gamma(alpha) * gram
    return float(np.linalg.norm(np.eye(len(p0)) - total - p0, 2))


def _dense_chen(dense, c, d, p0):
    per_degree = [np.zeros_like(p0) for _ in range(d + 1)]
    for alpha, gram in dense.items():
        j = sum(alpha)
        per_degree[j] += c[j] * (_gamma(alpha) if j > 0 else 1) * gram
    residual = float(np.linalg.norm(sum(per_degree) - p0, 2))
    h = np.ones(len(p0), dtype=complex) / math.sqrt(len(p0))
    sums, acc = [], 0.0
    for j in range(1, d + 1):
        acc += float(np.real(np.vdot(h, per_degree[j] @ h)))
        sums.append(acc)
    return residual, tuple(sums)


class TestDiagonalPowerGrams:
    @pytest.mark.parametrize("coeff_dim", [1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family", ["h1", "h2", "h3", "da", "custom"])
    def test_bit_identical_to_dense_oracle(self, family, n, coeff_dim, cold_memos):
        spec = _grid_spec(family, n)
        for d in range(7):
            basis = ball_basis(spec, d, coeff_dim)
            assert "successors" not in vars(basis)
            dense = dense_power_grams(basis.index_table, basis.norms, coeff_dim, d)
            p0 = np.zeros((basis.dim, basis.dim), dtype=complex)
            p0[: coeff_dim, : coeff_dim] = np.eye(coeff_dim)
            for _call in ("cold", "warm"):
                # each full diagonal, rebuilt from its row of yielded runs
                diags = []
                for dst, gram in _power_grams(basis, d):
                    for row_dst, row_gram in zip(dst, gram):
                        diag = np.zeros(basis.dim, dtype=complex)
                        for j in range(coeff_dim):
                            diag[coeff_dim * row_dst + j] = row_gram
                        diags.append(diag)
                grams = dict(zip(basis.index_table, diags, strict=True))
                assert list(grams) == list(dense)
                for alpha, gram in dense.items():
                    diag = np.diag(gram)
                    assert not np.any(gram - np.diag(diag))
                    assert np.array_equal(grams[alpha], diag)
                if family.startswith("h"):
                    m = spec.m
                    res = defect_identity_residual(basis)
                    assert res.residual_norm == _dense_defect(dense, m, min(m, d), p0)
                if family in ("h1", "da", "custom"):
                    res = chen_identity_residual(basis)
                    residual, sums = _dense_chen(dense, chen_coeffs(spec, d).c.coeffs, d, p0)
                    assert res.residual_norm == residual
                    assert res.partial_sums == sums
            assert "successors" in vars(basis)

    @pytest.mark.parametrize("rows,width", [(0, 3), (1, 1), (20, 2), (84, 3), (200, 168)])
    def test_ordered_sum_adds_left_to_right(self, rows, width):
        rng = np.random.default_rng(rows + width)
        scale = 10.0 ** rng.integers(-12, 12, size=(rows, 1))
        terms = rng.standard_normal((rows, width)) * scale + 1j * rng.standard_normal((rows, width))
        terms[:1, :1] = -0.0
        want = np.zeros(width, dtype=complex)
        for row in terms:
            want += row
        # every row hits the same positions, so each adds in row order
        got = np.zeros(width, dtype=complex)
        _fold(got, np.broadcast_to(np.arange(width), (rows, width)), terms)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))

    def test_large_dim_in_diagonal_memory(self):
        # n=3, D=16, coeff_dim=2: the dense Grams would need about 116 GB
        tracemalloc.start()
        try:
            hm = ball_basis(hm_ball(3, 3), 16, coeff_dim=2)
            defect = defect_identity_residual(hm)
            chen = chen_identity_residual(ball_basis(drury_arveson(3), 16, coeff_dim=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hm.dim == 1938
        assert defect.residual_norm <= 1e-10
        assert chen.residual_norm <= 1e-10
        assert chen.monotone
        assert len(chen.partial_sums) == 16
        for a, b in zip(chen.partial_sums, chen.partial_sums[1:]):
            assert b <= a + 1e-12
        assert peak < 200 * 2**20
