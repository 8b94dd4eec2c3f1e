"""Kernel coefficient families, series inversion, and CNP certification.

Expected values are frozen from independent oracles: symbolic Taylor
expansions (sympy) for the closed-form kernels and exact long division for
series reciprocals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedshift import (
    InvalidInputError,
    PowerSeries,
    SeriesRangeError,
    ball_coeff,
    ball_series,
    bergman,
    chen_coeffs,
    cnp_certificate,
    coeff_1d,
    dirichlet,
    drury_arveson,
    hardy,
    hm_ball,
    reciprocal_series,
    series_1d,
    weighted_bergman,
)
from gradedshift.kernels import BallKernelSpec, KernelSpec1D, convolve

from oracles import convolve_lists, long_division_reciprocal

# Frozen from the sympy Taylor oracle in test_dirichlet_series_oracle below.
DIRICHLET_FIRST_EIGHT = [Fraction(1, m + 1) for m in range(8)]


def sympy_series_coeffs(expr, x, order):
    poly = sympy.series(expr, x, 0, order + 1).removeO()
    return [sympy.Rational(poly.coeff(x, m)) for m in range(order + 1)]


class TestCoeff1D:
    def test_hardy_all_ones(self):
        assert coeff_1d(hardy(), 5) == 1.0
        assert all(coeff_1d(hardy(), m) == 1.0 for m in range(20))

    def test_bergman_m_plus_one(self):
        assert coeff_1d(bergman(), 3) == 4.0
        x = sympy.symbols("x")
        oracle = sympy_series_coeffs((1 - x) ** (-2), x, 10)
        for m in range(11):
            assert coeff_1d(bergman(), m) == float(oracle[m])

    def test_dirichlet_series_oracle(self):
        x = sympy.symbols("x")
        oracle = sympy_series_coeffs(-sympy.log(1 - x) / x, x, 7)
        assert oracle == DIRICHLET_FIRST_EIGHT
        for m in range(8):
            assert coeff_1d(dirichlet(), m) == pytest.approx(
                float(DIRICHLET_FIRST_EIGHT[m]), abs=0, rel=1e-15
            )

    def test_weighted_bergman_matches_binomial_series(self):
        x = sympy.symbols("x")
        for alpha in (sympy.Rational(-1, 2), sympy.Rational(0), sympy.Rational(1, 3)):
            oracle = sympy_series_coeffs((1 - x) ** (alpha - 2), x, 8)
            spec = weighted_bergman(float(alpha))
            for m in range(9):
                assert coeff_1d(spec, m) == pytest.approx(float(oracle[m]), rel=1e-13)

    def test_weighted_bergman_alpha_zero_is_bergman(self):
        for m in range(10):
            assert coeff_1d(weighted_bergman(0.0), m) == pytest.approx(
                coeff_1d(bergman(), m), rel=1e-14
            )

    def test_weighted_bergman_range_enforced(self):
        with pytest.raises(InvalidInputError):
            weighted_bergman(-1.0)
        with pytest.raises(InvalidInputError):
            weighted_bergman(2.0)
        for alpha in (-0.5, 0.5):
            assert weighted_bergman(alpha).alpha == alpha

    def test_custom_passthrough(self):
        spec = KernelSpec1D(family="custom", custom_coeffs=(1.0, 0.5, 1 / 3))
        assert coeff_1d(spec, 2) == pytest.approx(1 / 3)

    def test_series_cap_enforced(self):
        with pytest.raises(SeriesRangeError):
            coeff_1d(hardy(), 65)


class TestBallCoeff:
    def test_drury_arveson_all_ones(self):
        assert ball_coeff(hm_ball(2, 1), 7) == 1.0
        assert ball_coeff(drury_arveson(3), 11) == 1.0

    def test_hm_binomial(self):
        assert ball_coeff(hm_ball(2, 2), 3) == 4.0
        for j in range(9):
            assert ball_coeff(hm_ball(2, 3), j) == math.comb(j + 2, j)

    def test_custom_passthrough(self):
        spec = BallKernelSpec(n=2, family="unitarily_invariant_custom", a_coeffs=(1.0, 0.5, 1 / 3))
        assert ball_coeff(spec, 2) == pytest.approx(1 / 3)

    def test_custom_requires_normalized(self):
        with pytest.raises(InvalidInputError):
            BallKernelSpec(n=2, family="unitarily_invariant_custom", a_coeffs=(2.0, 1.0))


class TestReciprocalSeries:
    def test_geometric(self):
        r = reciprocal_series(PowerSeries((1.0, 1.0, 1.0, 1.0)))
        assert list(r.coeffs) == [1.0, -1.0, 0.0, 0.0]

    def test_identity_series(self):
        r = reciprocal_series(PowerSeries((1.0, 0.0, 0.0)))
        assert list(r.coeffs) == [1.0, 0.0, 0.0]

    def test_hand_recurrence(self):
        r = reciprocal_series(PowerSeries((1.0, 2.0, 3.0)))
        assert list(r.coeffs) == [1.0, -2.0, 1.0]

    def test_zero_constant_rejected(self):
        with pytest.raises(InvalidInputError):
            reciprocal_series(PowerSeries((0.0, 1.0)))

    def test_matches_long_division_oracle(self):
        coeffs = [1.0, 0.25, -0.5, 2.0, 0.125]
        r = reciprocal_series(PowerSeries(tuple(coeffs)))
        oracle = long_division_reciprocal(coeffs, len(coeffs))
        for got, want in zip(r.coeffs, oracle):
            assert got == pytest.approx(float(want), abs=1e-13)

    @given(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ).map(lambda xs: [1.0] + xs)
    )
    @settings(max_examples=120, deadline=None)
    def test_convolution_roundtrip(self, coeffs):
        series = PowerSeries(tuple(coeffs))
        recip = reciprocal_series(series)
        prod = convolve(series, recip)
        assert prod.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        for entry in prod.coeffs[1:]:
            assert abs(entry) <= 1e-9

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_kernel_roundtrip_per_family(self, length):
        for spec in (hardy(), bergman(), dirichlet(), weighted_bergman(-0.5)):
            series = series_1d(spec, length)
            prod = convolve(series, reciprocal_series(series))
            delta = np.zeros(length + 1)
            delta[0] = 1.0
            assert np.max(np.abs(np.asarray(prod.coeffs) - delta)) <= 1e-13


class TestConvolve:
    @pytest.mark.parametrize(
        "left, right",
        [
            (hardy(), hardy()),
            (hardy(), bergman()),
            (bergman(), dirichlet()),
            (dirichlet(), weighted_bergman(-0.5)),
            (weighted_bergman(0.5), hardy()),
        ],
        ids=["hardy-hardy", "hardy-bergman", "bergman-dirichlet", "dirichlet-wb-0.5", "wb0.5-hardy"],
    )
    def test_kernel_products_match_cauchy_oracle(self, left, right):
        a = series_1d(left, 15)
        b = series_1d(right, 15)
        got = convolve(a, b)
        want = convolve_lists(a.coeffs, b.coeffs)
        assert got.length == len(want) == 16
        for g, w in zip(got.coeffs, want):
            assert g == pytest.approx(w, rel=1e-14, abs=0)

    def test_hand_products(self):
        # (1 - x)^-1 squared is (1 - x)^-2, the Bergman series m + 1
        hardy_sq = convolve(series_1d(hardy(), 10), series_1d(hardy(), 10))
        assert hardy_sq.coeffs == series_1d(bergman(), 10).coeffs
        # (1 + x)(1 - x) = 1 - x^2, truncated to the input length
        prod = convolve(PowerSeries((1.0, 1.0, 0.0, 0.0)), PowerSeries((1.0, -1.0, 0.0, 0.0)))
        assert prod.coeffs == (1.0, 0.0, -1.0, 0.0)

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                *(
                    st.lists(
                        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
                        min_size=n,
                        max_size=n,
                    ),
                )
                * 2
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_random_pairs_match_cauchy_oracle(self, pair):
        a, b = pair
        got = convolve(PowerSeries(tuple(a)), PowerSeries(tuple(b)))
        for g, w in zip(got.coeffs, convolve_lists(a, b)):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InvalidInputError, match="equal lengths"):
            convolve(PowerSeries((1.0, 2.0)), PowerSeries((1.0,)))


class TestCnpCertificate:
    def test_hardy(self):
        cert = cnp_certificate(series_1d(hardy(), 5))
        assert cert.is_cnp_to_L
        assert list(cert.b.coeffs) == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert cert.first_violation is None

    def test_bergman_exact_failure(self):
        cert = cnp_certificate(series_1d(bergman(), 3))
        assert not cert.is_cnp_to_L
        assert cert.first_violation == 2
        # 1 - (1 - x)^2 = 2x - x^2, so the failing coefficient is exactly -1.
        assert list(cert.b.coeffs) == [0.0, 2.0, -1.0, 0.0]

    def test_dirichlet_order_40_via_exact_fractions(self):
        cert = cnp_certificate(series_1d(dirichlet(), 40))
        assert cert.is_cnp_to_L
        oracle = long_division_reciprocal([Fraction(1, m + 1) for m in range(41)], 41)
        for j in range(1, 41):
            b_exact = -oracle[j] if j else Fraction(0)
            assert cert.b.coeffs[j] == pytest.approx(float(b_exact), abs=1e-13)
            assert b_exact >= 0

    def test_requires_normalized(self):
        with pytest.raises(InvalidInputError):
            cnp_certificate(PowerSeries((2.0, 1.0)))


class TestChenCoeffs:
    def test_drury_arveson(self):
        rec = chen_coeffs(drury_arveson(2), 4)
        assert rec.signs_ok
        assert list(rec.c.coeffs) == [1.0, -1.0, 0.0, 0.0, 0.0]

    def test_hm2_not_cnp(self):
        rec = chen_coeffs(hm_ball(2, 2), 3)
        assert not rec.signs_ok
        assert list(rec.c.coeffs) == [1.0, -2.0, 1.0, 0.0]

    def test_custom_geometric(self):
        spec = BallKernelSpec(n=2, family="unitarily_invariant_custom", a_coeffs=(1.0, 1.0, 1.0))
        rec = chen_coeffs(spec, 2)
        assert list(rec.c.coeffs) == [1.0, -1.0, 0.0]

    def test_cnp_ball_kernel_signs(self):
        # Dirichlet-type ball weights a_j = 1/(j+1): certified cnp, so every
        # Chen coefficient beyond c_0 must be <= 0.
        spec = BallKernelSpec(
            n=2, family="unitarily_invariant_custom", a_coeffs=tuple(1.0 / (j + 1) for j in range(9))
        )
        cert = cnp_certificate(ball_series(spec, 8))
        assert cert.is_cnp_to_L
        rec = chen_coeffs(spec, 8)
        assert rec.signs_ok
        assert all(c <= 1e-12 for c in rec.c.coeffs[1:])
