"""Graded bases, multi-index order, monomial norms, slices.

Norm expectations come from the closed forms (product of inverse 1-D
coefficients on the polydisc, alpha!/(|alpha|! a_{|alpha|}) on the ball).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedshift import (
    BallKernelSpec,
    InvalidInputError,
    ball_basis,
    bergman,
    dirichlet,
    drury_arveson,
    enumerate_indices,
    hardy,
    hm_ball,
    lift_scalar_symbol,
    polydisc_basis,
    scalar_symbol,
    slice_symbol,
    symbol_product,
    weighted_bergman,
)
from gradedshift import spaces as spaces_module
from gradedshift.operators import _shift_map
from gradedshift.spaces import (
    _SHIFT_MAP_MEMO_SIZE,
    MAX_DIM,
    MultiplierSymbol,
)

from oracles import all_indices, position_oracle, shift_map_oracle


class TestEnumerateIndices:
    def test_one_variable(self):
        assert list(enumerate_indices(1, 2)) == [(0,), (1,), (2,)]

    def test_two_variables_degree_one(self):
        out = list(enumerate_indices(2, 1))
        assert out[0] == (0, 0)
        assert set(out) == {(0, 0), (0, 1), (1, 0)}
        assert len(out) == 3

    def test_stars_and_bars_count(self):
        assert len(enumerate_indices(3, 4)) == math.comb(7, 3)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_bijection_and_order(self, n, cap):
        out = list(enumerate_indices(n, cap))
        assert out == all_indices(n, cap)
        assert len(set(out)) == len(out) == math.comb(n + cap, n)
        keys = [(sum(a), a) for a in out]
        assert keys == sorted(keys)


class TestMonomialNorms:
    def test_hardy_polydisc_all_ones(self):
        basis = polydisc_basis((hardy(), hardy()), 4)
        assert basis.norm_of((2, 1)) == 1.0

    def test_bergman_disc(self):
        basis = polydisc_basis((bergman(),), 4)
        # c_3 = 4 so ||z^3||^2 = 1/4.
        assert basis.norm_of((3,)) == pytest.approx(0.5, abs=0)

    def test_drury_arveson_mixed(self):
        basis = ball_basis(drury_arveson(2), 3)
        assert basis.norm_of((1, 1)) == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    def test_drury_arveson_closed_form(self, n):
        # ||z^alpha||^2 = alpha! / |alpha|! on the Drury-Arveson space
        basis = ball_basis(drury_arveson(n), 5)
        for alpha in basis.index_table:
            alpha_fact = math.prod(math.factorial(a) for a in alpha)
            assert basis.norm_of(alpha) == pytest.approx(
                math.sqrt(alpha_fact / math.factorial(sum(alpha))), rel=1e-14
            )

    def test_hm_ball_closed_form(self):
        m = 2
        basis = ball_basis(hm_ball(2, m), 4)
        for alpha in basis.index_table:
            d = sum(alpha)
            gamma = math.factorial(d) / (math.factorial(alpha[0]) * math.factorial(alpha[1]))
            a_d = math.comb(d + m - 1, d)
            assert basis.norm_of(alpha) == pytest.approx(
                math.sqrt(1.0 / (gamma * a_d)), rel=1e-14
            )

    def test_out_of_range(self):
        basis = polydisc_basis((hardy(),), 2)
        with pytest.raises(InvalidInputError):
            basis.norm_of((3,))
        pair = polydisc_basis((hardy(), bergman()), 2, coeff_dim=2)
        ball = ball_basis(drury_arveson(2), 2)
        for b in (pair, ball):
            for alpha in [(0,), (0, 0, 0), (-1, 1), (2, -1), (3, 0), (1, 2), (1.0, 0), "ab", 7]:
                with pytest.raises(InvalidInputError):
                    b.position(alpha)
                with pytest.raises(InvalidInputError):
                    b.coord_index(alpha, 0)
                with pytest.raises(InvalidInputError):
                    b.norm_of(alpha)
        # lists and numpy integers name the same monomial as a tuple
        assert pair.position([1, 1]) == pair.position((1, 1)) == 4
        assert pair.position(np.array([1, 1])) == 4
        assert pair.coord_index((np.int64(0), np.int32(2)), 1) == 7
        assert pair.norm_of([0, 2]) == pair.norm_of((0, 2))

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_tensor_consistency(self, seed):
        rng = np.random.default_rng(seed)
        menu = [hardy(), bergman(), dirichlet(), weighted_bergman(-0.5)]
        f1 = menu[rng.integers(len(menu))]
        f2 = menu[rng.integers(len(menu))]
        product = polydisc_basis((f1, f2), 4)
        one_a = polydisc_basis((f1,), 4)
        one_b = polydisc_basis((f2,), 4)
        for alpha in product.index_table:
            want = one_a.norm_of((alpha[0],)) * one_b.norm_of((alpha[1],))
            assert product.norm_of(alpha) == pytest.approx(want, rel=1e-14)


class TestBasisLayout:
    def test_dimension_formula(self):
        basis = polydisc_basis((hardy(), hardy()), 3, coeff_dim=2)
        assert basis.dim == 2 * math.comb(5, 2)

    def test_degree_blocks_are_leading(self):
        basis = polydisc_basis((hardy(), hardy()), 3, coeff_dim=2)
        degs = list(np.repeat(basis.index_array.sum(axis=1), basis.coeff_dim))
        assert len(degs) == basis.dim
        assert degs == sorted(degs)
        assert basis.dim_upto(1) == 2 * 3

    def test_coeff_index_fastest(self):
        basis = polydisc_basis((hardy(),), 2, coeff_dim=3)
        assert basis.coord_index((0,), 0) == 0
        assert basis.coord_index((0,), 2) == 2
        assert basis.coord_index((1,), 0) == 3


class TestClosedFormPositions:
    """Closed-form ranks and shift maps against counting oracles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["polydisc", "ball"])
    def test_shift_maps_match_oracle(self, n, kind, cold_memos):
        menu = [bergman(), dirichlet(), hardy(), weighted_bergman(-0.5), bergman()]
        for cap in range(9):
            if kind == "polydisc":
                basis = polydisc_basis(menu[:n], cap, coeff_dim=2)
            else:
                basis = ball_basis(drury_arveson(n), cap, coeff_dim=2)
            positions = position_oracle(n, cap)
            assert list(basis.index_table) == list(positions)
            for alpha, k in positions.items():
                assert basis.position(alpha) == k
            for d in range(-1, cap + 2):
                count = sum(1 for alpha in positions if sum(alpha) <= d)
                assert basis.dim_upto(d) == 2 * count
            assert not basis._shift_maps
            cold = {}
            for call in ("cold", "warm"):
                for beta in all_indices(n, 3):
                    maps = _shift_map(basis, beta)
                    if call == "cold":
                        cold[beta] = maps
                    else:
                        assert maps is cold[beta]
                    src, dst, w = maps
                    want_src, want_dst, want_w = shift_map_oracle(positions, basis.norms, beta)
                    assert np.array_equal(src, want_src)
                    assert np.array_equal(dst, want_dst)
                    assert np.array_equal(w, want_w)
                    assert src.dtype == dst.dtype == np.int64
                    if sum(beta) > cap:
                        assert src.size == 0

    def test_rank_of_the_whole_table(self):
        basis = ball_basis(hm_ball(4, 2), 7)
        assert np.array_equal(basis.rank(basis.index_array), np.arange(len(basis.index_table)))


class TestBasisMemo:
    def test_equal_keys_share_one_basis(self):
        a = polydisc_basis((hardy(), bergman()), 3, coeff_dim=2)
        assert polydisc_basis([hardy(), bergman()], 3, 2) is a
        assert polydisc_basis((hardy(), bergman()), np.int64(3), np.int32(2)) is a
        assert polydisc_basis((bergman(), hardy()), 3, coeff_dim=2) is not a
        b = ball_basis(drury_arveson(2), 4)
        assert ball_basis(hm_ball(2, 1), 4, coeff_dim=1) is b
        assert ball_basis(drury_arveson(2), 4, coeff_dim=2) is not b

    def test_numpy_sizes_become_python_ints(self):
        basis = ball_basis(drury_arveson(2), np.int64(5), np.int64(1))
        assert type(basis.degree_cap) is int and type(basis.coeff_dim) is int
        json.dumps({"degree_cap": basis.degree_cap, "coeff_dim": basis.coeff_dim})

    def test_cached_arrays_are_read_only(self):
        basis = polydisc_basis((hardy(),), 3)
        with pytest.raises(ValueError):
            basis.index_array[0, 0] = 1
        with pytest.raises(ValueError):
            basis.norm_array[0] = 2.0
        with pytest.raises(ValueError):
            basis.successors[0, 0] = 0
        with pytest.raises(ValueError):
            basis.prefix[0, 0] = 0
        for arr in _shift_map(basis, (1,)):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_successor_table(self):
        basis = ball_basis(hm_ball(3, 2), 5)
        for i in range(3):
            for k, alpha in enumerate(basis.index_table):
                up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                want = basis.position(up) if sum(up) <= 5 else -1
                assert basis.successors[i, k] == want

    @pytest.mark.parametrize("n, degree_cap", [(1, 0), (1, 4), (2, 0), (3, 5)])
    def test_prefix_table(self, n, degree_cap):
        basis = ball_basis(hm_ball(n, 2), degree_cap)
        assert basis.prefix.shape == (2, len(basis.index_table))
        assert list(basis.prefix[:, 0]) == [-1, -1]
        for k, alpha in enumerate(basis.index_table[1:], start=1):
            i = next(j for j, a in enumerate(alpha) if a > 0)
            prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            assert list(basis.prefix[:, k]) == [i, basis.position(prev)]
            assert basis.prefix[1, k] < k

    def test_shift_map_memo_is_bounded(self, cold_memos):
        # 91 multi-indices |beta| <= 12 on two variables, more than the bound
        basis = polydisc_basis((hardy(), bergman()), 12)
        positions = position_oracle(2, 12)
        betas = all_indices(2, 12)
        assert len(betas) > _SHIFT_MAP_MEMO_SIZE
        for beta in betas + betas[:5]:
            src, dst, w = _shift_map(basis, beta)
            want_src, want_dst, want_w = shift_map_oracle(positions, basis.norms, beta)
            assert np.array_equal(src, want_src)
            assert np.array_equal(dst, want_dst)
            assert np.array_equal(w, want_w)
            assert len(basis._shift_maps) <= _SHIFT_MAP_MEMO_SIZE
        # the oldest maps went first; the last one asked for is kept
        assert betas[-1] in basis._shift_maps
        assert betas[5] not in basis._shift_maps

    def test_shift_map_refuses_bad_multi_indices(self, cold_memos):
        basis = polydisc_basis((hardy(), hardy()), 3)
        for beta in ((1,), (1, 0, 0), (-1, 1)):
            with pytest.raises(InvalidInputError):
                _shift_map(basis, beta)
        assert not basis._shift_maps

    def test_index_tables_are_shared_tuples(self):
        assert enumerate_indices(3, 4) is enumerate_indices(3, 4)
        assert isinstance(enumerate_indices(3, 4), tuple)

    def test_refusals_repeat(self):
        short = BallKernelSpec(n=2, family="unitarily_invariant_custom", a_coeffs=(1.0, 0.5))
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                ball_basis(short, 4)
            with pytest.raises(InvalidInputError):
                polydisc_basis((hardy(),), 2.5)
            with pytest.raises(InvalidInputError):
                polydisc_basis((hardy(),), -1)
            with pytest.raises(InvalidInputError):
                ball_basis(drury_arveson(2), 2, coeff_dim=0)
        assert ball_basis(short, 1).dim == 3


class TestDimensionBudget:
    def test_refused_before_enumeration(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="MAX_DIM"):
                ball_basis(drury_arveson(8), 60)
            with pytest.raises(InvalidInputError, match="MAX_DIM"):
                polydisc_basis((hardy(),) * 8, 60, coeff_dim=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_boundary(self):
        # n = 1, D = 63: 64 monomials, so coeff_dim 64 is exactly MAX_DIM
        assert MAX_DIM == 4096
        assert polydisc_basis((hardy(),), 63, coeff_dim=64).dim == MAX_DIM
        with pytest.raises(InvalidInputError, match="MAX_DIM"):
            polydisc_basis((hardy(),), 63, coeff_dim=65)


NAN = complex(np.nan, 0.0)

# terms of MultiplierSymbol(2, 1, terms) and their canonical form, or the
# message of its InvalidInputError
CANONICAL_CASES = [
    ({(0, 0): [[-0.0]], (1, 0): [[0.5]]}, {(1, 0): 0.5}),
    ({(0, 0): [[complex(-0.0, -0.0)]]}, {}),
    ({(0, 0): [[NAN]], (0, 1): [[complex(0.0, np.nan)]]}, {(0, 0): NAN, (0, 1): complex(0.0, np.nan)}),
    ({(1.0, 0): [[0.5]], (np.int64(0), 2.0): [[0.25j]]}, {(1, 0): 0.5, (0, 2): 0.25j}),
    ({(0, -1): [[0.5]]}, "bad multi-index (0, -1) for n=2"),
    ({(0,): [[0.5]]}, "bad multi-index (0,) for n=2"),
    ({(): [[0.5]]}, "bad multi-index () for n=2"),
    ({(0, 0): [[0.5, 0.0]]}, "coefficient at (0, 0) has shape (1, 2), expected square dim 1"),
    ({(1.5, 0): [[0.5]]}, "bad multi-index (1.5, 0) for n=2"),
    ({(1, np.float64(0.5)): [[0.5]]}, "bad multi-index (1, np.float64(0.5)) for n=2"),
    ({(np.nan, 0): [[0.5]]}, "bad multi-index (nan, 0) for n=2"),
    ({(0, np.inf): [[0.5]]}, "bad multi-index (0, inf) for n=2"),
    ({(0, "1"): [[0.5]]}, "bad multi-index (0, '1') for n=2"),
    ({(0, 0): [[0.5]], (1, 0): [[0.5, 0.0]]}, "coefficient at (1, 0) has shape (1, 2), expected square dim 1"),
]


class TestSymbols:
    @pytest.mark.parametrize("terms, want", CANONICAL_CASES)
    def test_canonical_terms(self, terms, want):
        terms = {alpha: np.array(mat, dtype=complex) for alpha, mat in terms.items()}
        if isinstance(want, str):
            with pytest.raises(InvalidInputError) as exc:
                MultiplierSymbol(2, 1, terms)
            assert str(exc.value) == want
            return
        phi = MultiplierSymbol(2, 1, terms)
        assert list(phi.terms) == list(want)
        for (alpha, mat), given in zip(phi.terms.items(), (m for m in terms.values() if m.any())):
            assert all(type(a) is int for a in alpha)
            assert mat.dtype == complex and not mat.flags.writeable
            assert np.array_equal(mat, [[want[alpha]]], equal_nan=True)
            assert not np.shares_memory(mat, given)

    def test_stack_equals_one_symbol_per_row(self):
        # a zero coefficient is dropped from its own symbol only
        coeffs = np.arange(1, 25, dtype=complex).reshape(3, 2, 2, 2)
        coeffs[1, 0] = 0.0
        support = [(0, 1), (1.0, 0)]
        stacked = MultiplierSymbol.stack(2, 2, support, coeffs)
        assert [list(phi.terms) for phi in stacked] == [[(0, 1), (1, 0)], [(1, 0)], [(0, 1), (1, 0)]]
        for phi, row in zip(stacked, coeffs):
            single = MultiplierSymbol(2, 2, dict(zip(support, row)))
            assert list(phi.terms) == list(single.terms) and phi.contractivity_record is None
            for alpha, mat in phi.terms.items():
                assert mat.tobytes() == single.terms[alpha].tobytes()
                assert not mat.flags.writeable and not np.shares_memory(mat, coeffs)
        with pytest.raises(InvalidInputError, match="^bad multi-index \\(0, -1\\) for n=2$"):
            MultiplierSymbol.stack(2, 2, [(0, 1), (0, -1)], coeffs)
        with pytest.raises(InvalidInputError, match="^1 coefficients for 2 multi-indices$"):
            MultiplierSymbol.stack(2, 2, support, coeffs[:, :1])
        with pytest.raises(InvalidInputError, match=r"^coefficient at \(0, 1\) has shape \(2, 1\)"):
            MultiplierSymbol.stack(2, 2, support, coeffs[..., :1])

    def test_a_support_is_checked_once_and_no_refusal_is_kept(self, cold_memos, monkeypatch):
        real, seen = spaces_module._multi_index, []
        monkeypatch.setattr(spaces_module, "_multi_index", lambda n, alpha: seen.append(alpha) or real(n, alpha))
        for _ in range(3):
            assert list(MultiplierSymbol(1, 1, {(1,): [[0.5]]}).terms) == [(1,)]
        # an integral float or numpy int compares equal to the checked (1,)
        for alpha in ((1.0,), (np.int64(1),)):
            assert list(MultiplierSymbol(1, 1, {alpha: [[0.5]]}).terms) == [(1,)]
        assert seen == [(1,)]
        # a refusal raises, so a warm memo lets nothing through
        for bad in ((1.5,), (np.nan,), (np.inf,), (-1,)):
            for _ in range(2):
                with pytest.raises(InvalidInputError, match="^bad multi-index "):
                    MultiplierSymbol(1, 1, {bad: [[0.5]]})
        assert spaces_module._checked_support.cache_info().currsize == 1

    def test_unhashable_and_oversized_supports_are_checked_every_time(self, cold_memos):
        # a multi-index given as a list, and a support of more than MAX_DIM entries
        (phi,) = MultiplierSymbol.stack(2, 1, [[0, 1], (1, 0)], np.ones((1, 2, 1, 1)))
        assert list(phi.terms) == [(0, 1), (1, 0)]
        (phi,) = MultiplierSymbol.stack(1, 1, [(j,) for j in range(MAX_DIM + 1)], np.ones((1, MAX_DIM + 1, 1, 1)))
        assert len(phi.terms) == MAX_DIM + 1
        with pytest.raises(InvalidInputError, match=r"^bad multi-index \[0, 1.5\] for n=2$"):
            MultiplierSymbol.stack(2, 1, [[0, 1.5]], np.ones((1, 1, 1, 1)))
        assert spaces_module._checked_support.cache_info().currsize == 0

    def test_slice_drops_variable(self):
        phi = scalar_symbol(2, {(1, 1): 1.0, (0, 1): 1.0})
        sliced = slice_symbol(phi, 0)
        assert sliced.n == 1
        assert set(sliced.terms) == {(1,)}
        np.testing.assert_allclose(sliced.terms[(1,)], [[1.0]])

    def test_slice_constant(self):
        a = np.array([[0.5, 0.25], [0.0, -0.5]], dtype=complex)
        phi = MultiplierSymbol(3, 2, {(0, 0, 0): a})
        for axis in range(3):
            sliced = slice_symbol(phi, axis)
            assert sliced.n == 2
            np.testing.assert_allclose(sliced.terms[(0, 0)], a)

    def test_slice_substitution_oracle(self):
        nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        phi = MultiplierSymbol(
            2, 2, {(0, 0): 0.5 * eye, (1, 0): 0.5 * eye, (0, 1): nil}
        )
        sliced = slice_symbol(phi, 1)
        assert set(sliced.terms) == {(0,), (1,)}
        np.testing.assert_allclose(sliced.terms[(0,)], 0.5 * eye)
        np.testing.assert_allclose(sliced.terms[(1,)], 0.5 * eye)
        # Evaluation agreement: slicing equals substituting z_axis = 0.
        for w in (0.3, -0.2 + 0.1j):
            np.testing.assert_allclose(sliced((w,)), phi((w, 0.0)), atol=1e-15)

    def test_slice_axis_out_of_range(self):
        phi = scalar_symbol(2, {(1, 0): 1.0})
        with pytest.raises(InvalidInputError):
            slice_symbol(phi, 2)

    def test_symbol_product_matches_pointwise(self):
        rng = np.random.default_rng(1)
        a = MultiplierSymbol(
            2,
            2,
            {
                (0, 0): rng.standard_normal((2, 2)) + 0j,
                (1, 0): rng.standard_normal((2, 2)) + 0j,
            },
        )
        b = MultiplierSymbol(
            2,
            2,
            {
                (0, 1): rng.standard_normal((2, 2)) + 0j,
                (1, 1): rng.standard_normal((2, 2)) + 0j,
            },
        )
        prod = symbol_product(a, b)
        z = (0.3 + 0.1j, -0.25)
        np.testing.assert_allclose(prod(z), a(z) @ b(z), atol=1e-13)

    def test_lift_scalar(self):
        phi = scalar_symbol(1, {(1,): 2.0})
        lifted = lift_scalar_symbol(phi, 3)
        assert lifted.coeff_dim == 3
        np.testing.assert_allclose(lifted.terms[(1,)], 2.0 * np.eye(3))

    def test_coefficients_are_read_only_copies(self):
        a = np.array([[0.5, 0.25], [0.0, -0.5]], dtype=complex)
        phi = MultiplierSymbol(1, 2, {(0,): a, (1,): a})
        with pytest.raises(ValueError):
            phi.terms[(1,)][0, 0] = 1.0
        with pytest.raises(ValueError):
            phi.terms[(0,)] += 1.0
        a[0, 0] = 7.0  # the caller's array stays writeable and is not shared
        assert phi.terms[(0,)][0, 0] == 0.5
        phi.phi0[0, 0] = 7.0  # phi0 hands out a writeable copy
        assert phi.terms[(0,)][0, 0] == 0.5

    def test_symbol_from_equal_terms_carries_no_record(self):
        phi = MultiplierSymbol(1, 1, {(0,): [[0.5]]})
        assert phi.contractivity_record is None
        phi.contractivity_record = (("polydisc", (1.0,)), ("realization", 0.5))
        assert MultiplierSymbol(phi.n, phi.coeff_dim, phi.terms).contractivity_record is None
        assert phi.scaled(1.0).contractivity_record is None
