"""Exact defect and reconstruction identities on unitarily invariant ball spaces.

Both identities are assembled in the normalized monomial basis (norms
``alpha!/(|alpha|! a_{|alpha|})``, no renormalization mid-sum) and hold
EXACTLY on the full truncation V_D: every summand ``M^alpha M^{*alpha}``
compresses without error because the adjoint lowers into V_{D-|alpha|} and
the forward powers raise back inside V_D.  The reported residuals are pure
rounding noise.

Every summand is diagonal in the monomial basis: ``M^alpha`` sends each
``e_beta (x) xi`` to a multiple of ``e_(beta+alpha) (x) xi``, and distinct
betas land on distinct rows.  So each Gram is kept as its diagonal over
the monomials it does not annihilate, each degree's Grams are folded into
length-dim sums as they are made (O(#alpha * dim) time, one degree in
memory), and a residual is the largest absolute entry of a diagonal.

The powers follow the prefix recursion of
:func:`gradedshift.operators._apply_powers`: M^m = M_i M^prev, with i the
first nonzero coordinate of m.  It runs one degree at a time, as whole-array
operations on the basis's prefix table (i and prev for each m) and
successor table: M^m keeps exactly the monomials
e_beta with |beta| <= D - |m|, a leading run of the graded layout, so all
powers of degree k are two ``(#m, run)`` arrays, positions and values,
indexed from those of degree k - 1.  Each value is the step weight
``||z^(gamma + e_i)|| / ||z^gamma||`` times the value at prev, and each Gram
entry is ``v conj(v)``: the same elementwise products, in the same order,
as the dense matrix products, whose other terms are exact zeros; each sum
adds its terms coordinate by coordinate in graded-lex order of alpha, as
``+=`` over the dense Grams would, and adding an exact zero changes no sum.
So the diagonals, the residuals and the Chen partial sums are bit-identical
to the dense products of the shift matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, List, Mapping, Tuple

import numpy as np

from .errors import CertificationError, InvalidInputError, NotCnpError
from .kernels import chen_coeffs
from .spaces import (
    _BASIS_MEMO_SIZE,
    BallDomain,
    MultiIndex,
    TruncatedBasis,
    enumerate_indices,
    multi_factorial,
)

__all__ = [
    "GammaTable",
    "gamma_coeffs",
    "IdentityResidual",
    "defect_identity_residual",
    "ChenIdentityResidual",
    "chen_identity_residual",
]

GAMMA_CAP = 64


@dataclass(frozen=True)
class GammaTable:
    """Multinomial weights gamma_alpha = |alpha|!/alpha! for |alpha| <= m."""

    n: int
    m: int
    values: Mapping[MultiIndex, int]


@lru_cache(maxsize=_BASIS_MEMO_SIZE)
def gamma_coeffs(n: int, m: int) -> GammaTable:
    """All gamma_alpha = |alpha|!/alpha! with |alpha| <= m, exact integers.

    Memoised by ``(n, m)``: the table is shared, so ``values`` is a
    read-only mapping."""
    if m < 1:
        raise InvalidInputError("gamma table needs m >= 1")
    if m > GAMMA_CAP:
        raise InvalidInputError(f"gamma table order {m} beyond cap {GAMMA_CAP}")
    values = {
        alpha: math.factorial(sum(alpha)) // multi_factorial(alpha)
        for alpha in enumerate_indices(n, m)
    }
    return GammaTable(n=n, m=m, values=MappingProxyType(values))


@dataclass(frozen=True)
class IdentityResidual:
    """Residual of an operator identity on the certified block."""

    residual_norm: float
    certified_block: int
    term_count: int


def _power_grams(basis: TruncatedBasis, budget: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Diagonals of M^alpha M^{*alpha} for all |alpha| <= budget <= D, exact on V_D,
    one degree k = 0, 1, ..., budget at a time: a pair ``(dst, gram)`` of
    ``(#alpha, dim_upto(D - k) / coeff_dim)`` arrays, one row per alpha of
    degree k in graded-lex order.

    Row alpha holds M^alpha as index arrays, one entry per monomial e_beta
    with |beta| <= D - |alpha|: M^alpha sends ``e_beta (x) xi`` to a
    multiple of ``e_(beta+alpha) (x) xi``, ``dst`` is the position of
    beta + alpha, and ``gram`` the squared modulus of the multiple, the
    diagonal entry at each coordinate ``coeff_dim * dst + j``.  Every other
    diagonal entry is an exact zero.  The multiples follow the prefix
    recursion of :func:`~gradedshift.operators._apply_powers` on the
    basis's prefix and successor tables (see the module docstring).
    """
    n, c, count = basis.n, basis.coeff_dim, len(basis.index_table)
    succ, norms = basis.successors, basis.norm_array
    axes, prevs = basis.prefix[0], basis.prefix[1]
    dst = np.arange(count)[None, :]
    value = np.ones((1, count), dtype=complex)
    for k in range(budget + 1):
        if k > 0:
            lo, hi = math.comb(k - 1 + n, n), math.comb(k + n, n)
            # the row of each prev among the monomials of degree k - 1
            prev = prevs[lo:hi] - math.comb(k - 2 + n, n)
            kept = basis.dim_upto(basis.degree_cap - k) // c
            at = dst[prev, :kept]
            dst = succ[axes[lo:hi, None], at]
            value = (norms[dst] / norms[at]) * value[prev, :kept]
        yield dst, value * value.conj()


def _fold(total: np.ndarray, dst: np.ndarray, terms: np.ndarray) -> None:
    """``total[dst[r, i]] += terms[r, i]`` for r = 0, 1, ... in turn: each
    position adds its terms in row order, as a loop of ``+=`` over dense
    rows would, less their exact zeros."""
    np.add.at(total, dst, terms)


def defect_identity_residual(basis: TruncatedBasis, tol: float = 1e-10) -> IdentityResidual:
    """Residual of I - sum_{j<m} (-1)^j C(m,j+1) sum_{|a|=j+1} gamma_a M^a M^*a = P_E.

    Exact on the full truncation for the H_m(B_n) family; residual_norm is
    rounding noise and must come out <= tol.
    """
    if not isinstance(basis.domain, BallDomain) or basis.domain.spec.family != "hm":
        raise InvalidInputError("defect identity requires an H_m ball basis")
    m, n, c = basis.domain.spec.m, basis.n, basis.coeff_dim
    # terms with |alpha| > D vanish identically on V_D (the adjoint power
    # annihilates everything), so the assembled sum stops at the budget
    budget = min(m, basis.degree_cap)
    gamma = list(gamma_coeffs(n, max(budget, 1)).values.values())
    total = np.zeros(len(basis.index_table), dtype=complex)
    grams = _power_grams(basis, budget)
    next(grams)  # alpha = 0 is no term
    for k, (dst, gram) in enumerate(grams, 1):
        # exact integer weights; the terms add up in graded-lex order
        sign_comb = (-1) ** (k - 1) * math.comb(m, k)
        weights = [sign_comb * g for g in gamma[math.comb(k - 1 + n, n) : math.comb(k + n, n)]]
        _fold(total, dst, np.array(weights, dtype=complex)[:, None] * gram)
    defect = 1.0 - np.repeat(total, c)
    defect[:c] -= 1.0  # P_E
    residual = float(np.max(np.abs(defect)))
    report = IdentityResidual(
        residual_norm=residual,
        certified_block=basis.degree_cap,
        term_count=math.comb(budget + n, n) - 1,
    )
    if residual > tol:
        raise CertificationError(f"defect identity residual {residual:.3e} exceeds {tol}")
    return report


@dataclass(frozen=True)
class ChenIdentityResidual:
    """Residual of the CNP reconstruction identity plus partial-sum diagnostics.

    ``partial_sums[N-1]`` is <sum_{1<=|b|<=N} c_|b| gamma_b M^b M^*b h, h>
    on the normalized all-ones witness h; nonincreasing since c_j <= 0.
    """

    residual_norm: float
    certified_block: int
    term_count: int
    partial_sums: Tuple[float, ...]
    monotone: bool


def chen_identity_residual(basis: TruncatedBasis, tol: float = 1e-10) -> ChenIdentityResidual:
    """Residual of sum_{|b|<=D} c_{|b|} gamma_b M^b M^*b = P_E on V_D.

    The infinite reconstruction sum truncates exactly at |b| <= D because
    M^{*b} annihilates V_D beyond.  Refuses kernels whose reciprocal-series
    tail coefficients are not certified nonpositive.
    """
    if not isinstance(basis.domain, BallDomain):
        raise InvalidInputError("reconstruction identity requires a ball basis")
    spec = basis.domain.spec
    d = basis.degree_cap
    cc = chen_coeffs(spec, d)
    if not cc.signs_ok:
        bad = next((j for j in range(1, d + 1) if cc.c.coeffs[j] > 0), None)
        raise NotCnpError(
            f"kernel is not cnp-certified to order {d}"
            + (f" (c_{bad} = {cc.c.coeffs[bad]:+.6g} > 0)" if bad is not None else "")
        )
    n, c, count = basis.n, basis.coeff_dim, len(basis.index_table)
    # gamma in graded-lex order, gamma_0 = 1
    gamma = np.fromiter(gamma_coeffs(n, max(d, 1)).values.values(), float, count)
    total = np.zeros(basis.dim, dtype=complex)
    h = np.ones(basis.dim, dtype=complex) / math.sqrt(basis.dim)
    sums: List[float] = []
    acc = 0.0
    for j, (dst, gram) in enumerate(_power_grams(basis, d)):
        weights = cc.c.coeffs[j] * gamma[math.comb(j - 1 + n, n) : math.comb(j + n, n)]
        degree_sum = np.zeros(count, dtype=complex)
        _fold(degree_sum, dst, weights[:, None] * gram)
        degree_sum = np.repeat(degree_sum, c)
        total += degree_sum
        if j > 0:
            acc += float(np.real(np.vdot(h, degree_sum * h)))
            sums.append(acc)
    total[:c] -= 1.0  # P_E
    residual = float(np.max(np.abs(total)))
    monotone = all(sums[i + 1] <= sums[i] + 1e-12 for i in range(len(sums) - 1))
    report = ChenIdentityResidual(
        residual_norm=residual,
        certified_block=d,
        term_count=count,
        partial_sums=tuple(sums),
        monotone=monotone,
    )
    if residual > tol:
        raise CertificationError(f"reconstruction identity residual {residual:.3e} exceeds {tol}")
    return report
