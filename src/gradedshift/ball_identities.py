"""Exact defect and reconstruction identities on unitarily invariant ball spaces.

Both identities are assembled in the normalized monomial basis (norms
``alpha!/(|alpha|! a_{|alpha|})``, no renormalization mid-sum) and hold
EXACTLY on the full truncation V_D: every summand ``M^alpha M^{*alpha}``
compresses without error because the adjoint lowers into V_{D-|alpha|} and
the forward powers raise back inside V_D.  The reported residuals are pure
rounding noise.

Every summand is diagonal in the monomial basis: ``M^alpha`` sends each
``e_beta (x) xi`` to a multiple of ``e_(beta+alpha) (x) xi``, and distinct
betas land on distinct rows.  So each Gram is kept as its diagonal, both
identities are sums of length-dim vectors (O(#alpha * dim) time and
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
as the dense matrix products, whose other terms are exact zeros.  So the
diagonals, the residuals and the Chen partial sums are bit-identical to the
dense products of the shift matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import List, Mapping, Tuple

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


def _degree_zero_projection(basis: TruncatedBasis) -> np.ndarray:
    """Diagonal of the projection onto the degree-0 block."""
    p = np.zeros(basis.dim, dtype=complex)
    p[: basis.dim_upto(0)] = 1.0
    return p


def _power_grams(basis: TruncatedBasis, budget: int) -> Tuple[Tuple[MultiIndex, ...], np.ndarray]:
    """Diagonals of M^alpha M^{*alpha} for all |alpha| <= budget <= D, exact on V_D:
    the multi-indices in graded-lex order and the ``(#alpha, dim)`` array of
    their diagonals, degree k in rows ``C(k - 1 + n, n) : C(k + n, n)``.

    Each M^alpha is kept as index arrays ``(dst, value)``, one entry per
    monomial e_beta with |beta| <= D - |alpha|: it sends ``e_beta (x) xi``
    to ``value e_(beta+alpha) (x) xi``, and ``dst`` is the position of
    beta + alpha.  The values follow the prefix recursion of
    :func:`~gradedshift.operators._apply_powers`, one degree at a time on
    the basis's prefix and successor tables (see the module docstring).
    """
    n, c, count = basis.n, basis.coeff_dim, len(basis.index_table)
    succ, norms = basis.successors, basis.norm_array
    axes, prevs = basis.prefix[0], basis.prefix[1]
    dst = np.arange(count)[None, :]
    value = np.ones((1, count), dtype=complex)
    diags = np.zeros((math.comb(budget + n, n), basis.dim), dtype=complex)
    for k in range(budget + 1):
        lo, hi = math.comb(k - 1 + n, n), math.comb(k + n, n)
        if k > 0:
            # the row of each prev among the monomials of degree k - 1
            prev = prevs[lo:hi] - math.comb(k - 2 + n, n)
            kept = basis.dim_upto(basis.degree_cap - k) // c
            at = dst[prev, :kept]
            dst = succ[axes[lo:hi, None], at]
            value = (norms[dst] / norms[at]) * value[prev, :kept]
        rows, gram = np.arange(lo, hi)[:, None], value * value.conj()
        for j in range(c):
            diags[rows, c * dst + j] = gram
    return basis.index_table[: len(diags)], diags


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """``0 + terms[0] + terms[1] + ...``, added left to right like a loop of
    ``+=``.  numpy sums the rows of a stack one after another when they are
    longer than 1 (rows of length 1 it sums pairwise); the rows here are
    diagonals on V_D, of length 1 only on V_0 with coeff_dim 1: one term."""
    return terms.sum(axis=0) + 0.0  # as from a zero start, so -0 becomes +0


def defect_identity_residual(basis: TruncatedBasis, tol: float = 1e-10) -> IdentityResidual:
    """Residual of I - sum_{j<m} (-1)^j C(m,j+1) sum_{|a|=j+1} gamma_a M^a M^*a = P_E.

    Exact on the full truncation for the H_m(B_n) family; residual_norm is
    rounding noise and must come out <= tol.
    """
    if not isinstance(basis.domain, BallDomain) or basis.domain.spec.family != "hm":
        raise InvalidInputError("defect identity requires an H_m ball basis")
    m = basis.domain.spec.m
    # terms with |alpha| > D vanish identically on V_D (the adjoint power
    # annihilates everything), so the assembled sum stops at the budget
    budget = min(m, basis.degree_cap)
    monos, diags = _power_grams(basis, budget)
    gamma = gamma_coeffs(basis.n, max(budget, 1)).values
    # exact integer weights; the terms add up in graded-lex order
    weights = [(-1) ** (sum(a) - 1) * math.comb(m, sum(a)) * gamma[a] for a in monos[1:]]
    total = _ordered_sum(np.array(weights, dtype=complex)[:, None] * diags[1:])
    residual = float(np.max(np.abs(1.0 - total - _degree_zero_projection(basis))))
    report = IdentityResidual(
        residual_norm=residual, certified_block=basis.degree_cap, term_count=len(monos) - 1
    )
    if residual > tol:
        raise CertificationError(
            f"defect identity residual {residual:.3e} exceeds {tol}"
        )
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
        bad = next(
            (j for j in range(1, d + 1) if cc.c.coeffs[j] > 0), None
        )
        raise NotCnpError(
            f"kernel is not cnp-certified to order {d}"
            + (f" (c_{bad} = {cc.c.coeffs[bad]:+.6g} > 0)" if bad is not None else "")
        )
    monos, diags = _power_grams(basis, d)
    dim, n = basis.dim, basis.n
    # gamma in graded-lex order, gamma_0 = 1
    gamma = np.fromiter(gamma_coeffs(n, max(d, 1)).values.values(), float, len(monos))
    per_degree = np.empty((d + 1, dim), dtype=complex)
    for j in range(d + 1):
        lo, hi = math.comb(j - 1 + n, n), math.comb(j + n, n)
        weights = cc.c.coeffs[j] * gamma[lo:hi]
        per_degree[j] = _ordered_sum(weights[:, None] * diags[lo:hi])
    total = sum(per_degree)
    residual = float(np.max(np.abs(total - _degree_zero_projection(basis))))
    h = np.ones(dim, dtype=complex) / math.sqrt(dim)
    sums: List[float] = []
    acc = 0.0
    for j in range(1, d + 1):
        acc += float(np.real(np.vdot(h, per_degree[j] * h)))
        sums.append(acc)
    monotone = all(sums[i + 1] <= sums[i] + 1e-12 for i in range(len(sums) - 1))
    report = ChenIdentityResidual(
        residual_norm=residual,
        certified_block=d,
        term_count=len(monos),
        partial_sums=tuple(sums),
        monotone=monotone,
    )
    if residual > tol:
        raise CertificationError(
            f"reconstruction identity residual {residual:.3e} exceeds {tol}"
        )
    return report
