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
memory), and a residual is the largest absolute entry of a diagonal.  The
diagonals are built in :func:`gradedshift.operators._apply_powers` order,
which makes them, the residuals and the Chen partial sums bit-identical to
the dense products of the shift matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import CertificationError, InvalidInputError, NotCnpError
from .kernels import chen_coeffs
from .operators import (
    SubspaceFrame,
    _prefix_steps,
    _shift_map,
    opnorm,
    restricted_wandering,
    shift_tuple,
)
from .spaces import BallDomain, MultiIndex, TruncatedBasis, multi_factorial

__all__ = [
    "GammaTable",
    "gamma_coeffs",
    "IdentityResidual",
    "defect_identity_residual",
    "ChenIdentityResidual",
    "chen_identity_residual",
    "RegularWanderingReport",
    "regular_wandering_check",
]

GAMMA_CAP = 64


@dataclass(frozen=True)
class GammaTable:
    """Multinomial weights gamma_alpha = |alpha|!/alpha! for |alpha| <= m."""

    n: int
    m: int
    values: Dict[MultiIndex, int]


def gamma_coeffs(n: int, m: int) -> GammaTable:
    """All gamma_alpha = |alpha|!/alpha! with |alpha| <= m, exact integers."""
    if m < 1:
        raise InvalidInputError("gamma table needs m >= 1")
    if m > GAMMA_CAP:
        raise InvalidInputError(f"gamma table order {m} beyond cap {GAMMA_CAP}")
    from .spaces import enumerate_indices

    values = {
        alpha: math.factorial(sum(alpha)) // multi_factorial(alpha)
        for alpha in enumerate_indices(n, m)
    }
    return GammaTable(n=n, m=m, values=values)


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


def _power_grams(basis: TruncatedBasis, budget: int) -> Dict[MultiIndex, np.ndarray]:
    """Diagonals of M^alpha M^{*alpha} for all |alpha| <= budget, exact on V_D.

    Each M^alpha is kept as index arrays ``(dst, value)``, one entry per
    monomial e_beta that M^alpha keeps inside V_D: it sends ``e_beta (x) xi``
    to ``value e_(beta+alpha) (x) xi``, and ``dst`` is the position of
    beta + alpha.  The values follow the prefix recursion of
    :func:`~gradedshift.operators._apply_powers`: M^m = M_i M^prev with i
    the first nonzero coordinate of m, each step multiplying the axis-i
    weight by the value at prev.  Every entry of a dense shift-matrix product
    is that one product plus exact zeros, and every diagonal Gram entry is
    ``v conj(v)`` plus exact zeros, so the diagonals returned here are
    bit-identical to the dense ones (rows M^alpha does not reach are 0).
    """
    n, count = basis.n, len(basis.index_table)
    # per axis: the position of alpha + e_i (-1 outside V_D) and the step weight
    succ = np.full((n, count), -1)
    step = np.zeros((n, count))
    for i in range(n):
        src, dst, w = _shift_map(basis, tuple(int(k == i) for k in range(n)))
        succ[i, src] = dst
        step[i, src] = w
    powers = {(0,) * n: (np.arange(count), np.ones(count, dtype=complex))}
    for m, i, prev in _prefix_steps(n, budget):
        dst, value = powers[prev]
        keep = succ[i, dst] >= 0
        dst = dst[keep]
        powers[m] = (succ[i, dst], step[i, dst] * value[keep])
    grams = {}
    for m, (dst, value) in powers.items():
        diag = np.zeros(count, dtype=complex)
        diag[dst] = value * value.conj()
        grams[m] = np.repeat(diag, basis.coeff_dim)
    return grams


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
    grams = _power_grams(basis, budget)
    gamma = gamma_coeffs(basis.n, budget) if budget >= 1 else None
    total = np.zeros(basis.dim, dtype=complex)
    term_count = 0
    for j in range(min(m, budget)):
        coeff = (-1) ** j * math.comb(m, j + 1)
        for alpha, g in gamma.values.items():
            if sum(alpha) != j + 1:
                continue
            total += coeff * g * grams[alpha]
            term_count += 1
    residual = float(np.max(np.abs(1.0 - total - _degree_zero_projection(basis))))
    report = IdentityResidual(
        residual_norm=residual, certified_block=basis.degree_cap, term_count=term_count
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
    gamma = gamma_coeffs(basis.n, max(d, 1))
    grams = _power_grams(basis, d)
    dim = basis.dim
    per_degree = [np.zeros(dim, dtype=complex) for _ in range(d + 1)]
    term_count = 0
    for alpha, gram in grams.items():
        j = sum(alpha)
        g = gamma.values[alpha] if j > 0 else 1
        per_degree[j] += cc.c.coeffs[j] * g * gram
        term_count += 1
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
        term_count=term_count,
        partial_sums=tuple(sums),
        monotone=monotone,
    )
    if residual > tol:
        raise CertificationError(
            f"reconstruction identity residual {residual:.3e} exceeds {tol}"
        )
    return report


@dataclass(frozen=True)
class RegularWanderingReport:
    """Finite form of "M != 0 iff its restricted wandering subspace is != 0"."""

    m_dim: int
    wandering_dim: int
    equivalence_ok: bool


def regular_wandering_check(
    basis: TruncatedBasis, m_frame: SubspaceFrame, tol: float = 1e-10
) -> RegularWanderingReport:
    """Certify that a shift-invariant M is nonzero iff W(M_z|_M) is nonzero.

    The forward implication is structural at finite dimension: the shifts
    raise degree, so an invariant M with M = sum_i X_i M would be zero.
    """
    x = shift_tuple(basis)
    q = m_frame.columns
    if m_frame.dim:
        for i, t in enumerate(x):
            leak = opnorm(t.data @ q - q @ (q.conj().T @ t.data @ q))
            if leak > tol:
                raise InvalidInputError(
                    f"subspace not invariant under shift {i} (residual {leak:.3e})"
                )
    w = restricted_wandering(x, m_frame, tol)
    ok = (m_frame.dim > 0) == (w.dim > 0)
    if not ok:
        raise CertificationError(
            f"wandering equivalence failed: dim M = {m_frame.dim}, dim W = {w.dim}"
        )
    return RegularWanderingReport(
        m_dim=m_frame.dim, wandering_dim=w.dim, equivalence_ok=ok
    )
