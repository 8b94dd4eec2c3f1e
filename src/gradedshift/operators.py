"""Exact matrix models of shifts, multipliers, duals, and wandering subspaces.

Every operator here is a dense complex matrix tagged with its domain and
codomain bases and an ``exactness_degree`` d*: the matrix agrees with the
untruncated operator on every vector supported in degrees <= d*.

A practical consequence of compression: a truncated shift or multiplier has
exactly-zero (or truncation-damaged) columns above its exactness degree, so
left-invertibility is only meaningful on the restriction to exact columns.
There a coordinate shift, its Cauchy dual and the identity are monomial: at
most one nonzero entry per column, no two columns sharing a row.  So T*T is
diag(|w|^2) and sigma_min is min |w|; :func:`cauchy_dual` writes 1/conj(w)
in the same places, :func:`range_projection` is the 0/1 diagonal on the rows
hit, and :func:`wandering_subspace` is spanned by the coordinate vectors of
the rows no member hits.  They refuse an operator that is not monomial.

The certificates read the same structure off the shift maps
(:func:`_shift_map`) and form no dim x dim matrix; the ``witness`` task runs
:func:`_shift_witness`, which needs a dense matrix only for a subspace symbol
of more than one term.  The dense forms here remain the general API and the
references the tests check the maps against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    CertificationError,
    InvalidInputError,
    NotLeftInvertibleError,
)
from .spaces import (
    _SHIFT_MAP_MEMO_SIZE,
    MultiIndex,
    MultiplierSymbol,
    TruncatedBasis,
    _multi_index,
    enumerate_indices,
)

__all__ = [
    "OperatorMatrix",
    "SubspaceFrame",
    "shift_matrix",
    "shift_tuple",
    "multiplier_matrix",
    "opnorm",
    "spectral_radius",
    "cauchy_dual",
    "range_projection",
    "wandering_subspace",
    "union_projection",
    "orbit_frame",
    "WitnessResult",
    "wandering_witness",
]

SVD_THRESHOLD = 1e-10
# The largest V_D on which :func:`_shift_witness` builds the dense frame of a
# subspace symbol of more than one term; its SVD grows as dim^3.
_FRAME_DIM = 1024


@dataclass
class OperatorMatrix:
    """A dense complex matrix tagged with bases and exactness bookkeeping."""

    data: np.ndarray
    domain: TruncatedBasis
    codomain: TruncatedBasis
    exactness_degree: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (self.codomain.dim, self.domain.dim):
            raise InvalidInputError(
                f"matrix shape {self.data.shape} does not match bases "
                f"({self.codomain.dim}, {self.domain.dim})"
            )

    @property
    def shape(self) -> Tuple[int, int]:
        return self.data.shape

    def exact_column_count(self) -> int:
        return self.domain.dim_upto(self.exactness_degree)


def _as_array(op: Union[OperatorMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(op, OperatorMatrix):
        return op.data
    return np.asarray(op, dtype=complex)


def opnorm(op: Union[OperatorMatrix, np.ndarray]) -> float:
    """Spectral norm; of a stack of matrices, the largest of their norms
    (the norm of their direct sum), from one batched SVD.

    A matrix with an ``inf`` or ``nan`` entry raises ``FloatingPointError``:
    LAPACK would return ``nan`` for it, and ``nan`` passes every
    ``opnorm(x) > tol`` refusal.
    """
    a = _as_array(op)
    if a.size == 0:
        return 0.0
    return float(_opnorms(a).max())


def _opnorms(stack: np.ndarray) -> np.ndarray:
    """The spectral norm of every matrix of a nonempty stack, from one
    batched SVD: LAPACK runs the same gesdd on each matrix as on that matrix
    alone, so every norm equals its own :func:`opnorm` bit for bit.  Raises
    ``FloatingPointError`` on non-finite entries, as :func:`opnorm` does."""
    if not np.isfinite(stack).all():
        raise FloatingPointError("spectral norm of a matrix with non-finite entries")
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _adjoints(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of every matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def spectral_radius(op: Union[OperatorMatrix, np.ndarray]) -> float:
    a = _as_array(op)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@dataclass
class SubspaceFrame:
    """Orthonormal columns spanning a subspace (possibly zero-dimensional)."""

    columns: np.ndarray

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=complex)
        if self.columns.ndim != 2:
            raise InvalidInputError("frame must be a 2-D array of columns")
        if self.dim:
            gram = self.columns.conj().T @ self.columns
            if np.max(np.abs(gram - np.eye(self.dim))) > 1e-12:
                raise InvalidInputError("frame columns are not orthonormal to 1e-12")

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def projection(self) -> np.ndarray:
        return self.columns @ self.columns.conj().T

    @staticmethod
    def empty(ambient_dim: int) -> "SubspaceFrame":
        return SubspaceFrame(np.zeros((ambient_dim, 0), dtype=complex))

    @staticmethod
    def from_columns(cols: np.ndarray, tol: float = SVD_THRESHOLD) -> "SubspaceFrame":
        """Orthonormalize arbitrary spanning columns through an SVD
        (:func:`_range_frame`, ranked relative to the largest singular
        value, so ``t * cols`` has the frame of ``cols`` at any scale t)."""
        cols = np.asarray(cols, dtype=complex)
        if cols.ndim != 2 or cols.shape[1] == 0:
            return SubspaceFrame.empty(cols.shape[0] if cols.ndim == 2 else 0)
        return SubspaceFrame(_range_frame(cols, tol))


def _shift_map(
    basis: TruncatedBasis, beta: MultiIndex
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The monomial positions ``(src, dst)`` with alpha_dst = alpha_src + beta
    inside the truncation, and the weights ``||z^alpha_dst|| / ||z^alpha_src||``.

    alpha + beta stays inside exactly for |alpha| <= D - |beta|, which in the
    graded layout is a leading run of positions; dst follows the basis's
    successor table beta_i times along each axis i.  A map is certified as
    it is built: beta = 0 maps every position to itself (dst is src) with
    weight exactly 1.0, and beta != 0 raises degree by exactly |beta|, else
    ``CertificationError``.  So a multiplier on V_D is block lower-triangular
    by degree with diagonal blocks I (x) Phi(0).  Only certified maps are
    kept on the basis, read-only (at most ``spaces._SHIFT_MAP_MEMO_SIZE``
    of them), so later calls with the same beta return them without
    arithmetic.  On a miss beta is checked by
    :func:`gradedshift.spaces._multi_index`: an integral float entry is
    taken as its int, and any other beta than n nonnegative integers is
    refused with ``InvalidInputError``.
    """
    beta = tuple(beta)
    memo = basis._shift_maps
    if beta in memo:
        return memo[beta]
    beta = _multi_index(basis.n, beta)
    lift = sum(beta)
    kept = basis.dim_upto(basis.degree_cap - lift) // basis.coeff_dim
    src = np.arange(kept)
    dst = src
    for i, b in enumerate(beta):
        for _ in range(b):
            dst = basis.successors[i, dst]
    norms, degrees = basis.norm_array, basis.degree_array
    maps = (src, dst, norms[dst] / norms[src])
    if (degrees[dst] - degrees[src] != lift).any() or not (lift or (maps[2] == 1.0).all()):
        raise CertificationError(
            f"shift map of term {beta} breaks the degree grading of V_{basis.degree_cap}"
        )
    for a in maps:
        a.flags.writeable = False
    if len(memo) >= _SHIFT_MAP_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[beta] = maps
    return maps


def _weighted_shift(basis: TruncatedBasis, terms: Dict[MultiIndex, np.ndarray]) -> np.ndarray:
    """The matrix of sum_beta (weighted shift by beta) (x) Phi_beta on V_D;
    ``terms`` maps each beta to its ``(c, c)`` coefficient.

    Maps ``e_alpha (x) xi`` to ``sum_beta (||z^(alpha+beta)|| / ||z^alpha||)
    e_(alpha+beta) (x) Phi_beta xi``, dropping every alpha + beta outside the
    truncation.  Distinct betas send alpha to distinct blocks, so each block
    is written once, by one scatter per beta, and the entries equal
    ``w * Phi_beta`` exactly.
    """
    c = basis.coeff_dim
    monomials = len(basis.index_table)
    blocks = np.zeros((monomials, c, monomials, c), dtype=complex)
    for beta, mat in terms.items():
        src, dst, w = _shift_map(basis, beta)
        blocks[dst, :, src, :] += w[:, None, None] * mat
    return blocks.reshape(basis.dim, basis.dim)


def shift_matrix(basis: TruncatedBasis, axis: int) -> OperatorMatrix:
    """The compressed coordinate shift M_{z_axis} on V_D.

    Maps ``e_alpha (x) xi`` to ``(||z^(alpha+e_axis)|| / ||z^alpha||)
    e_(alpha+e_axis) (x) xi`` for |alpha| < D and to 0 at |alpha| = D.
    """
    if not 0 <= axis < basis.n:
        raise InvalidInputError(f"axis {axis} out of range for n={basis.n}")
    e_axis = tuple(int(i == axis) for i in range(basis.n))
    data = _weighted_shift(basis, {e_axis: np.eye(basis.coeff_dim, dtype=complex)})
    return OperatorMatrix(data, basis, basis, basis.degree_cap - 1)


def shift_tuple(basis: TruncatedBasis) -> List[OperatorMatrix]:
    return [shift_matrix(basis, i) for i in range(basis.n)]


def _check_symbol(basis: TruncatedBasis, phi: MultiplierSymbol) -> None:
    """Refuse a symbol whose n or coeff_dim differs from the basis's."""
    if phi.n != basis.n:
        raise InvalidInputError(f"symbol has n={phi.n}, basis has n={basis.n}")
    if phi.coeff_dim != basis.coeff_dim:
        raise InvalidInputError(
            f"symbol coeff_dim {phi.coeff_dim} != basis coeff_dim {basis.coeff_dim}"
        )


def multiplier_matrix(basis: TruncatedBasis, phi: MultiplierSymbol) -> OperatorMatrix:
    """The matrix of P_D M_Phi |_{V_D}.

    Rows with |alpha + beta| > D are dropped, so exactness_degree is
    D - deg(Phi).  The conjugate transpose of this matrix is the TRUE
    restriction of M_Phi^* to V_D with no truncation error, since V_D is
    invariant under M_Phi^*.
    """
    _check_symbol(basis, phi)
    data = _weighted_shift(basis, phi.terms)
    return OperatorMatrix(data, basis, basis, basis.degree_cap - phi.degree)


def _monomial_entries(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, w)`` with a = sum_k w_k e_rows_k e_cols_k^T, for an a
    with at most one nonzero entry per column and no two columns sharing a
    row; any other a is refused with :class:`InvalidInputError`."""
    nonzero = a != 0
    if (nonzero.sum(axis=0) > 1).any() or (nonzero.sum(axis=1) > 1).any():
        raise InvalidInputError("operator is not monomial: two nonzero entries share a row or a column")
    rows, cols = np.nonzero(nonzero)
    return rows, cols, a[rows, cols]


def _exact_entries(t: OperatorMatrix, tol: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_monomial_entries` of the exact-column block T_r of t, refused
    with :class:`NotLeftInvertibleError` if T_r is empty or its sigma_min
    (min |w|, or 0 for a zero column or a wide T_r) is <= ``tol``."""
    tr = t.data[:, : t.exact_column_count()]
    k = tr.shape[1]
    if k == 0:
        raise NotLeftInvertibleError("no exact columns to invert on", 0.0)
    # a wide T_r has a kernel whatever its entries
    rows, cols, w = _monomial_entries(tr) if k <= tr.shape[0] else ((), (), ())
    smin = float(np.abs(w).min()) if len(w) == k else 0.0
    if smin <= tol:
        raise NotLeftInvertibleError(
            f"operator not bounded below at truncation scale (sigma_min={smin:.3e})", smin
        )
    return rows, cols, w


def cauchy_dual(t: OperatorMatrix, tol: float = 1e-8) -> OperatorMatrix:
    """T' = T (T*T)^(-1) on the exact-column block, zero columns re-embedded:
    T*T is diag(|w|^2), so T' has 1/conj(w) where T has w.

    Raises :class:`NotLeftInvertibleError` if the restriction is not bounded
    below by ``tol``.  Involution: the dual of the dual reproduces T.
    """
    rows, cols, w = _exact_entries(t, tol)
    data = np.zeros_like(t.data)
    data[rows, cols] = 1.0 / w.conj()
    return OperatorMatrix(data, t.domain, t.codomain, t.exactness_degree)


def range_projection(t: OperatorMatrix, tol: float = 1e-8) -> OperatorMatrix:
    """Orthogonal projection onto the column span of the exact columns,
    P = T (T*T)^(-1) T*: the 0/1 diagonal on the rows they hit."""
    rows, _, _ = _exact_entries(t, tol)
    diag = np.zeros(t.codomain.dim)
    diag[rows] = 1.0
    return OperatorMatrix(np.diag(diag), t.codomain, t.codomain, t.exactness_degree)


def wandering_subspace(x: Sequence[OperatorMatrix]) -> SubspaceFrame:
    """Joint kernel of the adjoints: the coordinate vectors of the rows that
    no member's nonzero entry hits, each member read whole."""
    if not x:
        raise InvalidInputError("empty tuple")
    shape = x[0].shape
    hit = np.zeros(shape[0], dtype=bool)
    for t in x:
        if t.shape != shape:
            raise InvalidInputError("tuple members live on different spaces")
        hit[_monomial_entries(t.data)[0]] = True
    return SubspaceFrame(np.eye(shape[0], dtype=complex)[:, ~hit])


def union_projection(
    projections: Sequence[Union[OperatorMatrix, np.ndarray]], tol: float = 1e-10
) -> np.ndarray:
    """Projection onto the sum of the ranges of commuting projections.

    Returns ``I - prod(I - P_i)`` after validating that each P is an
    orthogonal projection and that the family commutes; also certifies the
    equivalent block form ``sum_k P_k prod_{j>k} (I - P_j)``.
    """
    ps = [_as_array(p) for p in projections]
    if not ps:
        raise InvalidInputError("empty projection family")
    dim = ps[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    for k, p in enumerate(ps):
        if p.shape != (dim, dim):
            raise InvalidInputError("projections must be square and same size")
        if opnorm(p @ p - p) > tol or opnorm(p - p.conj().T) > tol:
            raise InvalidInputError(f"input {k} is not an orthogonal projection (tol {tol})")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if opnorm(ps[i] @ ps[j] - ps[j] @ ps[i]) > tol:
                raise InvalidInputError(f"projections {i} and {j} do not commute (tol {tol})")
    prod = eye.copy()
    for p in ps:
        prod = prod @ (eye - p)
    out = eye - prod
    block = np.zeros_like(out)
    for k, p in enumerate(ps):
        term = p.copy()
        for q in ps[k + 1 :]:
            term = term @ (eye - q)
        block += term
    gap = opnorm(out - block)
    if gap > 10 * len(ps) * tol:
        raise CertificationError(f"union projection block form mismatch {gap:.3e}")
    return out


def _apply_powers(
    x: Sequence[OperatorMatrix], seed: np.ndarray, budget: int
) -> Dict[MultiIndex, np.ndarray]:
    """X^m applied to the seed columns for all |m| <= budget, in graded-lex
    order: X^m = X_i X^(m - e_i), i the first nonzero coordinate of m.  The
    budget may pass the degree cap, so the steps are not read off the basis."""
    out: Dict[MultiIndex, np.ndarray] = {}
    for m in enumerate_indices(x[0].domain.n, budget):
        first = next(filter(None, m), 0)  # m's first nonzero entry, at axis i
        i = m.index(first)
        out[m] = x[i].data @ out[m[:i] + (first - 1,) + m[i + 1 :]] if first else seed
    return out


def orbit_frame(
    x: Sequence[OperatorMatrix],
    seed: np.ndarray,
    budget: int,
    tol: float = SVD_THRESHOLD,
) -> SubspaceFrame:
    """Orthonormal frame of span{X^m seed : |m| <= budget}.

    The span is invariant under the truncated tuple whenever the budget
    saturates (raising degree eventually annihilates), which makes this the
    canonical constructor of invariant subspaces for witness searches.
    """
    seed = np.asarray(seed, dtype=complex)
    if seed.ndim == 1:
        seed = seed[:, None]
    powers = _apply_powers(x, seed, budget)
    big = np.hstack([powers[m] for m in sorted(powers, key=lambda a: (sum(a), a))])
    return SubspaceFrame.from_columns(big, tol)


@dataclass
class WitnessResult:
    """Outcome of the invariant-subspace witness search."""

    found: bool
    eta: Optional[np.ndarray]
    h_index: Optional[int]
    m_tilde: Optional[MultiIndex]
    residuals: Tuple[float, ...]
    certificate_ok: bool
    budget: int
    tol: float


def wandering_witness(
    x: Sequence[OperatorMatrix],
    m_frame: SubspaceFrame,
    budget: int,
    tol: float = 1e-8,
) -> WitnessResult:
    """Search for a nonzero eta in M with X_i* eta orthogonal to M for all i.

    Preconditions: M is a proper nonzero subspace, invariant under each X_i,
    with the wandering subspace of X contained in its orthocomplement.

    The search iterates over the wandering frame columns h in order and,
    for the first h whose Cauchy-dual orbit meets M within the budget,
    returns eta = P_M X'^m~ h at the lexicographically minimal such
    multi-index m~ (the coordinate-wise recursive minimization).  The
    certificate lists ||P_M X_i* eta|| for every i.

    This is the dense form for any monomial tuple and any frame: it checks
    the preconditions with leak and overlap norms and powers dense Cauchy
    duals.  For the shift tuple and M the range of P_D M_theta, as in the
    ``witness`` task, :func:`_shift_witness` gives the same search off the
    shift maps.
    """
    q = m_frame.columns
    qh = q.conj().T
    dim = x[0].domain.dim
    if m_frame.dim == 0:
        raise InvalidInputError("witness search requires a nonzero subspace")
    if m_frame.dim >= dim:
        raise InvalidInputError("witness search requires a proper subspace")
    for i, t in enumerate(x):
        leak = opnorm(t.data @ q - q @ (qh @ t.data @ q))
        if leak > tol:
            raise InvalidInputError(
                f"subspace not invariant under operator {i} (residual {leak:.3e})"
            )
    w = wandering_subspace(x)
    if w.dim == 0:
        raise InvalidInputError("tuple has trivial wandering subspace")
    overlap = opnorm(qh @ w.columns)
    if overlap > tol:
        raise InvalidInputError(
            f"wandering subspace not contained in the orthocomplement (overlap {overlap:.3e})"
        )
    duals = [cauchy_dual(t) for t in x]
    for h_index in range(w.dim):
        h = w.columns[:, h_index : h_index + 1]
        orbit = _apply_powers(duals, h, budget)
        feasible = [
            m
            for m, vec in orbit.items()
            if sum(m) > 0 and float(np.linalg.norm(qh @ vec)) > tol
        ]
        if not feasible:
            continue
        m_tilde = min(feasible)  # plain lexicographic minimum
        vec = orbit[m_tilde][:, 0]
        eta = q @ (qh @ vec)
        residuals = tuple(
            float(np.linalg.norm(qh @ (t.data.conj().T @ eta))) for t in x
        )
        return WitnessResult(
            found=True,
            eta=eta,
            h_index=h_index,
            m_tilde=m_tilde,
            residuals=residuals,
            certificate_ok=all(r <= tol for r in residuals),
            budget=budget,
            tol=tol,
        )
    return WitnessResult(
        found=False,
        eta=None,
        h_index=None,
        m_tilde=None,
        residuals=(),
        certificate_ok=False,
        budget=budget,
        tol=tol,
    )


def _range_frame(cols: np.ndarray, tol: float = SVD_THRESHOLD) -> np.ndarray:
    """Orthonormal columns spanning the range of a matrix with at least one
    column: its left singular vectors at singular values above ``tol``
    times the largest, so ``t * cols`` has the rank of ``cols`` at any
    scale t."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, : int(np.sum(s > tol * s[0]))]


def _axis_maps(basis: TruncatedBasis) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The shift map of every e_i, i < n: the coordinate shifts M_(z_i)."""
    n = basis.n
    return [_shift_map(basis, (0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)]


def _dual_orbit_scalars(basis: TruncatedBasis) -> np.ndarray:
    """The scalars s_m with X'^m e_(0, j) = s_m e_(m, j) for every monomial
    m of V_D, X' the Cauchy dual of the shift tuple.

    X'_i has the weights 1/w of the e_i map on its positions, so s_0 = 1 and
    s_m = (1/w) s_(m - e_i), with i the first nonzero axis of m, m - e_i
    read from ``basis.prefix`` and w the e_i map's weight at m - e_i.  These
    are the products of :func:`_apply_powers`, in its order, one vector step
    per degree, so each s_m equals its entry there bit for bit.
    """
    axis, prev = basis.prefix
    inv = np.array([1.0 / w for _, _, w in _axis_maps(basis)])
    out = np.ones(len(basis.index_table))
    starts = basis._rank_tables[1].tolist() + [len(out)]  # the first position of each degree
    for lo, hi in zip(starts[1:], starts[2:]):
        p = prev[lo:hi]
        out[lo:hi] = inv[axis[lo:hi], p] * out[p]
    return out


def _shift_witness(basis: TruncatedBasis, theta: MultiplierSymbol, tol: float = 1e-8) -> WitnessResult:
    """:func:`wandering_witness` for the shift tuple X of V_D and M the range
    of P_D M_theta, with budget D, off the shift maps.

    The preconditions hold by construction, so no leak or overlap norm is
    taken: the truncated shifts only raise degree, so P_D z_i P_D g = P_D z_i g
    and M is invariant under each X_i; theta(0) = 0 puts M in degrees >= 1,
    orthogonal to the wandering subspace W, the degree-0 block (coordinates
    0..c-1).  The orbit of h = e_(0, j) is X'^m h = s_m e_(m, j)
    (:func:`_dual_orbit_scalars`), so ||P_M X'^m h|| = |s_m| ||P_M e_(m, j)||,
    and the residuals ||P_M X_i^* eta|| take one adjoint gather each on the
    e_i maps.

    P_M is read off the input.  A single term z^gamma Theta spans e_alpha (x)
    ran Theta over the alpha >= gamma, the rows its shift map hits: a mask,
    checked exactly to be closed under every e_i map and to miss the
    constants, times the projection onto ran Theta from one c x c SVD.  Any
    other theta takes an SVD frame Q of the dense P_D M_theta, the one
    dim x dim step, and ||P_M e_(m, j)|| is a row norm of Q.  Either rank is
    relative to the largest singular value.

    Refused with :class:`InvalidInputError`: a zero theta, theta(0) != 0, a
    theta whose every term leaves V_D, and a theta of more than one term on
    a V_D of more than ``_FRAME_DIM`` coordinates.
    """
    _check_symbol(basis, theta)
    if not theta.terms:
        raise InvalidInputError("the subspace symbol is zero, so it spans no subspace")
    if np.any(theta.phi0 != 0):
        raise InvalidInputError(
            "witness subspaces are orbit spans of a vanishing-at-0 symbol "
            "(constant term would meet the wandering subspace)"
        )
    if min(map(sum, theta.terms)) > basis.degree_cap:
        raise InvalidInputError("degree cap too small for the subspace symbol")
    c, count = basis.coeff_dim, len(basis.index_table)
    shifts = _axis_maps(basis)
    if len(theta.terms) == 1:
        ((gamma, coeff),) = theta.terms.items()
        mask = np.zeros(count, dtype=bool)
        mask[_shift_map(basis, gamma)[1]] = True
        for i, (src, dst, _) in enumerate(shifts):
            if (mask[src] & ~mask[dst]).any():
                raise CertificationError(f"the range of the subspace symbol leaks under shift {i}")
        if mask[0]:
            raise CertificationError("the range of the subspace symbol meets the constants")
        u = _range_frame(coeff)
        row_norms = mask[:, None] * np.linalg.norm(u, axis=1)

        def coords(v: np.ndarray) -> np.ndarray:
            return v[mask] @ u.conj()

        def lift(y: np.ndarray) -> np.ndarray:
            out = np.zeros((count, c), dtype=complex)
            out[mask] = y @ u.T
            return out

    else:
        if basis.dim > _FRAME_DIM:
            raise InvalidInputError(
                f"a subspace symbol of {len(theta.terms)} terms needs a dense frame of dim {basis.dim}, "
                f"beyond the frame budget {_FRAME_DIM}"
            )
        q = _range_frame(_weighted_shift(basis, theta.terms))
        qh = q.conj().T
        row_norms = np.linalg.norm(q, axis=1).reshape(count, c)

        def coords(v: np.ndarray) -> np.ndarray:
            return qh @ v.reshape(-1)

        def lift(y: np.ndarray) -> np.ndarray:
            return (q @ y).reshape(count, c)

    scalars = _dual_orbit_scalars(basis)
    feasible = scalars[:, None] * row_norms > tol
    feasible[0] = False  # |m| > 0
    budget = basis.degree_cap
    for h_index in range(c):
        rows = np.flatnonzero(feasible[:, h_index])
        if not rows.size:
            continue
        k = rows[np.lexsort(basis.index_array[rows].T[::-1])[0]]  # plain lexicographic minimum
        orbit = np.zeros((count, c), dtype=complex)
        orbit[k, h_index] = scalars[k]
        eta = lift(coords(orbit))
        residuals = []
        for src, dst, w in shifts:
            back = np.zeros((count, c), dtype=complex)
            back[src] = w[:, None] * eta[dst]
            residuals.append(float(np.linalg.norm(coords(back))))
        return WitnessResult(
            found=True,
            eta=eta.reshape(-1),
            h_index=h_index,
            m_tilde=basis.index_table[k],
            residuals=tuple(residuals),
            certificate_ok=all(r <= tol for r in residuals),
            budget=budget,
            tol=tol,
        )
    return WitnessResult(False, None, None, None, (), False, budget, tol)
