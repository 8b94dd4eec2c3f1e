"""Exact matrix models of shifts, multipliers, duals, and wandering subspaces.

Every operator here is a dense complex matrix tagged with its domain and
codomain bases plus two integers that make truncation soundness auditable:

``exactness_degree`` (d*)
    The matrix agrees with the untruncated operator on every vector
    supported in degrees <= d*.

``lift``
    The largest amount by which the operator can raise total degree
    (0 for adjoints and projections, 1 for a coordinate shift, deg(Phi)
    for a multiplier).

Composition propagates d* by ``min(d*_B, d*_A - lift(B))``; every certified
property check downstream restricts itself to the certified sub-block.

A practical consequence of compression: a truncated shift or multiplier has
exactly-zero (or truncation-damaged) columns above its exactness degree, so
left-invertibility is only meaningful on the restriction to exact columns.
:func:`cauchy_dual` and :func:`range_projection` therefore restrict to the
columns of degrees <= d*, demand sigma_min > tol there, and re-embed the
remaining columns as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from .errors import (
    CertificationError,
    InvalidInputError,
    NotLeftInvertibleError,
)
from .spaces import (
    MultiIndex,
    MultiplierSymbol,
    SpaceVector,
    TruncatedBasis,
    enumerate_indices,
)

__all__ = [
    "OperatorMatrix",
    "SubspaceFrame",
    "shift_matrix",
    "shift_tuple",
    "multiplier_matrix",
    "compose",
    "opnorm",
    "spectral_radius",
    "null_space_frame",
    "cauchy_dual",
    "range_projection",
    "wandering_subspace",
    "restricted_wandering",
    "principal_angles",
    "frames_match",
    "union_projection",
    "DoublyCommutingReport",
    "doubly_commuting_check",
    "orbit_frame",
    "wandering_span_dimension",
    "WitnessResult",
    "wandering_witness",
]

SVD_THRESHOLD = 1e-10


@dataclass
class OperatorMatrix:
    """A dense complex matrix tagged with bases and exactness bookkeeping."""

    data: np.ndarray
    domain: TruncatedBasis
    codomain: TruncatedBasis
    exactness_degree: int
    lift: int = 0

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

    def adjoint(self, exactness_degree: Optional[int] = None, lift: int = 0) -> "OperatorMatrix":
        """Conjugate transpose; exactness must be supplied by the caller
        because it is operation-specific (adjoints of multipliers are exact
        on the whole truncation, see :func:`gradedshift.purity.adjoint_compression`).
        """
        if exactness_degree is None:
            exactness_degree = self.codomain.degree_cap
        return OperatorMatrix(
            self.data.conj().T, self.codomain, self.domain, exactness_degree, lift
        )


def compose(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a after b, with d* = min(d*_b, d*_a - lift(b))."""
    if a.domain != b.codomain:
        raise InvalidInputError("composition bases do not match")
    return OperatorMatrix(
        a.data @ b.data,
        b.domain,
        a.codomain,
        min(b.exactness_degree, a.exactness_degree - b.lift),
        a.lift + b.lift,
    )


def _as_array(op: Union[OperatorMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(op, OperatorMatrix):
        return op.data
    return np.asarray(op, dtype=complex)


def opnorm(op: Union[OperatorMatrix, np.ndarray]) -> float:
    """Spectral norm."""
    a = _as_array(op)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

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
        """Orthonormalize arbitrary spanning columns through an SVD."""
        cols = np.asarray(cols, dtype=complex)
        if cols.ndim != 2 or cols.shape[1] == 0:
            return SubspaceFrame.empty(cols.shape[0] if cols.ndim == 2 else 0)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(s > tol))
        return SubspaceFrame(u[:, :rank])


def null_space_frame(a: np.ndarray, tol: float = SVD_THRESHOLD) -> SubspaceFrame:
    """Orthonormal basis of the null space, singular values <= tol treated as 0."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return SubspaceFrame(np.eye(a.shape[1], dtype=complex))
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > tol))
    return SubspaceFrame(vh[rank:].conj().T)


def _shift_map(
    basis: TruncatedBasis, beta: MultiIndex
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The monomial positions ``(src, dst)`` with alpha_dst = alpha_src + beta
    inside the truncation, and the weights ``||z^alpha_dst|| / ||z^alpha_src||``."""
    positions = basis._positions
    src, dst = [], []
    for k, alpha in enumerate(basis.index_table):
        j = positions.get(tuple(x + y for x, y in zip(alpha, beta)))
        if j is not None:
            src.append(k)
            dst.append(j)
    src, dst = np.array(src, dtype=int), np.array(dst, dtype=int)
    norms = np.asarray(basis.norms)
    return src, dst, norms[dst] / norms[src]


def _weighted_shift(basis: TruncatedBasis, terms: Dict[MultiIndex, np.ndarray]) -> np.ndarray:
    """The matrix of sum_beta (weighted shift by beta) (x) Phi_beta on V_D.

    Maps ``e_alpha (x) xi`` to ``sum_beta (||z^(alpha+beta)|| / ||z^alpha||)
    e_(alpha+beta) (x) Phi_beta xi``, dropping every alpha + beta outside the
    truncation.  Distinct betas send alpha to distinct blocks, so each block
    is written once and the entries equal ``w * Phi_beta`` exactly.
    """
    c = basis.coeff_dim
    count = len(basis.index_table)
    blocks = np.zeros((count, c, count, c), dtype=complex)
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
    return OperatorMatrix(data, basis, basis, basis.degree_cap - 1, 1)


def shift_tuple(basis: TruncatedBasis) -> List[OperatorMatrix]:
    return [shift_matrix(basis, i) for i in range(basis.n)]


def multiplier_matrix(basis: TruncatedBasis, phi: MultiplierSymbol) -> OperatorMatrix:
    """The matrix of P_D M_Phi |_{V_D}.

    Rows with |alpha + beta| > D are dropped, so exactness_degree is
    D - deg(Phi).  The conjugate transpose of this matrix is the TRUE
    restriction of M_Phi^* to V_D with no truncation error, since V_D is
    invariant under M_Phi^*.
    """
    if phi.n != basis.n:
        raise InvalidInputError(f"symbol has n={phi.n}, basis has n={basis.n}")
    if phi.coeff_dim != basis.coeff_dim:
        raise InvalidInputError(
            f"symbol coeff_dim {phi.coeff_dim} != basis coeff_dim {basis.coeff_dim}"
        )
    data = _weighted_shift(basis, phi.terms)
    return OperatorMatrix(data, basis, basis, basis.degree_cap - phi.degree, phi.degree)


def _restricted_columns(t: OperatorMatrix) -> Tuple[np.ndarray, int]:
    ncols = t.exact_column_count()
    return t.data[:, :ncols], ncols


def cauchy_dual(t: OperatorMatrix, tol: float = 1e-8) -> OperatorMatrix:
    """T' = T (T*T)^(-1) on the exact-column block, zero columns re-embedded.

    Raises :class:`NotLeftInvertibleError` if the restriction is not bounded
    below by ``tol``.  Involution: the dual of the dual reproduces T.
    """
    tr, ncols = _restricted_columns(t)
    if ncols == 0:
        raise NotLeftInvertibleError("no exact columns to invert on", 0.0)
    smin = float(np.linalg.svd(tr, compute_uv=False)[-1])
    if smin <= tol:
        raise NotLeftInvertibleError(
            f"operator not bounded below at truncation scale (sigma_min={smin:.3e})", smin
        )
    gram = tr.conj().T @ tr
    cf = scipy.linalg.cho_factor(gram)
    dual_r = scipy.linalg.cho_solve(cf, tr.conj().T).conj().T
    data = np.zeros_like(t.data)
    data[:, :ncols] = dual_r
    return OperatorMatrix(data, t.domain, t.codomain, t.exactness_degree, t.lift)


def range_projection(t: OperatorMatrix, tol: float = 1e-8) -> OperatorMatrix:
    """Orthogonal projection onto the column span of the exact columns,
    P = T (T*T)^(-1) T*."""
    tr, ncols = _restricted_columns(t)
    if ncols == 0:
        raise NotLeftInvertibleError("no exact columns to project onto", 0.0)
    smin = float(np.linalg.svd(tr, compute_uv=False)[-1])
    if smin <= tol:
        raise NotLeftInvertibleError(
            f"operator not bounded below at truncation scale (sigma_min={smin:.3e})", smin
        )
    gram = tr.conj().T @ tr
    cf = scipy.linalg.cho_factor(gram)
    proj = tr @ scipy.linalg.cho_solve(cf, tr.conj().T)
    return OperatorMatrix(proj, t.codomain, t.codomain, t.exactness_degree, 0)


def wandering_subspace(
    x: Sequence[OperatorMatrix], tol: float = SVD_THRESHOLD
) -> SubspaceFrame:
    """Joint kernel of the adjoints, from the null space of the stacked adjoints."""
    if not x:
        raise InvalidInputError("empty tuple")
    dim = x[0].domain.dim
    for t in x:
        if t.domain.dim != dim:
            raise InvalidInputError("tuple members live on different spaces")
    stacked = np.vstack([t.data.conj().T for t in x])
    return null_space_frame(stacked, tol)


def restricted_wandering(
    x: Sequence[OperatorMatrix], frame: SubspaceFrame, tol: float = SVD_THRESHOLD
) -> SubspaceFrame:
    """Wandering subspace of the tuple restricted to an invariant subspace.

    Works in the frame's own coordinates (R_i = Q* X_i Q), where the
    compressions of the adjoints are free of truncation leakage, and maps
    the joint kernel back through Q.
    """
    q = frame.columns
    if frame.dim == 0:
        return SubspaceFrame.empty(frame.ambient_dim)
    stacked = np.vstack([(q.conj().T @ t.data @ q).conj().T for t in x])
    inner = null_space_frame(stacked, tol)
    if inner.dim == 0:
        return SubspaceFrame.empty(frame.ambient_dim)
    return SubspaceFrame(q @ inner.columns)


def principal_angles(f1: SubspaceFrame, f2: SubspaceFrame) -> np.ndarray:
    """Principal angles between two frames (radians, descending)."""
    if f1.dim == 0 or f2.dim == 0:
        return np.zeros(0)
    return scipy.linalg.subspace_angles(f1.columns, f2.columns)


def frames_match(f1: SubspaceFrame, f2: SubspaceFrame, tol: float = SVD_THRESHOLD) -> bool:
    """Equal dimension and all principal angles <= tol (empty == empty)."""
    if f1.dim != f2.dim:
        return False
    if f1.dim == 0:
        return True
    return float(np.max(principal_angles(f1, f2))) <= tol


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


@dataclass
class DoublyCommutingReport:
    max_commutator: float
    max_cross_commutator: float
    budget_degree: int
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_commutator <= self.tol and self.max_cross_commutator <= self.tol
        )


def doubly_commuting_check(
    x: Sequence[OperatorMatrix], tol: float = 1e-10
) -> DoublyCommutingReport:
    """Max commutator and cross-commutator norms on the certified sub-block.

    Residuals are evaluated only on columns of degrees within the
    exactness-compatible budget (degree <= D-2 for degree-1 shift tuples).
    """
    if len(x) < 2:
        return DoublyCommutingReport(0.0, 0.0, x[0].exactness_degree if x else 0, tol)
    basis = x[0].domain
    budget = min(t.exactness_degree for t in x) - max(t.lift for t in x)
    ncols = basis.dim_upto(budget)
    max_comm = 0.0
    max_cross = 0.0
    for i in range(len(x)):
        for j in range(len(x)):
            if i == j:
                continue
            a, b = x[i].data, x[j].data
            comm = (a @ b - b @ a)[:, :ncols]
            cross = (a.conj().T @ b - b @ a.conj().T)[:, :ncols]
            max_comm = max(max_comm, opnorm(comm))
            max_cross = max(max_cross, opnorm(cross))
    return DoublyCommutingReport(max_comm, max_cross, budget, tol)


def _prefix_steps(n: int, budget: int) -> Iterator[Tuple[MultiIndex, int, MultiIndex]]:
    """``(m, i, prev)`` with m = prev + e_i for every 0 < |m| <= budget, in
    graded-lex order, i being the first nonzero coordinate of m; each prev
    comes before its m."""
    for m in enumerate_indices(n, budget):
        if sum(m) == 0:
            continue
        i = next(k for k, mk in enumerate(m) if mk > 0)
        yield m, i, m[:i] + (m[i] - 1,) + m[i + 1 :]


def _apply_powers(
    x: Sequence[OperatorMatrix], seed: np.ndarray, budget: int
) -> Dict[MultiIndex, np.ndarray]:
    """X^m applied to the seed columns for all |m| <= budget, reusing prefixes."""
    n = x[0].domain.n
    out: Dict[MultiIndex, np.ndarray] = {(0,) * n: seed}
    for m, i, prev in _prefix_steps(n, budget):
        out[m] = x[i].data @ out[prev]
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


def wandering_span_dimension(
    x: Sequence[OperatorMatrix],
    w: SubspaceFrame,
    budget: int,
    tol: float = SVD_THRESHOLD,
) -> int:
    """Rank of span{X^m W : |m| <= budget}."""
    if w.dim == 0:
        return 0
    powers = _apply_powers(x, w.columns, budget)
    big = np.hstack([powers[m] for m in sorted(powers, key=lambda a: (sum(a), a))])
    s = np.linalg.svd(big, compute_uv=False)
    return int(np.sum(s > tol))


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
    """
    q = m_frame.columns
    dim = x[0].domain.dim
    if m_frame.dim == 0:
        raise InvalidInputError("witness search requires a nonzero subspace")
    if m_frame.dim >= dim:
        raise InvalidInputError("witness search requires a proper subspace")
    for i, t in enumerate(x):
        leak = opnorm(t.data @ q - q @ (q.conj().T @ t.data @ q))
        if leak > tol:
            raise InvalidInputError(
                f"subspace not invariant under operator {i} (residual {leak:.3e})"
            )
    w = wandering_subspace(x)
    if w.dim == 0:
        raise InvalidInputError("tuple has trivial wandering subspace")
    overlap = opnorm(q.conj().T @ w.columns)
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
            if sum(m) > 0 and float(np.linalg.norm(q.conj().T @ vec)) > tol
        ]
        if not feasible:
            continue
        m_tilde = min(feasible)  # plain lexicographic minimum
        vec = orbit[m_tilde][:, 0]
        eta = q @ (q.conj().T @ vec)
        residuals = tuple(
            float(np.linalg.norm(q.conj().T @ (t.data.conj().T @ eta))) for t in x
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
