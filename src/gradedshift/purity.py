"""Pure-contraction diagnostics for multiplication operators at truncation.

"Pure" at finite dimension means spectral radius < 1 - tol (equivalent to
adjoint powers tending to zero there).  The headline property this module
certifies: for a contractive polynomial symbol Phi, the spectral radius of
the compression of M_Phi^* to V_D equals rho(Phi(0)) for every D.

The compression of M_Phi^* to V_D is EXACT (V_D is invariant under M_Phi^*
because adjoint monomials lower degree), which is what makes the diagnostic
meaningful: a unimodular eigenvalue of the compression is a genuine
non-decaying vector of the full operator.

The verdict is a structural certificate plus one eig of Phi(0).  The
certificate is the ``(src, dst, w)`` maps of
:func:`gradedshift.operators._shift_map`, each checked once, in O(nnz)
with no dense matrix, when it is built: beta = 0 maps every position to
itself with weight exactly 1.0, and every beta != 0 raises degree by
exactly |beta|.  So the compression is block upper-triangular by degree
with diagonal blocks I (x) Phi(0)^*, and its spectrum at every degree is
that of Phi(0)^*.  This is the finite form of the paper's (i) <=> (ii).  A
map that breaks the structure raises ``CertificationError`` and is not
memoised, so every verdict is "pure" or "not_pure".  Dense per-degree
``eigvals`` run only as a cross-check (``tests/oracles.py``): on
non-normal block-triangular matrices they are evidence, not proof.

The certificate reads only a symbol's support and the basis, so a sweep
fetches the maps of each distinct support once per call.  Only checked
maps enter the basis's memo, so a warm verdict is a map lookup plus one
eig of Phi(0); verdicts, norms, Grams and residuals are computed on every
call.  A sweep norms its colligations with one batched SVD and takes every
rho(Phi(0)) from one batched ``eigvals``; its results equal those of
one-symbol calls bit for bit.

A sweep builds its symbols as one (k, M, c, c) coefficient stack.  A
product plan (:func:`_product_plan`), worked out once per (n, f, linear)
from the multi-indices alone, lists the M terms of a product of f pencils
A + sum_i z_i sqrt(q_i) B_i C_i and, step by step, which pairs of terms sum
into each; a step is one batched matmul of every pair, summed in the order
of :func:`gradedshift.spaces.symbol_product` chained one factor at a time,
so every coefficient equals that route's to the last bit.  A realization
plan (:func:`_realization_plan`), worked out once per (domain, c, degree),
holds the draw's shape, the roots sqrt(q_i) and the product plan, so a
call pays for its draw alone.  Each support's multi-indices are checked
once per distinct (n, support), and each stack's coefficients get one
shape check and one read-only copy, once per stack
(:meth:`gradedshift.spaces.MultiplierSymbol.stack`).  The colligation
norms, the contractivity refusal, the shift-map fetch of each support and
the Phi(0) spectra run on every call.

A verdict needs ||M_Phi|| <= 1, and takes it from a contractivity
certificate of one of two kinds, with no norm of a matrix on V_D.

Realization.  Every sweep symbol of degree d is a product Phi_1 ... Phi_d
of transfer functions Phi_k(z) = A + B E(z) C of colligations U_k =
[[A, B], [C, 0]] with ||U_k|| = r_k <= 1.  On a polydisc E(z) = (+)_i
sqrt(q_i) z_i I_h maps H^n to itself; on a ball the row E(z) = sqrt(q)
[z_1 I_h ... z_n I_h] maps H^n to H, so U_k maps E (+) H to E (+) H^n.
The scales q_i come from the kernel (:func:`_realization_scales`): on a
polydisc factor with k_i = sum_m c_m x^m, q_i = min(1, inf_m c_m /
c_(m-1)); on a ball with k = sum_j a_j x^j, q = min(1, inf_j a_j /
a_(j-1)) on every axis.  With K(z) = [I, B E(z)], K(z) U_k = [Phi_k(z),
B], and comparing K(z) (r_k^2 I - U_k U_k^*) K(w)^* with K(z) K(w)^*
gives

    r_k^2 I - Phi_k(z) Phi_k(w)^* = B (I - r_k^2 E(z) E(w)^*) B^*
                                    + K(z) (r_k^2 I - U_k U_k^*) K(w)^*.

The second term is a positive kernel.  I - r^2 E(z) E(w)^* is (+)_i (1 -
r^2 q_i z_i w_i~) I_h on a polydisc and (1 - r^2 q <z, w>) I_h on a ball.
k (1 - q_i z_i w_i~) has the coefficients c_m - q_i c_(m-1) >= 0 in z_i
w_i~ times the other factors, so it is a positive kernel, and so is k (1 -
r^2 q_i x) = k (1 - q_i x) + (1 - r^2) q_i x k; on a ball likewise with
a_j - q a_(j-1) >= 0.  So k (r_k^2 - Phi_k Phi_k^*) is a positive kernel,
which is ||M_Phi_k|| <= r_k.  With every q = 1 this is the statement for
the Szego kernel (Agler 1990) or the Drury-Arveson kernel
(Ball-Trent-Vinnikov 2001) times a positive kernel: Hardy, Bergman,
weighted Bergman with alpha <= 1 and H_m(B_n) have q = 1, Dirichlet has q
= 1/2 and weighted Bergman with alpha in (1, 2) has q = 2 - alpha.  A
custom kernel's q is read off its given coefficients, so the argument
holds for the kernel continued past them at a ratio >= q.  M_(Phi Psi) =
M_Phi M_Psi, so ||M_Phi|| <= prod_k r_k, the bound the symbol records with
its geometry and scales.  Degree 0 is the constant A of one colligation.
The record holds on a space of the same geometry whose q is at least the
recorded one on every axis (a ball realization need not be contractive on
a polydisc).  A slice z_i := 0 keeps the record with q_i dropped: it is the
transfer function of U_k with the blocks of axis i (on a ball, of
coordinate i) cut out, a compression of norm <= r_k.

Coefficient bound.  A symbol with no record that holds (from a config, or
scaled or lifted) is bounded through its coefficients.  ||z_i^m||^2 = 1/c_m
on a polydisc factor, so ||M_(z_i)||^2 = sup_m c_m / c_(m+1) <= 1/q_i; on
a ball ||z^(alpha+e_i)||^2 / ||z^alpha||^2 = (alpha_i + 1) / (|alpha| + 1)
a_j / a_(j+1) <= 1/q, j = |alpha|.  The M_(z_i) commute, so ||M_Phi|| <=
sum_alpha ||Phi_alpha|| prod_i q_i^(-alpha_i / 2).  If the coefficients
vanish off the diagonal blocks of a partition of the coefficient
directions, M_Phi is a permutation of the direct sum of the blocks'
multipliers, whose norm is the largest block norm.  So ``coefficient_sum``
is the largest such sum over the connected components of Phi's
coefficient pattern: diag(1, z) gets 1, not 2.  It needs no basis and no
SVD larger than a block.  A norm on a truncation could not serve: it is a
compression norm, a lower bound on ||M_Phi||.

Either bound meets the ``NotContractiveError`` refusal.  A forced sweep
symbol u (+) Phi_inner with |u| = 1 records max(|u|, r), r the record of
Phi_inner, by the direct-sum argument (for coeff_dim = 1, the constant u
records |u|).  The jet of a transfer function need not be contractive; it
is certified on V_D itself, with no norm.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import CertificationError, InvalidInputError, NotContractiveError
from .kernels import KernelSpec1D
from .operators import _adjoints, _check_symbol, _opnorms, _shift_map, opnorm
from .spaces import (
    _BASIS_MEMO_SIZE,
    MAX_DIM,
    BallDomain,
    Domain,
    MultiIndex,
    MultiplierSymbol,
    PolydiscDomain,
    TruncatedBasis,
    _stack_chunks,
    ball_basis,
    lift_scalar_symbol,
    polydisc_basis,
    slice_symbol,
)

__all__ = [
    "basis_for",
    "decay_curve",
    "PurityReport",
    "multiplier_purity_verdict",
    "InvariantRestrictionReport",
    "invariant_restriction_test",
    "SliceConsistencyReport",
    "slice_purity_consistency",
    "random_contractive_symbol",
]


def basis_for(domain: Domain, degree_cap: int, coeff_dim: int) -> TruncatedBasis:
    """Build the truncated basis of a domain descriptor at the given cap."""
    if isinstance(domain, PolydiscDomain):
        return polydisc_basis(domain.factors, degree_cap, coeff_dim)
    if isinstance(domain, BallDomain):
        return ball_basis(domain.spec, degree_cap, coeff_dim)
    raise InvalidInputError(f"unknown domain {domain!r}")


def _adjoint_step(phi: MultiplierSymbol, basis: TruncatedBasis) -> Callable[[np.ndarray], np.ndarray]:
    """v -> A v, A the compression of M_Phi^* to V_D, (A v)_alpha = sum_beta
    w Phi_beta^* v_(alpha+beta) off the shift maps.  A table with a row per
    monomial and a column per term holds the coordinates of alpha + beta and
    w Phi_beta^* (zero where alpha + beta leaves V_D), so a step is one gather
    and one batched matmul at any term count, with no dim x dim matrix."""
    _check_symbol(basis, phi)
    c = basis.coeff_dim
    monomials = basis.dim // c
    reads = np.zeros((monomials, len(phi.terms), c), dtype=int)
    coeffs = np.zeros((monomials, len(phi.terms), c, c), dtype=complex)
    for t, (beta, mat) in enumerate(phi.terms.items()):
        src, dst, w = _shift_map(basis, beta)
        reads[src, t] = c * dst[:, None] + np.arange(c)
        coeffs[src, t] = w[:, None, None] * mat.conj()
    reads, coeffs = reads.reshape(monomials, 1, -1), coeffs.reshape(monomials, -1, c)
    return lambda v: (v[reads] @ coeffs).reshape(-1)


def _adjoint_orbit(phi: MultiplierSymbol, basis: TruncatedBasis, h: np.ndarray, m_max: int) -> Iterator[np.ndarray]:
    """h, A h, ..., A^m_max h (:func:`_adjoint_step`); refuses an h without ``basis.dim`` entries."""
    step = _adjoint_step(phi, basis)
    v = np.asarray(h, dtype=complex).reshape(-1)
    if v.size != basis.dim:
        raise InvalidInputError(f"vector has {v.size} entries, V_D has dim {basis.dim}")
    return itertools.accumulate(range(m_max), lambda w, _: step(w), initial=v)


def decay_curve(
    phi: MultiplierSymbol,
    basis: TruncatedBasis,
    h: np.ndarray,
    m_max: int,
    tol: float = 1e-10,
) -> List[float]:
    """(||A^m h||)_{m=0..m_max}, A the compression of M_Phi^* to V_D, with
    Phi certified as a purity verdict certifies it.  A restricts M_Phi^* (V_D
    is invariant), so ||A|| <= ||M_Phi|| <= 1 + tol and the curve does not
    rise beyond that slack."""
    _contractivity(phi, basis.domain, tol)
    return [float(np.linalg.norm(v)) for v in _adjoint_orbit(phi, basis, h, m_max)]


# The kinds of contractivity certificate (see the module docstring)
REALIZATION = "realization"
COEFFICIENT_SUM = "coefficient_sum"
_BOUND_NAMES = {REALIZATION: "realization norm bound", COEFFICIENT_SUM: "coefficient bound"}


class Contractivity(NamedTuple):
    """A bound on ||M_Phi|| and the kind of certificate it comes from."""

    kind: str
    bound: float


@dataclass
class PurityReport:
    """The purity verdict of a symbol on V_D.

    ``phi0_rho`` is rho(Phi(0)), by the structural certificate the spectral
    radius of the adjoint compression at every degree <= D; verdict is
    "pure" iff phi0_rho < 1 - tol.  ``near_boundary`` flags spectra within
    tol of 1 without reclassifying them.  ``contractivity`` is the upper
    bound on ||M_Phi|| the verdict checked (a realization record where it
    holds, else the block coefficient bound), or None for a jet.
    """

    phi0_rho: float
    verdict: str
    tol: float
    contractivity: Optional[Contractivity]
    near_boundary: bool


def _ratio_floor(coeffs: Sequence[float]) -> float:
    """min(1, the smallest ratio of consecutive coefficients)."""
    return min([1.0] + [b / a for a, b in zip(coeffs, coeffs[1:])])


def _factor_scale(spec: KernelSpec1D) -> float:
    """q = min(1, inf_m c_m / c_(m-1)) of a one-variable kernel, in closed
    form for the named families: (m + 1 - alpha) / m is least at m = 1."""
    if spec.family == "dirichlet":
        return 0.5
    if spec.family == "weighted_bergman":
        return min(1.0, 2.0 - spec.alpha)
    if spec.family == "custom":
        return _ratio_floor(spec.custom_coeffs)
    return 1.0


@lru_cache(maxsize=_BASIS_MEMO_SIZE)
def _realization_scales(domain: Domain) -> Tuple[float, ...]:
    """One q_i in (0, 1] per axis such that every realization with E(z)
    scaled by sqrt(q_i) on axis i is a contractive multiplier of the
    domain's space (see the module docstring): per factor on a polydisc,
    and min(1, inf_j a_j / a_(j-1)) on every axis of a ball.  Memoised per
    domain: they depend on the kernel alone."""
    if isinstance(domain, PolydiscDomain):
        return tuple(_factor_scale(f) for f in domain.factors)
    spec = domain.spec
    q = 1.0 if spec.family == "hm" else _ratio_floor(spec.a_coeffs)
    return (q,) * domain.n


def _coefficient_bound(phi: MultiplierSymbol, domain: Domain) -> float:
    """The largest sum_alpha ||Phi_alpha|| prod_i q_i^(-alpha_i / 2) over
    the blocks of Phi's coefficient pattern (see the module docstring):
    one batched SVD of each block's weighted coefficients."""
    if not phi.terms:
        return 0.0
    scales = _realization_scales(domain)
    weights = [math.prod(q ** (-a / 2) for q, a in zip(scales, alpha)) for alpha in phi.terms]
    stack = np.array(weights)[:, None, None] * np.array(list(phi.terms.values()))
    # i ~ j where some coefficient links them, closed by repeated squaring
    linked = np.any(stack != 0, axis=0) | np.eye(phi.coeff_dim, dtype=bool)
    linked |= linked.T
    while not np.array_equal(wider := linked @ linked, linked):
        linked = wider
    # each block once, as the row of its first direction
    blocks = (np.flatnonzero(row) for i, row in enumerate(linked) if row.argmax() == i)
    return max(float(_opnorms(stack[:, idx[:, None], idx]).sum()) for idx in blocks)


def _contractivity(phi: MultiplierSymbol, domain: Domain, tol: float) -> Contractivity:
    """The bound on ||M_Phi|| that a verdict or a decay curve checks: the
    realization ``phi`` recorded, where it holds on ``domain`` (the same
    geometry, with scales at least the recorded ones on every axis), else
    the coefficient bound.  ``NotContractiveError`` if it is above 1 + tol."""
    (kind, scales), cert = phi.contractivity_record or ((None, ()), None)
    if kind != domain.kind or not all(map(operator.ge, _realization_scales(domain), scales)):
        cert = Contractivity(COEFFICIENT_SUM, _coefficient_bound(phi, domain))
    if cert.bound > 1.0 + tol:
        raise NotContractiveError(f"{_BOUND_NAMES[cert.kind]} {cert.bound:.12f} exceeds 1 + {tol}")
    return cert


def _phi0_radii(phis: Sequence[MultiplierSymbol]) -> np.ndarray:
    """rho(Phi(0)) of every symbol, from one batched ``eigvals`` per chunk:
    LAPACK runs the same geev on each matrix as on that matrix alone.  The
    chunk is stacked from the read-only terms themselves."""
    c, zero = phis[0].coeff_dim, (0,) * phis[0].n
    absent = np.zeros((c, c), dtype=complex)
    radii = np.empty(len(phis))
    for part in _stack_chunks(len(phis), 16 * c * c):
        stack = np.array([phi.terms.get(zero, absent) for phi in phis[part]])
        radii[part] = np.abs(np.linalg.eigvals(stack)).max(axis=-1)
    return radii


def _purity_verdicts(
    phis: Sequence[MultiplierSymbol],
    domain: Domain,
    d_max: int,
    tol: float = 1e-8,
    check_contractive: bool = True,
) -> List[PurityReport]:
    """Purity verdicts of symbols on one space (one n and coeff_dim), each
    equal to its own :func:`multiplier_purity_verdict` bit for bit.

    In symbol order, each symbol's bound (:func:`_contractivity`) meets
    the refusal, and the shift maps of V_D_max of each support not yet seen
    in this call are fetched in support order: a map is certified when it
    is built (:func:`gradedshift.operators._shift_map`), and only certified
    maps are memoised, so the first broken term of a support is named and
    a warm basis costs a lookup per term.  Bounds and the Phi(0) spectra
    (one batched ``eigvals``) are computed on every call.

    ``check_contractive=False`` certifies on V_D_max and takes no norm;
    ``contractivity`` is then None.  Its callers are
    :func:`gradedshift.dilation.schur_agler_purity`, whose jets need not be
    contractive, and :func:`gradedshift.dilation._bcl_certificates`, whose
    isometry-defect bound certifies contractivity.
    """
    if not phis:
        return []
    basis = basis_for(domain, d_max, phis[0].coeff_dim)
    for phi in phis:
        _check_symbol(basis, phi)
    certs: List[Optional[Contractivity]] = []
    fetched = set()
    for phi in phis:
        certs.append(_contractivity(phi, domain, tol) if check_contractive else None)
        if tuple(phi.terms) not in fetched:
            for beta in phi.terms:
                _shift_map(basis, beta)
            fetched.add(tuple(phi.terms))
    return [
        PurityReport(
            phi0_rho=rho,
            verdict="pure" if rho < 1.0 - tol else "not_pure",
            tol=tol,
            contractivity=cert,
            near_boundary=abs(rho - 1.0) <= tol,
        )
        for cert, rho in zip(certs, _phi0_radii(phis).tolist())
    ]


def multiplier_purity_verdict(
    phi: MultiplierSymbol, domain: Domain, d_max: int, tol: float = 1e-8
) -> PurityReport:
    """Purity verdict for a contractive polynomial symbol on a graded family.

    Contractivity is the realization recorded by
    :func:`random_contractive_symbol` where it holds on ``domain``, else
    the block coefficient bound: upper bounds on ||M_Phi|| that assemble no
    matrix.  The spectra come from the structural certificate on V_D_max
    and one eig of Phi(0).  This is the one-symbol case of a sweep.
    """
    (report,) = _purity_verdicts([phi], domain, d_max, tol)
    return report


def _isometry_defect_bounds(basis: TruncatedBasis, support: Sequence[MultiIndex], coeffs: np.ndarray) -> np.ndarray:
    """||R(0) - I|| + 2 sum_(gamma > 0) ||R(gamma)|| for each symbol Theta of
    a ``(k, M, c, c)`` coefficient stack on ``support``, R(gamma) =
    sum_(beta - beta' = gamma) Theta_beta'^* Theta_beta, gamma > 0
    lexicographically: a bound on ||M_Theta^* M_Theta - I|| on the Hardy
    polydisc, from one batched matmul and one batched SVD.

    Proof.  M_Theta^* M_Theta = sum S^(beta'*) S^beta (x) Theta_beta'^*
    Theta_beta.  The Hardy shifts are doubly commuting isometries, so
    S^(beta'*) S^beta = S^(b*) S^a =: T_gamma, a and b the positive and
    negative parts of gamma = beta - beta', with ||T_gamma|| <= 1, T_0 = I
    and T_(-gamma) = T_gamma^*, as R(-gamma) = R(gamma)^*.  So M_Theta^*
    M_Theta - I is I (x) (R(0) - I) plus T_gamma (x) R(gamma) + its adjoint
    over gamma > 0.  It compresses to the defect of M_Theta's exact columns
    on V_D, and ||M_Theta||^2 <= 1 + the bound.  ``basis`` must have every
    monomial norm exactly 1.0 (else ``CertificationError``)."""
    if np.any(basis.norm_array != 1.0):
        raise CertificationError("a Hardy monomial norm is not exactly 1.0, so shifts are not isometries")
    pairs: Dict[MultiIndex, List[Tuple[int, int]]] = {}
    for (i, beta_i), (j, beta_j) in itertools.product(enumerate(support), repeat=2):
        gamma = tuple(map(operator.sub, beta_j, beta_i))
        if gamma >= (0,) * len(gamma):
            pairs.setdefault(gamma, []).append((i, j))
    grams = _adjoints(coeffs)[:, :, None] @ coeffs[:, None]
    # gamma = 0 comes first, from the pair (0, 0)
    blocks = [reduce(operator.add, [grams[:, i, j] for i, j in ij]) for ij in pairs.values()]
    blocks[0] = blocks[0] - np.eye(coeffs.shape[-1], dtype=complex)
    norms = _opnorms(np.stack(blocks, axis=1))
    return norms[:, 0] + 2 * norms[:, 1:].sum(axis=1)


@dataclass
class InvariantRestrictionReport:
    """Geometric-decay check of ||P_S M_phi^*m P_S (1 (x) xi)||.

    Asserts only the consecutive-term RATIO |phi(0)| on the certified
    m-range; the measured constant (the m=0 value) is recorded, not
    asserted.
    """

    s_values: List[float]
    ratios: List[float]
    target_ratio: float
    certified_m_max: int
    max_ratio_error: float
    measured_constant: float
    passed: bool
    tol: float


def invariant_restriction_test(
    phi: MultiplierSymbol,
    theta: MultiplierSymbol,
    basis: TruncatedBasis,
    m_max: int,
    tol: float = 1e-8,
) -> InvariantRestrictionReport:
    """Decay of the compressed adjoint powers on S = theta . V_(D - deg theta)
    with no matrix on V_D.

    Preconditions: scalar phi; a Hardy polydisc basis matching theta's
    coefficient dimension; theta(0) != 0; theta inner by
    :func:`_isometry_defect_bounds` <= 1e-10; D >= 2 deg theta + deg phi.
    Then P_S (1 (x) xi) = M_theta M_theta^* (1 (x) xi) = theta(z) theta(0)^*
    xi, and ||P_S w|| is the norm of M_theta^* w (one :func:`_adjoint_step`)
    on degrees <= D - deg theta.
    """
    if phi.coeff_dim != 1:
        raise InvalidInputError("test requires a scalar symbol phi")
    if not isinstance(basis.domain, PolydiscDomain) or any(f.family != "hardy" for f in basis.domain.factors):
        raise InvalidInputError("test requires a Hardy polydisc basis")
    if opnorm(theta.phi0) <= tol:
        raise InvalidInputError("theta(0) must be nonzero")
    theta_star = _adjoint_step(theta, basis)
    coeffs = np.array(list(theta.terms.values()))
    (iso_defect,) = _isometry_defect_bounds(basis, tuple(theta.terms), coeffs[None])
    if iso_defect > 1e-10:
        raise InvalidInputError(f"theta is not inner (isometry defect bound {iso_defect:.3e})")
    certified = min(max(0, (basis.degree_cap - 2 * theta.degree) // max(phi.degree, 1)), m_max)
    if certified < 1:
        raise InvalidInputError(
            "exactness budget too small for deg theta + m deg phi growth "
            f"(largest certified m = {certified})"
        )
    # xi: a direction not annihilated by theta(0)^* (top left singular vector)
    xi = np.linalg.svd(theta.phi0)[0][:, 0]
    h = np.zeros((basis.dim // basis.coeff_dim, basis.coeff_dim), dtype=complex)
    h[[basis.position(beta) for beta in theta.terms]] = coeffs @ (theta.phi0.conj().T @ xi)
    exact = basis.dim_upto(basis.degree_cap - theta.degree)
    orbit = _adjoint_orbit(lift_scalar_symbol(phi, basis.coeff_dim), basis, h, m_max)
    s_values = [float(np.linalg.norm(theta_star(w)[:exact])) for w in orbit]
    target = float(np.abs(phi.phi0[0, 0]))
    ratios: List[float] = []
    errors: List[float] = []
    floor = 1e-14 * max(s_values[0], 1.0)
    for m in range(len(s_values) - 1):
        if s_values[m] <= floor:
            break
        r = s_values[m + 1] / s_values[m]
        ratios.append(r)
        if m < certified:
            errors.append(abs(r - target))
    max_err = max(errors, default=0.0)
    return InvariantRestrictionReport(
        s_values=s_values,
        ratios=ratios,
        target_ratio=target,
        certified_m_max=certified,
        max_ratio_error=max_err,
        measured_constant=s_values[0],
        passed=bool(errors) and max_err <= tol,
        tol=tol,
    )


@dataclass
class SliceConsistencyReport:
    full_verdict: str
    slice_verdicts: List[str]
    consistent: bool


def slice_purity_consistency(
    phi: MultiplierSymbol,
    domain: PolydiscDomain,
    d_max: int,
    tol: float = 1e-8,
    axis: Optional[int] = None,
) -> SliceConsistencyReport:
    """Purity verdict must be invariant under slicing an axis to zero.

    ``axis=None`` checks every axis.  A slice keeps the realization record,
    and its coefficient bound is at most the full symbol's (it drops
    terms), so no slice of a symbol whose bound passed is refused.
    """
    if any(f.family != "hardy" for f in domain.factors):
        raise InvalidInputError("slice consistency is stated on Hardy polydiscs")
    if domain.n < 2:
        raise InvalidInputError("slicing needs n >= 2")
    full = multiplier_purity_verdict(phi, domain, d_max, tol)
    axes = range(domain.n) if axis is None else [axis]
    slices: List[str] = []
    for i in axes:
        sub = PolydiscDomain(domain.factors[:i] + domain.factors[i + 1 :])
        rep = multiplier_purity_verdict(slice_symbol(phi, i), sub, d_max, tol)
        slices.append(rep.verdict)
    return SliceConsistencyReport(
        full_verdict=full.verdict,
        slice_verdicts=slices,
        consistent=all(s == full.verdict for s in slices),
    )


def _colligation_shape(domain: Domain, c: int) -> Tuple[int, int]:
    """The shape of a colligation [[A, B], [C, 0]] with h = c: E (+) H^n
    to itself on a polydisc, E (+) H to E (+) H^n on a ball."""
    inputs = domain.n if isinstance(domain, PolydiscDomain) else 1
    return c + domain.n * c, c + inputs * c


class _RealizationPlan(NamedTuple):
    """What the realized symbols of one space, c and degree share
    (:func:`_realization_plan`): a call adds only its draw."""

    c: int
    degree: int
    shape: Tuple[int, ...]  # one symbol's (f, 2, rows, cols) draw, f = max(degree, 1)
    roots: Tuple[Tuple[int, float], ...]  # (i, sqrt(q_i)) on every axis with q_i != 1
    support: Tuple[MultiIndex, ...]  # support and steps: the product plan of f pencils
    steps: Tuple


@lru_cache(maxsize=_BASIS_MEMO_SIZE)
def _realization_plan(domain: Domain, c: int, degree: int) -> _RealizationPlan:
    """The plan of the realized symbols of coefficient dimension c and the
    given degree on ``domain``: their draw's shape (:func:`_colligation_shape`),
    the roots of the scales (:func:`_realization_scales`) and the
    :func:`_product_plan` of their f pencils.  Memoised per ``(domain, c,
    degree)``; it holds no draw, norm or record.  A symbol with more than
    ``MAX_DIM`` coefficient rows is refused, and a refusal is not kept."""
    n = domain.n
    if c * math.comb(degree + n, n) > MAX_DIM:
        raise InvalidInputError(
            f"a degree-{degree} symbol in {n} variables with coeff_dim {c} has more "
            f"than MAX_DIM = {MAX_DIM} coefficient rows"
        )
    f = max(degree, 1)
    roots = tuple((i, math.sqrt(q)) for i, q in enumerate(_realization_scales(domain)) if q != 1.0)
    support, steps = _product_plan(n, f, degree > 0)
    return _RealizationPlan(c, degree, (f, 2) + _colligation_shape(domain, c), roots, support, steps)


def _frozen(values: Sequence[int]) -> np.ndarray:
    out = np.array(values)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=_BASIS_MEMO_SIZE)
def _product_plan(n: int, f: int, linear: bool) -> Tuple[Tuple[MultiIndex, ...], Tuple]:
    """The support of a product of f pencils with the terms 1 and, if
    ``linear``, z_1, ..., z_n, and the steps that sum it, worked out from
    the multi-indices alone.  The support is in the order in which
    :func:`gradedshift.spaces.symbol_product`, chained left to right, first
    meets each term.  Step s multiplies by pencil s + 1, whose F terms pair
    with the M terms of the partial product as pairs a F + b, and is
    ``(first, rounds)``: new term j starts as pair ``first[j]``, and each
    round ``(g, p)`` adds the next pair to every new term ``g`` that has
    one, in that function's order, so the sums round as they do there."""
    factor = [(0,) * n] + ([tuple(int(j == i) for j in range(n)) for i in range(n)] if linear else [])
    support, steps = factor, []
    for _ in range(f - 1):
        pairs: Dict[MultiIndex, List[int]] = {}
        for a, alpha in enumerate(support):
            for b, beta in enumerate(factor):
                pairs.setdefault(tuple(map(operator.add, alpha, beta)), []).append(a * len(factor) + b)
        rounds = [
            [(g, terms[r]) for g, terms in enumerate(pairs.values()) if len(terms) > r]
            for r in range(max(map(len, pairs.values())))
        ]
        (_, first), *rest = (tuple(map(_frozen, zip(*pairs_r))) for pairs_r in rounds)
        steps.append((first, tuple(rest)))
        support = list(pairs)
    return tuple(support), tuple(steps)


def _expand(pencils: np.ndarray, steps: Tuple) -> np.ndarray:
    """The ``(k, M, c, c)`` coefficients of the products of a ``(k, f, F,
    c, c)`` stack of pencils, along the steps of :func:`_product_plan`: one
    batched matmul of every pair of terms per step."""
    coeffs = pencils[:, 0]
    for s, (first, rounds) in enumerate(steps, start=1):
        pairs = coeffs[:, :, None] @ pencils[:, s, None]
        pairs = pairs.reshape((len(pairs), -1) + pairs.shape[-2:])
        coeffs = pairs.take(first, axis=1)
        for g, p in rounds:
            coeffs[:, g] += pairs[:, p]
    return coeffs


def _recorded(
    domain: Domain, support: Sequence[MultiIndex], coeffs: np.ndarray, bounds: Sequence[float]
) -> List[MultiplierSymbol]:
    """The symbols of a coefficient stack, each recording its realization
    bound under the domain's geometry and scales."""
    key = (domain.kind, _realization_scales(domain))
    symbols = MultiplierSymbol.stack(domain.n, coeffs.shape[-1], support, coeffs)
    for phi, bound in zip(symbols, bounds):
        phi.contractivity_record = (key, Contractivity(REALIZATION, bound))
    return symbols


def _with_unitary_constants(
    domain: Domain,
    phases: Sequence[complex],
    support: Sequence[MultiIndex],
    inner: np.ndarray,
    bounds: Sequence[float],
) -> List[MultiplierSymbol]:
    """blockdiag(u, Phi_inner) for each phase u and ``(M, h, h)`` inner
    stack of a ``(k, M, h, h)`` stack whose support starts with 0,
    recording max(|u|, r), r the inner bound: M_Phi is a permutation of u I
    (+) M_inner.  With h = 0 it is the constant u, recording |u|."""
    k, m, h, _ = inner.shape
    coeffs = np.zeros((k, m, h + 1, h + 1), dtype=complex)
    coeffs[:, :, 1:, 1:] = inner
    coeffs[:, 0, 0, 0] = phases
    return _recorded(domain, support, coeffs, [max(abs(u), r) for u, r in zip(phases, bounds)])


def _realized_symbols(
    domain: Domain, plan: _RealizationPlan, gauss: np.ndarray, phases: Optional[List[complex]] = None
) -> List[MultiplierSymbol]:
    """One symbol per row of a ``(k,) + plan.shape`` stack ``gauss``: the
    product of the transfer functions A + B E(z) C of its f colligations
    ``gauss[:, j, 0] + 1j gauss[:, j, 1]`` with the lower right block set to
    0, each scaled to norm 0.99 (one batched SVD per chunk), and E(z) scaled
    by sqrt(q_i) on axis i (``plan.roots``; an axis with q_i = 1 is left as
    it is).  At degree 0 it is the A of its one colligation.  Each records
    its geometry and scales with the product of its colligations' norms.
    With ``phases``, row s gives blockdiag(phases[s], that product)
    (:func:`_with_unitary_constants`).

    The products of all rows are expanded together along the plan's
    :func:`_product_plan`, with batched matmuls, in chunks of at most
    ``_STACK_BYTES`` of coefficients; each chunk is one
    :meth:`MultiplierSymbol.stack`."""
    k, f, _, rows, cols = gauss.shape
    if k == 0:
        return []
    c, n = plan.c, domain.n
    u = (gauss[:, :, 0] + 1j * gauss[:, :, 1]).reshape(k * f, rows, cols)
    u[:, c:, c:] = 0.0
    norms = np.empty(k * f)
    for part in _stack_chunks(k * f, 16 * rows * cols):
        norms[part] = _opnorms(u[part])
    if not norms.all():
        raise InvalidInputError("degenerate zero random colligation")
    factors = 0.99 / norms
    u = factors[:, None, None] * u
    bounds = [math.prod(row) for row in (factors * norms).reshape(k, f).tolist()]
    # each pencil's terms: A, then the z_i coefficient B_i C_i, where B_i is
    # the i-th column block of B on a polydisc and all of B on a ball, C_i
    # the i-th row block of C
    pencils = u[:, None, :c, :c]
    if plan.degree:
        b = u[:, :c, c:].reshape(k * f, c, -1, c).transpose(0, 2, 1, 3)
        lin = b @ u[:, c:, :c].reshape(k * f, n, c, c)
        for i, root in plan.roots:
            lin[:, i] *= root
        pencils = np.concatenate((pencils, lin), axis=1)
    pencils = pencils.reshape((k, f) + pencils.shape[1:])
    h = c if phases is None else c + 1
    symbols = []
    for part in _stack_chunks(k, 16 * h * h * len(plan.support)):
        coeffs = _expand(pencils[part], plan.steps)
        if phases is None:
            symbols += _recorded(domain, plan.support, coeffs, bounds[part])
        else:
            symbols += _with_unitary_constants(domain, phases[part], plan.support, coeffs, bounds[part])
    return symbols


def _random_symbols(
    rng: np.random.Generator,
    domain: Domain,
    coeff_dim: int,
    degree: int,
    count: int,
    forced: int,
) -> List[MultiplierSymbol]:
    """``count`` plain then ``forced`` unitary-constant symbols, equal bit
    for bit to as many :func:`random_contractive_symbol` calls on ``rng``,
    which is left in the same state.

    One ``standard_normal`` call draws the plain symbols' ``(count, f, 2,
    rows, cols)`` stack of colligations, f = max(degree, 1).  Then each
    forced symbol draws its phase and its inner symbol's stack of size c -
    1.  A stack's colligations are normed together
    (:func:`_realized_symbols`), on the :func:`_realization_plan` of its
    size.
    """
    if degree < 0 or coeff_dim < 1:
        raise InvalidInputError(f"need degree >= 0 and coeff_dim >= 1, got {degree}, {coeff_dim}")
    plan = _realization_plan(domain, coeff_dim, degree)
    gauss = rng.standard_normal((count,) + plan.shape)
    phases, inner = [], []
    inner_plan = _realization_plan(domain, coeff_dim - 1, degree) if forced and coeff_dim > 1 else None
    for _ in range(forced):
        phases.append(complex(np.exp(2j * math.pi * rng.uniform())))
        if inner_plan is not None:
            inner.append(rng.standard_normal(inner_plan.shape))
    symbols = _realized_symbols(domain, plan, gauss)
    if not forced:
        return symbols
    if inner_plan is None:
        constants = np.zeros((forced, 1, 0, 0))
        return symbols + _with_unitary_constants(domain, phases, [(0,) * domain.n], constants, [0.0] * forced)
    inner_gauss = np.array(inner).reshape((forced,) + inner_plan.shape)
    return symbols + _realized_symbols(domain, inner_plan, inner_gauss, phases)


def random_contractive_symbol(
    rng: np.random.Generator,
    domain: Domain,
    coeff_dim: int,
    degree: int,
    d_max: int,
    unitary_constant: bool = False,
) -> MultiplierSymbol:
    """Seeded random contractive polynomial symbol, on every kernel family.

    Plain branch: the product of ``degree`` transfer functions A + B E(z) C
    of complex Gaussian colligations [[A, B], [C, 0]] with h = coeff_dim,
    each scaled to norm 0.99, and E(z) scaled on each axis by the root of
    the space's ratio bound q_i (:func:`_realization_scales`; 1 on Hardy,
    Bergman, weighted Bergman alpha <= 1 and H_m, 1/2 on Dirichlet), so
    ||M_Phi|| <= 0.99^degree; degree 0 gives one colligation's A.  It
    records the product of the colligation norms as a realization, keyed by
    the geometry and the scales.  ``d_max`` is not read: a realization
    needs no truncation, and the argument stays for its callers.

    ``unitary_constant=True`` populates the non-pure branch: a contractive
    multiplier with unitary constant term is constant in the unitary
    directions, so the symbol is blockdiag(unimodular u, a symbol drawn by
    the same rule on the other dims), recording max(|u|, r); for coeff_dim
    = 1 it is u.  This is the one-symbol case of a sweep's generator.
    """
    count, forced = (0, 1) if unitary_constant else (1, 0)
    (phi,) = _random_symbols(rng, domain, coeff_dim, degree, count, forced)
    return phi
