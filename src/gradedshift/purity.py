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
certificate reads the ``(src, dst, w)`` maps of
:func:`gradedshift.operators._shift_map`, in O(nnz) with no dense matrix:
beta = 0 maps every position to itself with weight exactly 1.0, and every
beta != 0 raises degree by exactly |beta|.  So the compression is block
upper-triangular by degree with diagonal blocks I (x) Phi(0)^*, and its
spectrum at every degree is that of Phi(0)^*.  This is the finite form of
the paper's (i) <=> (ii).  A map that breaks the structure raises
``CertificationError``, so every verdict is "pure" or "not_pure".  Dense
per-degree ``eigvals`` run only as a cross-check (``tests/oracles.py``): on
non-normal block-triangular matrices they are evidence, not proof.

The certificate reads only a symbol's support and the basis, never its
coefficients, so a call that takes a stack of symbols on one space (a
sweep) certifies each distinct support once per call; no outcome is
cached across calls.  Such a call draws, assembles and norms the padded
matrices as stacks and takes every rho(Phi(0)) from one batched
``eigvals``; its results equal those of one-symbol calls bit for bit.

Contractivity of a symbol is certified on a padded truncation (degree
D_max + deg Phi) as a surrogate for the multiplier norm; random sweep
symbols are rescaled by f = 0.99 / padded-norm, which bounds every
compression norm by 0.99 since compressions nest inside the padded matrix.
Such a symbol records the norm f * ||A_raw|| it was certified with, and a
verdict on the same padded truncation reports that as ``padded_norm``
instead of taking the SVD again.  A forced (non-pure) sweep symbol
blockdiag(u, Phi_inner) with |u| = 1 records max(|u|, r), r the record of
Phi_inner: the beta = 0 shift map is the identity with weight exactly 1.0,
so on every truncation M_Phi is a permutation of u I (+) M_inner; for
coeff_dim = 1 it is the constant u and records |u|.  No forced symbol is
assembled or normed at full size.  The jet of a transfer function need not
be contractive; it is certified on V_D itself, with no padded norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CertificationError, InvalidInputError, NotContractiveError
from .operators import (
    OperatorMatrix,
    SubspaceFrame,
    _opnorms,
    _shift_map,
    _weighted_shift,
    multiplier_matrix,
    opnorm,
)
from .spaces import (
    BallDomain,
    Domain,
    MultiIndex,
    MultiplierSymbol,
    PolydiscDomain,
    TruncatedBasis,
    _stack_chunks,
    ball_basis,
    enumerate_indices,
    lift_scalar_symbol,
    polydisc_basis,
    slice_symbol,
)

__all__ = [
    "basis_for",
    "adjoint_compression",
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


def adjoint_compression(phi: MultiplierSymbol, basis: TruncatedBasis) -> OperatorMatrix:
    """The matrix of M_Phi^* restricted to V_D -- exact, with d* = D."""
    fwd = multiplier_matrix(basis, phi)
    return fwd.adjoint(exactness_degree=basis.degree_cap, lift=0)


def decay_curve(
    t: Union[OperatorMatrix, np.ndarray],
    h: np.ndarray,
    m_max: int,
    tol: float = 1e-10,
) -> List[float]:
    """(||T^m h||)_{m=0..m_max} for a contraction T; nonincreasing by construction."""
    a = t.data if isinstance(t, OperatorMatrix) else np.asarray(t, dtype=complex)
    norm = opnorm(a)
    if norm > 1.0 + tol:
        raise NotContractiveError(f"operator norm {norm:.12f} exceeds 1 + {tol}")
    v = np.asarray(h, dtype=complex).reshape(-1)
    curve = [float(np.linalg.norm(v))]
    for _ in range(m_max):
        v = a @ v
        curve.append(float(np.linalg.norm(v)))
    return curve


@dataclass
class PurityReport:
    """Spectral radii of the adjoint compression at every degree vs rho(Phi(0)).

    Every ``per_degree_rho[d]`` is ``phi0_rho``, by the structural
    certificate (see the module docstring).  verdict is "pure" iff phi0_rho
    < 1 - tol and "not_pure" otherwise.  ``near_boundary``
    flags spectra within tol of 1 (indeterminate at tolerance) without
    reclassifying them.  ``padded_norm`` is the SVD of the padded matrix,
    or, for a symbol from :func:`random_contractive_symbol` on the same
    padded truncation, the norm it recorded: f * ||A_raw|| for a plain
    symbol, the exact direct-sum norm max(|u|, r) for a forced one; None
    for a jet.
    """

    per_degree_rho: Dict[int, float]
    phi0_rho: float
    verdict: str
    tol: float
    padded_norm: Optional[float]
    near_boundary: bool


def _certify_degree_structure(basis: TruncatedBasis, support: Sequence[MultiIndex]) -> None:
    """Certify on the shift maps that M_Phi on V_D, for any Phi with this
    support, is block lower-triangular by degree with diagonal blocks
    I (x) Phi(0); raise ``CertificationError`` otherwise."""
    degrees = basis.index_array.sum(axis=1)
    for beta in support:
        src, dst, w = _shift_map(basis, beta)
        lift = sum(beta)
        if lift == 0:
            ok = (
                np.array_equal(src, np.arange(len(degrees)))
                and np.array_equal(dst, src)
                and bool(np.all(w == 1.0))
            )
        else:
            ok = np.array_equal(degrees[dst], degrees[src] + lift)
        if not ok:
            raise CertificationError(
                f"shift map of term {beta} breaks the degree grading of V_{basis.degree_cap}"
            )


def _padded_norms(
    basis: TruncatedBasis, support: Sequence[MultiIndex], coeffs: np.ndarray
) -> np.ndarray:
    """The norms on ``basis`` of the multipliers with a ``(k, len(support),
    c, c)`` coefficient stack: one scatter per beta and one batched SVD per
    chunk of the stack (see ``spaces._STACK_BYTES``)."""
    norms = np.empty(len(coeffs))
    for part in _stack_chunks(len(coeffs), 16 * basis.dim**2):
        chunk = coeffs[part]
        terms = {beta: chunk[:, t] for t, beta in enumerate(support)}
        norms[part] = _opnorms(_weighted_shift(basis, terms, len(chunk)))
    return norms


def _phi0_radii(phis: Sequence[MultiplierSymbol]) -> np.ndarray:
    """rho(Phi(0)) of every symbol, from one batched ``eigvals`` per chunk:
    LAPACK runs the same geev on each matrix as on that matrix alone."""
    c = phis[0].coeff_dim
    radii = np.empty(len(phis))
    for part in _stack_chunks(len(phis), 16 * c * c):
        stack = np.array([phi.phi0 for phi in phis[part]])
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

    The symbols without a usable norm record are assembled and normed as
    stacks, one per padded truncation and support.  In symbol order, each
    norm meets the ``NotContractiveError`` refusal and each support not yet
    seen in this call is certified on the shift maps; nothing is cached
    across calls.  The Phi(0) spectra come from one batched ``eigvals``.

    ``check_contractive=False`` certifies on V_D_max and takes no norm;
    ``padded_norm`` is then None.  Its callers are
    :func:`gradedshift.dilation.schur_agler_purity`, whose jets need not be
    contractive, and :func:`gradedshift.dilation._bcl_certificates`, whose
    isometry-defect bound certifies contractivity.
    """
    if not phis:
        return []
    c = phis[0].coeff_dim
    # (degree, support) of each symbol; the degree names its basis
    keys = [(phi.degree, tuple(phi.terms)) for phi in phis]
    bases: Dict[int, TruncatedBasis] = {}
    norms: List[Optional[float]] = [None] * len(phis)
    stacks: Dict[Tuple[int, Tuple[MultiIndex, ...]], List[int]] = {}
    for i, (phi, (deg, _)) in enumerate(zip(phis, keys)):
        if phi.n != domain.n:
            raise InvalidInputError(f"symbol has n={phi.n}, basis has n={domain.n}")
        if deg not in bases:
            bases[deg] = basis_for(domain, d_max + (deg if check_contractive else 0), c)
        if not check_contractive:
            continue
        record = phi.padded_norm_record
        if record is not None and record[0] == (domain, d_max + deg, c):
            norms[i] = record[1]
        else:
            stacks.setdefault(keys[i], []).append(i)
    for (deg, support), members in stacks.items():
        coeffs = np.array([[phis[i].terms[b] for b in support] for i in members])
        coeffs = coeffs.reshape(len(members), len(support), c, c)
        for i, norm in zip(members, _padded_norms(bases[deg], support, coeffs)):
            norms[i] = float(norm)
    certified = set()
    for norm, key in zip(norms, keys):
        if norm is not None and norm > 1.0 + tol:
            raise NotContractiveError(f"padded multiplier norm {norm:.12f} exceeds 1 + {tol}")
        if key not in certified:
            _certify_degree_structure(bases[key[0]], key[1])
            certified.add(key)
    reports = []
    for norm, rho in zip(norms, _phi0_radii(phis)):
        rho = float(rho)
        reports.append(
            PurityReport(
                per_degree_rho=dict.fromkeys(range(d_max + 1), rho),
                phi0_rho=rho,
                verdict="pure" if rho < 1.0 - tol else "not_pure",
                tol=tol,
                padded_norm=norm,
                near_boundary=abs(rho - 1.0) <= tol,
            )
        )
    return reports


def multiplier_purity_verdict(
    phi: MultiplierSymbol, domain: Domain, d_max: int, tol: float = 1e-8
) -> PurityReport:
    """Purity verdict for a contractive polynomial symbol on a graded family.

    The norm check runs on the padded truncation V_(D_max + deg Phi): the
    norm recorded by :func:`random_contractive_symbol` when its key is this
    truncation's, else the SVD of the matrix assembled there.  The spectra
    come from the structural certificate and one eig of Phi(0).  This is
    the one-symbol case of the stacked verdict of a sweep.
    """
    (report,) = _purity_verdicts([phi], domain, d_max, tol)
    return report


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
    """Decay of the compressed adjoint powers on S = theta . V, theta inner.

    Preconditions: scalar phi; theta inner at truncation (isometric exact
    columns) with theta(0) != 0; basis is a Hardy polydisc basis matching
    theta's coefficient dimension.
    """
    if phi.coeff_dim != 1:
        raise InvalidInputError("test requires a scalar symbol phi")
    if not isinstance(basis.domain, PolydiscDomain) or any(
        f.family != "hardy" for f in basis.domain.factors
    ):
        raise InvalidInputError("test requires a Hardy polydisc basis")
    if opnorm(theta.phi0) <= tol:
        raise InvalidInputError("theta(0) must be nonzero")
    pi = multiplier_matrix(basis, theta)
    cols, ncols = pi.data[:, : pi.exact_column_count()], pi.exact_column_count()
    if ncols == 0:
        raise InvalidInputError("degree cap too small for deg theta")
    iso_defect = opnorm(cols.conj().T @ cols - np.eye(ncols))
    if iso_defect > 1e-10:
        raise InvalidInputError(
            f"theta is not inner at truncation (isometry defect {iso_defect:.3e})"
        )
    frame = SubspaceFrame.from_columns(cols)
    q = frame.columns
    # xi: a direction not annihilated by theta(0)^* (top left singular vector)
    u, _, _ = np.linalg.svd(theta.phi0)
    xi = u[:, 0]
    one_xi = np.zeros(basis.dim, dtype=complex)
    one_xi[: basis.coeff_dim] = xi
    comp = adjoint_compression(lift_scalar_symbol(phi, basis.coeff_dim), basis)
    v = q @ (q.conj().T @ one_xi)
    s_values = [float(np.linalg.norm(q.conj().T @ v))]
    w = v
    for _ in range(m_max):
        w = comp.data @ w
        s_values.append(float(np.linalg.norm(q.conj().T @ w)))
    target = float(np.abs(phi(tuple([0.0] * phi.n))[0, 0]))
    deg_phi = max(phi.degree, 1)
    certified = max(0, (basis.degree_cap - 2 * theta.degree) // deg_phi)
    certified = min(certified, m_max)
    if certified < 1:
        raise InvalidInputError(
            "exactness budget too small for deg theta + m deg phi growth "
            f"(largest certified m = {certified})"
        )
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

    ``axis=None`` checks every axis.  Slices of a symbol certified on the
    padded full-space truncation stay certified: the sliced multiplier
    matrix is a compression of the full one, so the padded-norm
    precondition cannot fail on a slice.
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


def _scaled_symbols(
    domain: Domain, support: Tuple[MultiIndex, ...], gauss: np.ndarray, padded_cap: int
) -> List[MultiplierSymbol]:
    """The symbols with coefficients ``gauss[:, :, 0] + 1j gauss[:, :, 1]``
    on ``support``, each scaled to norm 0.99 on the padded truncation
    V_padded_cap and recording it."""
    k, _, _, c, _ = gauss.shape
    if k == 0:
        return []
    coeffs = gauss[:, :, 0] + 1j * gauss[:, :, 1]
    padded = basis_for(domain, padded_cap, c)
    norms = _padded_norms(padded, support, coeffs)
    if np.any(norms == 0.0):
        raise InvalidInputError("degenerate zero random symbol")
    factors = 0.99 / norms
    scaled = factors[:, None, None, None] * coeffs
    key = (domain, padded.degree_cap, c)
    symbols = []
    for mats, recorded in zip(scaled, factors * norms):
        phi = MultiplierSymbol(domain.n, c, dict(zip(support, mats)))
        phi.padded_norm_record = (key, float(recorded))
        symbols.append(phi)
    return symbols


def _with_unitary_constant(u: complex, inner: MultiplierSymbol) -> MultiplierSymbol:
    """blockdiag(u, inner): the unimodular constant u on the first
    coefficient direction, ``inner`` on the others.

    It records max(|u|, r) on the key of the norm r that ``inner`` records,
    with the coefficient dimension one larger: the beta = 0 shift map is the
    identity with weight 1.0 (:func:`_certify_degree_structure`), so on
    every truncation M_Phi is a permutation of u I (+) M_inner.
    """
    c = inner.coeff_dim + 1
    terms: Dict[MultiIndex, np.ndarray] = {}
    for alpha, mat in inner.terms.items():
        big = np.zeros((c, c), dtype=complex)
        big[1:, 1:] = mat
        terms[alpha] = big
    zero = (0,) * inner.n
    base = terms.get(zero, np.zeros((c, c), dtype=complex))
    base[0, 0] = u
    terms[zero] = base
    phi = MultiplierSymbol(inner.n, c, terms)
    (domain, cap, _), norm = inner.padded_norm_record
    phi.padded_norm_record = ((domain, cap, c), max(abs(u), norm))
    return phi


def _unimodular_constant(u: complex, domain: Domain, d_max: int) -> MultiplierSymbol:
    """The 1x1 constant symbol u, recording |u|: M_u = u I on V_d_max."""
    phi = MultiplierSymbol(domain.n, 1, {(0,) * domain.n: np.array([[u]])})
    phi.padded_norm_record = ((domain, d_max, 1), abs(u))
    return phi


def _random_symbols(
    rng: np.random.Generator,
    domain: Domain,
    coeff_dim: int,
    degree: int,
    d_max: int,
    count: int,
    forced: int,
) -> List[MultiplierSymbol]:
    """``count`` plain then ``forced`` unitary-constant symbols, equal bit
    for bit to as many :func:`random_contractive_symbol` calls on ``rng``,
    which is left in the same state.

    One ``standard_normal((count, T, 2, c, c))`` draws the plain symbols
    (T terms, real and imaginary parts); then each forced symbol draws its
    phase and its inner symbol's coefficients.  The padded matrices of each
    stack are assembled and normed together (see :func:`_padded_norms`);
    a forced symbol records its direct-sum norm without a matrix of its
    own (see :func:`_with_unitary_constant`).
    """
    n = domain.n
    support = enumerate_indices(n, degree)
    shape = (len(support), 2, coeff_dim - 1, coeff_dim - 1)
    gauss = rng.standard_normal((count, len(support), 2, coeff_dim, coeff_dim))
    phases, inner = [], []
    for _ in range(forced):
        phases.append(complex(np.exp(2j * math.pi * rng.uniform())))
        if coeff_dim > 1:
            inner.append(rng.standard_normal(shape))
    symbols = _scaled_symbols(domain, support, gauss, d_max + degree)
    if coeff_dim == 1:
        return symbols + [_unimodular_constant(u, domain, d_max) for u in phases]
    inner_gauss = np.array(inner).reshape((forced,) + shape)
    inner_symbols = _scaled_symbols(domain, support, inner_gauss, d_max + degree)
    return symbols + [_with_unitary_constant(u, phi) for u, phi in zip(phases, inner_symbols)]


def random_contractive_symbol(
    rng: np.random.Generator,
    domain: Domain,
    coeff_dim: int,
    degree: int,
    d_max: int,
    unitary_constant: bool = False,
) -> MultiplierSymbol:
    """Seeded random polynomial symbol, certified on the padded truncation.

    Plain branch: iid complex Gaussian coefficient matrices rescaled by
    f = 0.99 / padded-norm, so every compression at degrees <= d_max has
    norm <= 0.99; the symbol records f * ||A_raw|| as its
    ``padded_norm_record``.  ``unitary_constant=True`` populates the
    non-pure branch: a contractive multiplier with unitary constant term is
    constant in the unitary directions, so the symbol is
    blockdiag(unimodular constant u, random contractive symbol on the
    remaining dims), and it records the exact norm max(|u|, r) of the
    direct sum u I (+) M_inner, r the inner symbol's record; for
    coeff_dim = 1 it is the constant u and records |u| on V_d_max.  This
    is the one-symbol case of a sweep's stacked generator.
    """
    count, forced = (0, 1) if unitary_constant else (1, 0)
    (phi,) = _random_symbols(rng, domain, coeff_dim, degree, d_max, count, forced)
    return phi
