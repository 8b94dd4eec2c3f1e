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
``CertificationError``; the verdict "inconsistent" stays in the report
schema but is no longer produced.  Dense per-degree ``eigvals`` run only
as a cross-check (``tests/oracles.py``): on non-normal block-triangular
matrices they are evidence, not proof.

Contractivity of a symbol is certified on a padded truncation (degree
D_max + deg Phi) as a surrogate for the multiplier norm; random sweep
symbols are rescaled by f = 0.99 / padded-norm, which bounds every
compression norm by 0.99 since compressions nest inside the padded matrix.
Such a symbol records the norm f * ||A_raw|| it was certified with, and a
verdict on the same padded truncation reports that as ``padded_norm``
instead of taking the SVD again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import CertificationError, InvalidInputError, NotContractiveError
from .operators import (
    OperatorMatrix,
    SubspaceFrame,
    _shift_map,
    multiplier_matrix,
    opnorm,
    spectral_radius,
)
from .spaces import (
    BallDomain,
    Domain,
    MultiplierSymbol,
    PolydiscDomain,
    TruncatedBasis,
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
    < 1 - tol and "not_pure" otherwise; "inconsistent" is no longer
    produced, since a broken structure raises instead.  ``near_boundary``
    flags spectra within tol of 1 (indeterminate at tolerance) without
    reclassifying them.  ``padded_norm`` is the SVD of the padded matrix,
    or, for a symbol from :func:`random_contractive_symbol` on the same
    padded truncation, the f * ||A_raw|| it recorded.
    """

    per_degree_rho: Dict[int, float]
    phi0_rho: float
    verdict: str
    tol: float
    padded_norm: float
    near_boundary: bool
    decay_samples: Optional[List[float]] = None


def _certify_degree_structure(basis: TruncatedBasis, phi: MultiplierSymbol) -> None:
    """Certify on the shift maps that M_Phi on V_D is block lower-triangular
    by degree with diagonal blocks I (x) Phi(0); raise ``CertificationError``
    otherwise."""
    degrees = basis.index_array.sum(axis=1)
    for beta in phi.terms:
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


def multiplier_purity_verdict(
    phi: MultiplierSymbol,
    domain: Domain,
    d_max: int,
    tol: float = 1e-8,
    check_contractive: bool = True,
    decay_m_max: Optional[int] = None,
) -> PurityReport:
    """Purity verdict for a contractive polynomial symbol on a graded family.

    The norm check runs on the padded truncation V_(D_max + deg Phi): the
    norm recorded by :func:`random_contractive_symbol` when its key is this
    truncation's, else the SVD of the matrix assembled there.  The spectra
    come from the structural certificate and one eig of Phi(0).  The
    operator of the decay curve is the compression to V_D_max, sliced from
    the padded matrix: V_d is a leading principal block of the graded
    layout, so the slice equals a fresh assembly on V_d entry for entry.

    ``check_contractive=False`` is reserved for degree-D jets of transfer
    functions, whose compressions are exact even though the jet polynomial
    itself need not be a contractive multiplier.
    """
    padded = basis_for(domain, d_max + phi.degree, phi.coeff_dim)
    record = phi.padded_norm_record
    fwd = None
    if record is not None and record[0] == (domain, padded.degree_cap, padded.coeff_dim):
        padded_norm = record[1]
    else:
        fwd = multiplier_matrix(padded, phi).data
        padded_norm = opnorm(fwd)
    if check_contractive and padded_norm > 1.0 + tol:
        raise NotContractiveError(
            f"padded multiplier norm {padded_norm:.12f} exceeds 1 + {tol}"
        )
    _certify_degree_structure(padded, phi)
    phi0_rho = spectral_radius(phi.phi0)
    decay = None
    if decay_m_max is not None:
        if fwd is None:
            fwd = multiplier_matrix(padded, phi).data
        k = padded.dim_upto(d_max)
        comp = fwd[:k, :k].conj().T
        h = np.zeros(k, dtype=complex)
        h[: phi.coeff_dim] = 1.0 / math.sqrt(phi.coeff_dim)
        decay = decay_curve(comp, h, decay_m_max, tol=max(tol, 1e-10))
    return PurityReport(
        per_degree_rho=dict.fromkeys(range(d_max + 1), phi0_rho),
        phi0_rho=phi0_rho,
        verdict="pure" if phi0_rho < 1.0 - tol else "not_pure",
        tol=tol,
        padded_norm=padded_norm,
        near_boundary=abs(phi0_rho - 1.0) <= tol,
        decay_samples=decay,
    )


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
    blockdiag(unimodular constant, random contractive symbol on the
    remaining dims), with no record; for coeff_dim = 1 it is a unimodular
    constant.
    """
    n = domain.n
    if unitary_constant:
        u = complex(np.exp(2j * math.pi * rng.uniform()))
        if coeff_dim == 1:
            return MultiplierSymbol(n, 1, {(0,) * n: np.array([[u]])})
        inner = random_contractive_symbol(
            rng, domain, coeff_dim - 1, degree, d_max, unitary_constant=False
        )
        terms: Dict[Tuple[int, ...], np.ndarray] = {}
        for alpha, mat in inner.terms.items():
            big = np.zeros((coeff_dim, coeff_dim), dtype=complex)
            big[1:, 1:] = mat
            terms[alpha] = big
        zero = (0,) * n
        base = terms.get(zero, np.zeros((coeff_dim, coeff_dim), dtype=complex))
        base[0, 0] = u
        terms[zero] = base
        return MultiplierSymbol(n, coeff_dim, terms)
    terms = {}
    for alpha in enumerate_indices(n, degree):
        terms[alpha] = rng.standard_normal((coeff_dim, coeff_dim)) + 1j * rng.standard_normal(
            (coeff_dim, coeff_dim)
        )
    raw = MultiplierSymbol(n, coeff_dim, terms)
    padded = basis_for(domain, d_max + raw.degree, coeff_dim)
    norm = opnorm(multiplier_matrix(padded, raw))
    if norm == 0.0:
        raise InvalidInputError("degenerate zero random symbol")
    factor = 0.99 / norm
    phi = raw.scaled(factor)
    phi.padded_norm_record = ((domain, padded.degree_cap, coeff_dim), factor * norm)
    return phi
