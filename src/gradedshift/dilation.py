"""Transfer-function realizations, BCL isometry pairs, and dilation certificates.

The three constructions here share one finite-dimensional skeleton: a
unitary block matrix U = [[A, B], [C, D]] acting on E (+) H_1 (+) ... (+)
H_{n-1}, the symbol Phi(z) = A + B E(z) (I - D E(z))^{-1} C it generates,
and matrix models of the multiplication tuple it dilates to.  Everything is
certified post hoc at stated tolerances; nothing relies on the (infinite
dimensional) existence arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError
from .kernels import hardy
from .operators import (
    OperatorMatrix,
    multiplier_matrix,
    opnorm,
    shift_matrix,
    spectral_radius,
)
from .purity import PurityReport, _purity_verdicts, basis_for
from .spaces import (
    MultiIndex,
    MultiplierSymbol,
    PolydiscDomain,
    enumerate_indices,
    symbol_product,
)

__all__ = [
    "Colligation",
    "transfer_eval",
    "transfer_jet",
    "BCLTriple",
    "bcl_pair",
    "BCLCertificate",
    "bcl_dilation_certify",
    "JetPurityReport",
    "schur_agler_purity",
    "haar_unitary",
    "random_bcl_triple",
]

UNITARITY_TOL = 1e-10
PROJECTION_TOL = 1e-12
JET_CAP = 64


@dataclass
class Colligation:
    """Unitary colligation U = [[a, b], [c, d]] on E (+) H_1 (+) ... (+) H_k.

    ``a`` maps E to E, ``d`` maps the internal sum of the H_i to itself;
    the assembled block matrix must be unitary to 1e-10.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    h_dims: Tuple[int, ...]
    e_dim: int

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex)
        self.c = np.asarray(self.c, dtype=complex)
        self.d = np.asarray(self.d, dtype=complex)
        self.h_dims = tuple(int(h) for h in self.h_dims)
        self.e_dim = int(self.e_dim)
        if self.e_dim < 1 or not self.h_dims or any(h < 1 for h in self.h_dims):
            raise InvalidInputError("colligation needs e_dim >= 1 and nonempty h_dims >= 1")
        h = sum(self.h_dims)
        e = self.e_dim
        shapes = (self.a.shape, self.b.shape, self.c.shape, self.d.shape)
        if shapes != ((e, e), (e, h), (h, e), (h, h)):
            raise InvalidInputError(f"block shapes {shapes} inconsistent with e={e}, h={h}")
        u = self.unitary
        defect = opnorm(u.conj().T @ u - np.eye(e + h))
        if defect > UNITARITY_TOL:
            raise InvalidInputError(f"colligation block matrix not unitary (defect {defect:.3e})")

    @property
    def n_vars(self) -> int:
        return len(self.h_dims)

    @property
    def unitary(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

    def diag_indicator(self, i: int) -> np.ndarray:
        """The block indicator J_i of H_i inside the internal space."""
        h = sum(self.h_dims)
        j = np.zeros((h, h), dtype=complex)
        start = sum(self.h_dims[:i])
        for k in range(start, start + self.h_dims[i]):
            j[k, k] = 1.0
        return j


def _transfer_values(c: Colligation, points: Sequence[Sequence[complex]]) -> np.ndarray:
    """Phi(z) = a + b E(z) (I - d E(z))^{-1} c at interior points of D^k,
    as a ``(len(points), e, e)`` stack: one batched solve for all points."""
    z = np.array(points, dtype=complex)
    if z.ndim != 2 or z.shape[1] != c.n_vars:
        raise InvalidInputError(f"points of shape {z.shape}, colligation has {c.n_vars} variables")
    if not np.all(np.abs(z) < 1.0):
        raise InvalidInputError("transfer function is evaluated strictly inside the polydisc")
    # E(z): z_i on the diagonal of each H_i block
    h = sum(c.h_dims)
    ez = np.zeros((len(z), h, h), dtype=complex)
    ez[:, np.arange(h), np.arange(h)] = np.repeat(z, c.h_dims, axis=1)
    # c as a (1, h, e) stack: numpy 1.x reads a 2-D right-hand side against
    # a 3-D stack as a stack of vectors
    resolvent = np.linalg.solve(np.eye(h) - c.d @ ez, c.c[None])
    return c.a + c.b @ ez @ resolvent


def transfer_eval(c: Colligation, z: Sequence[complex]) -> np.ndarray:
    """Phi(z) at one interior point of D^k (see :func:`_transfer_values`)."""
    return _transfer_values(c, [z])[0]


def transfer_jet(c: Colligation, degree: int) -> MultiplierSymbol:
    """Degree-``degree`` Taylor jet of the transfer function as a symbol.

    Coefficients follow the convolution recurrence R_{e_i} = J_i,
    R_beta = sum_i J_i d R_{beta - e_i}; Phi_beta = b R_beta c, Phi_0 = a.
    """
    if degree < 0:
        raise InvalidInputError("jet degree must be >= 0")
    if degree > JET_CAP:
        raise InvalidInputError(f"jet degree {degree} beyond cap {JET_CAP}")
    n = c.n_vars
    js = [c.diag_indicator(i) for i in range(n)]
    terms: Dict[MultiIndex, np.ndarray] = {(0,) * n: c.a}
    r: Dict[MultiIndex, np.ndarray] = {}
    for beta in enumerate_indices(n, degree):
        k = sum(beta)
        if k == 0:
            continue
        if k == 1:
            i = beta.index(1)
            r[beta] = js[i]
        else:
            acc = np.zeros_like(c.d)
            for i in range(n):
                if beta[i] >= 1:
                    prev = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
                    acc += js[i] @ c.d @ r[prev]
            r[beta] = acc
        coeff = c.b @ r[beta] @ c.c
        if not np.all(np.isfinite(coeff)):
            raise InvalidInputError(f"jet coefficient overflow at {beta}")
        terms[beta] = coeff
    return MultiplierSymbol(n, c.e_dim, terms)


@dataclass
class BCLTriple:
    """The data (E, U, P) generating the degree-one inner pair on axis p."""

    e_dim: int
    u: np.ndarray
    p: np.ndarray
    axis: int = 0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=complex)
        self.p = np.asarray(self.p, dtype=complex)
        e = int(self.e_dim)
        if self.u.shape != (e, e) or self.p.shape != (e, e):
            raise InvalidInputError("U and P must be square of size e_dim")
        if opnorm(self.u.conj().T @ self.u - np.eye(e)) > UNITARITY_TOL:
            raise InvalidInputError("U is not unitary to 1e-10")
        if (
            opnorm(self.p @ self.p - self.p) > PROJECTION_TOL
            or opnorm(self.p - self.p.conj().T) > PROJECTION_TOL
        ):
            raise InvalidInputError("P is not an orthogonal projection to 1e-12")
        if self.axis < 0:
            raise InvalidInputError("axis must be >= 0")

    @property
    def p_perp(self) -> np.ndarray:
        return np.eye(self.e_dim, dtype=complex) - self.p


def bcl_pair(t: BCLTriple, n_vars: Optional[int] = None) -> Tuple[MultiplierSymbol, MultiplierSymbol]:
    """The pair Phi_p(z) = (P + z_p P_perp) U*, Phi_q(z) = U (P_perp + z_p P).

    Both have degree <= 1 in z_p only, and Phi_p Phi_q = Phi_q Phi_p =
    z_p I as an exact polynomial-coefficient identity.
    """
    n = n_vars if n_vars is not None else t.axis + 1
    if n < t.axis + 1:
        raise InvalidInputError(f"n_vars {n} too small for axis {t.axis}")
    uh = t.u.conj().T
    zero = (0,) * n
    ep = tuple(1 if i == t.axis else 0 for i in range(n))
    phi_p = MultiplierSymbol(n, t.e_dim, {zero: t.p @ uh, ep: t.p_perp @ uh})
    phi_q = MultiplierSymbol(n, t.e_dim, {zero: t.u @ t.p_perp, ep: t.u @ t.p})
    return phi_p, phi_q


def _pair_product_error(t: BCLTriple, phi_p: MultiplierSymbol, phi_q: MultiplierSymbol) -> float:
    """Coefficient-wise error of Phi_p Phi_q = Phi_q Phi_p = z_p I."""
    n = phi_p.n
    ep = tuple(1 if i == t.axis else 0 for i in range(n))
    target = MultiplierSymbol(n, t.e_dim, {ep: np.eye(t.e_dim, dtype=complex)})
    worst = 0.0
    for prod in (symbol_product(phi_p, phi_q), symbol_product(phi_q, phi_p)):
        keys = set(prod.terms) | set(target.terms)
        zero = np.zeros((t.e_dim, t.e_dim), dtype=complex)
        for k in keys:
            diff = prod.terms.get(k, zero) - target.terms.get(k, zero)
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


@dataclass
class BCLCertificate:
    """Certificate for the commuting-isometry tuple generated by a BCL triple.

    The tuple is (M_{z_i} for i != axis, M_{Phi_p}, M_{Phi_q}) on the
    truncated Hardy space of D^{n-1} (x) E; residuals are measured on
    exactness blocks only.
    """

    product_coeff_error: float
    max_commutator: float
    max_isometry_defect: float
    rho_p: float
    rho_q: float
    verdict_p: str
    verdict_q: str
    consistent_p: bool
    consistent_q: bool
    tol: float
    purity_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.product_coeff_error <= 1e-12
            and self.max_commutator <= self.tol
            and self.max_isometry_defect <= self.tol
            and self.consistent_p
            and self.consistent_q
        )


def bcl_dilation_certify(
    t: BCLTriple,
    n: int,
    degree_cap: int,
    tol: float = 1e-10,
    purity_tol: float = 1e-8,
) -> BCLCertificate:
    """Certify the n-tuple of commuting isometries generated by a BCL triple.

    Residual gates: pairwise commutators and column-isometry defects <= tol
    on exactness blocks; pure branch of M_{Phi_p} iff rho(P U*) < 1 -
    purity_tol, and of M_{Phi_q} iff rho(U P_perp) < 1 - purity_tol.
    """
    if n < 2:
        raise InvalidInputError("dilation tuple needs n >= 2")
    if not 0 <= t.axis <= n - 2:
        raise InvalidInputError(f"axis {t.axis} out of range for n - 1 = {n - 1} variables")
    phi_p, phi_q = bcl_pair(t, n - 1)
    product_err = _pair_product_error(t, phi_p, phi_q)
    domain = PolydiscDomain((hardy(),) * (n - 1))
    basis = basis_for(domain, degree_cap, t.e_dim)
    ops: List[OperatorMatrix] = [
        shift_matrix(basis, i) for i in range(n - 1) if i != t.axis
    ]
    ops.append(multiplier_matrix(basis, phi_p))
    ops.append(multiplier_matrix(basis, phi_q))
    max_comm = 0.0
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            a, b = ops[i], ops[j]
            budget = min(a.exactness_degree, b.exactness_degree) - max(a.lift, b.lift)
            ncols = basis.dim_upto(budget)
            if ncols == 0:
                continue
            comm = (a.data @ b.data - b.data @ a.data)[:, :ncols]
            max_comm = max(max_comm, opnorm(comm))
    max_iso = 0.0
    for op in ops:
        cols = op.data[:, : op.exact_column_count()]
        if cols.shape[1] == 0:
            continue
        max_iso = max(max_iso, opnorm(cols.conj().T @ cols - np.eye(cols.shape[1])))
    # Phi_p(0) is P U* and Phi_q(0) is U P_perp, so these are rho(P U*), rho(U P_perp)
    rep_p, rep_q = _purity_verdicts([phi_p, phi_q], domain, degree_cap, purity_tol)
    rho_p, rho_q = rep_p.phi0_rho, rep_q.phi0_rho
    cut = 1.0 - purity_tol
    consistent_p = (rep_p.verdict == "pure") == (rho_p < cut)
    consistent_q = (rep_q.verdict == "pure") == (rho_q < cut)
    return BCLCertificate(
        product_coeff_error=product_err,
        max_commutator=max_comm,
        max_isometry_defect=max_iso,
        rho_p=rho_p,
        rho_q=rho_q,
        verdict_p=rep_p.verdict,
        verdict_q=rep_q.verdict,
        consistent_p=consistent_p,
        consistent_q=consistent_q,
        tol=tol,
        purity_tol=purity_tol,
    )


@dataclass
class JetPurityReport:
    """Purity verdict of the degree-D Taylor jet of a transfer function.

    The verdict is jet-certified to the stated degree: compression spectra
    at degrees <= D depend only on coefficients <= D, so they are exact for
    the rational symbol; the jet polynomial itself need not be a
    contractive multiplier, so it is certified on V_D with no padded norm.
    """

    report: PurityReport
    jet_degree: int
    rho_a: float


def schur_agler_purity(c: Colligation, degree_cap: int, tol: float = 1e-8) -> JetPurityReport:
    """Purity verdict of the transfer function via its degree-D jet."""
    jet = transfer_jet(c, degree_cap)
    domain = PolydiscDomain((hardy(),) * c.n_vars)
    (report,) = _purity_verdicts([jet], domain, degree_cap, tol, check_contractive=False)
    return JetPurityReport(report=report, jet_degree=degree_cap, rho_a=spectral_radius(c.a))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian with phase fix)."""
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_bcl_triple(
    rng: np.random.Generator, e_dim: int, axis: int = 0, rank: Optional[int] = None
) -> BCLTriple:
    """Seeded random BCL triple: Haar U, coordinate projection conjugated by Haar."""
    u = haar_unitary(rng, e_dim)
    if rank is None:
        rank = int(rng.integers(0, e_dim + 1))
    if not 0 <= rank <= e_dim:
        raise InvalidInputError(f"projection rank {rank} out of range")
    v = haar_unitary(rng, e_dim)
    p0 = np.zeros((e_dim, e_dim), dtype=complex)
    for k in range(rank):
        p0[k, k] = 1.0
    p = v @ p0 @ v.conj().T
    p = (p + p.conj().T) / 2
    return BCLTriple(e_dim=e_dim, u=u, p=p, axis=axis)
