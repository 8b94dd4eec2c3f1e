"""Transfer-function realizations, BCL isometry pairs, and dilation certificates.

The three constructions here share one finite-dimensional skeleton: a
unitary block matrix U = [[A, B], [C, D]] acting on E (+) H_1 (+) ... (+)
H_{n-1}, the symbol Phi(z) = A + B E(z) (I - D E(z))^{-1} C it generates,
and matrix models of the multiplication tuple it dilates to.  Everything is
certified post hoc at stated tolerances; nothing relies on the (infinite
dimensional) existence arguments.

A BCL triple (E, U, P) on axis p gives Phi_p = (P + z_p P_perp) U* and
Phi_q = U (P_perp + z_p P); its tuple (M_{z_i} for i != p, M_{Phi_p},
M_{Phi_q}) acts on the Hardy space of D^{n-1} (x) E.  Its certificate is
made of e x e coefficient identities, independent of D.  Every Hardy
monomial norm is exactly 1.0, so J_beta: e_alpha -> e_(alpha+beta) is an
isometry, and on the columns of degree <= D - deg Phi, M_Phi is sum_beta
J_beta (x) Phi_beta.  Write Phi = Phi_0 + z_p Phi_1.

- Commutator.  On the columns of degree <= D - 2 max(deg Phi_p, deg
  Phi_q), [M_{Phi_p}, M_{Phi_q}] is sum_gamma J_gamma (x) (Phi_p Phi_q -
  Phi_q Phi_p)_gamma over gamma in {0, e_p, 2 e_p}, so its norm is at most
  the sum of the coefficient norms.
- Isometry defect.  ||M_Phi^* M_Phi - I|| <= ||Phi_0^* Phi_0 + Phi_1^*
  Phi_1 - I|| + 2 ||Phi_0^* Phi_1||, the degree-1 case of the bound proved
  at :func:`gradedshift.purity._isometry_defect_bounds`, which also gives
  ||M_Phi||^2 <= 1 + the bound, so contractivity needs no other bound.
- A coordinate shift is J_(e_i) (x) I: it commutes with every M_Phi and is
  isometric on its exact columns, so it adds exactly 0.

A BCL sweep draws, validates and certifies its triples as stacks: one
batched QR for every Haar matrix, one batched SVD per validation test,
stacked coefficient products, one batched SVD of the commutator
coefficients and one of the isometry-defect blocks, and one stacked call
for all purity verdicts.  The one-triple functions (:func:`random_bcl_triple`,
:func:`bcl_dilation_certify`) are the k=1 case, and a stack's results
equal theirs bit for bit.  The dense residuals are cross-checks in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError
from .kernels import hardy
from .operators import _adjoints, _opnorms, opnorm
from .purity import PurityReport, _isometry_defect_bounds, _purity_verdicts, basis_for
from .spaces import MultiIndex, MultiplierSymbol, PolydiscDomain, enumerate_indices

__all__ = [
    "Colligation",
    "transfer_eval",
    "transfer_jet",
    "BCLTriple",
    "bcl_pair",
    "BCLCertificate",
    "bcl_dilation_certify",
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


def _check_bcl_stacks(u: np.ndarray, p: np.ndarray) -> None:
    """Refuse unless every U of a ``(k, e, e)`` stack is unitary to
    ``UNITARITY_TOL`` and every P an orthogonal projection to
    ``PROJECTION_TOL``: one batched SVD per test."""
    if opnorm(_adjoints(u) @ u - np.eye(u.shape[-1])) > UNITARITY_TOL:
        raise InvalidInputError("U is not unitary to 1e-10")
    if opnorm(p @ p - p) > PROJECTION_TOL or opnorm(p - _adjoints(p)) > PROJECTION_TOL:
        raise InvalidInputError("P is not an orthogonal projection to 1e-12")


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
        _check_bcl_stacks(self.u[None], self.p[None])
        if self.axis < 0:
            raise InvalidInputError("axis must be >= 0")

    @property
    def p_perp(self) -> np.ndarray:
        return np.eye(self.e_dim, dtype=complex) - self.p


def _pair_coefficients(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The ``(2k, 2, e, e)`` coefficient stack of Phi_p, Phi_q, Phi_p, ...,
    the pair of every triple of ``(k, e, e)`` stacks in turn: the z_p^0 and
    z_p^1 coefficients P U*, P_perp U* of Phi_p, then U P_perp, U P of Phi_q."""
    uh = _adjoints(u)
    p_perp = np.eye(u.shape[-1], dtype=complex) - p
    return np.stack([p @ uh, p_perp @ uh, u @ p_perp, u @ p], axis=1).reshape((-1, 2) + u.shape[1:])


def _pair_symbols(n: int, axis: int, stack: np.ndarray) -> List[MultiplierSymbol]:
    """The symbols of a :func:`_pair_coefficients` stack in n variables."""
    zero, ep = (0,) * n, tuple(int(i == axis) for i in range(n))
    return MultiplierSymbol.stack(n, stack.shape[-1], [zero, ep], stack)


def bcl_pair(t: BCLTriple, n_vars: Optional[int] = None) -> Tuple[MultiplierSymbol, MultiplierSymbol]:
    """The pair Phi_p(z) = (P + z_p P_perp) U*, Phi_q(z) = U (P_perp + z_p P).

    Both have degree <= 1 in z_p only, and Phi_p Phi_q = Phi_q Phi_p =
    z_p I as an exact polynomial-coefficient identity.
    """
    n = n_vars if n_vars is not None else t.axis + 1
    if n < t.axis + 1:
        raise InvalidInputError(f"n_vars {n} too small for axis {t.axis}")
    phi_p, phi_q = _pair_symbols(n, t.axis, _pair_coefficients(t.u[None], t.p[None]))
    return phi_p, phi_q


@dataclass
class BCLCertificate:
    """Certificate for the commuting-isometry tuple generated by a BCL triple.

    ``max_commutator`` and ``max_isometry_defect`` are certified upper
    bounds of the largest commutator and column-isometry defect of the
    tuple on exactness blocks (see the module docstring).
    """

    product_coeff_error: float
    max_commutator: float
    max_isometry_defect: float
    rho_p: float
    rho_q: float
    verdict_p: str
    verdict_q: str
    tol: float
    purity_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.product_coeff_error <= 1e-12
            and self.max_commutator <= self.tol
            and self.max_isometry_defect <= self.tol
        )


def _bcl_certificates(
    u: np.ndarray,
    p: np.ndarray,
    axis: int,
    n: int,
    degree_cap: int,
    tol: float,
    purity_tol: float,
) -> List[BCLCertificate]:
    """Certificates of the triples (U, P) of ``(k, e, e)`` stacks on one
    axis, each equal to its own :func:`bcl_dilation_certify` bit for bit.

    The product error is the largest entry of Phi_p Phi_q - z_p I and
    Phi_q Phi_p - z_p I, whose z_p^1 coefficients are A_0 B_1 + A_1 B_0 as
    :func:`gradedshift.spaces.symbol_product` sums them.  The same products
    give ``max_commutator``, sum_gamma ||(Phi_p Phi_q - Phi_q
    Phi_p)_gamma||, counted where D >= 2 max deg.  ``max_isometry_defect``
    is the larger :func:`gradedshift.purity._isometry_defect_bounds` of the
    pair, over the symbols with D >= deg Phi.  Both bound the dense
    residuals on exactness blocks and need every Hardy norm to be exactly
    1.0 (else ``CertificationError``).  A z_p coefficient that is exactly 0
    (U P at P = 0) makes that symbol constant.  The defect bound certifies
    contractivity, so the 2k purity verdicts come from one stacked call.
    """
    if n < 2:
        raise InvalidInputError("dilation tuple needs n >= 2")
    if not 0 <= axis <= n - 2:
        raise InvalidInputError(f"axis {axis} out of range for n - 1 = {n - 1} variables")
    stack = _pair_coefficients(u, p)
    coeffs = [(stack[j::2, 0], stack[j::2, 1]) for j in (0, 1)]
    domain = PolydiscDomain((hardy(),) * (n - 1))
    support = [(0,) * (n - 1), tuple(int(i == axis) for i in range(n - 1))]
    iso = _isometry_defect_bounds(basis_for(domain, degree_cap, u.shape[-1]), support, stack)
    eye = np.eye(u.shape[-1], dtype=complex)
    # the z_p^0, z_p^1 and z_p^2 coefficients of Phi_p Phi_q and of Phi_q Phi_p
    pq, qp = ([a0 @ b0, a0 @ b1 + a1 @ b0, a1 @ b1] for (a0, a1), (b0, b1) in (coeffs, coeffs[::-1]))
    diffs = [d for prod in (pq, qp) for d in (prod[0], prod[1] - eye, prod[2])]
    errors = np.max([np.abs(d).max(axis=(-2, -1)) for d in diffs], axis=0)
    norms = _opnorms(np.stack([x - y for x, y in zip(pq, qp)], axis=1))
    # deg Phi_p and deg Phi_q of each triple: 1 unless the z_p coefficient is 0
    deg_p, deg_q = (np.any(c1 != 0, axis=(-2, -1)) for _, c1 in coeffs)
    comm = np.where(degree_cap >= 2 * (deg_p | deg_q), norms[:, 0] + norms[:, 1] + norms[:, 2], 0.0)
    iso_p = np.where(degree_cap >= deg_p, iso[0::2], 0.0)
    iso_q = np.where(degree_cap >= deg_q, iso[1::2], 0.0)
    symbols = _pair_symbols(n - 1, axis, stack)
    # Phi_p(0) is P U* and Phi_q(0) is U P_perp, so these are rho(P U*), rho(U P_perp)
    reports = _purity_verdicts(symbols, domain, degree_cap, purity_tol, check_contractive=False)
    return [
        BCLCertificate(
            product_coeff_error=float(err),
            max_commutator=float(c),
            max_isometry_defect=float(max(i_p, i_q)),
            rho_p=rep_p.phi0_rho,
            rho_q=rep_q.phi0_rho,
            verdict_p=rep_p.verdict,
            verdict_q=rep_q.verdict,
            tol=tol,
            purity_tol=purity_tol,
        )
        for err, c, i_p, i_q, rep_p, rep_q in zip(
            errors, comm, iso_p, iso_q, reports[::2], reports[1::2]
        )
    ]


def bcl_dilation_certify(
    t: BCLTriple,
    n: int,
    degree_cap: int,
    tol: float = 1e-10,
    purity_tol: float = 1e-8,
) -> BCLCertificate:
    """Certify the n-tuple of commuting isometries generated by a BCL triple.

    Residual gates: the bounds of the pairwise commutators and of the
    column-isometry defects on exactness blocks are <= tol.  M_{Phi_p} is
    on the pure branch iff rho(P U*) < 1 - purity_tol, and M_{Phi_q} iff
    rho(U P_perp) < 1 - purity_tol.  This is the one-triple case of the
    stacked certificate of a sweep.
    """
    return _bcl_certificates(t.u[None], t.p[None], t.axis, n, degree_cap, tol, purity_tol)[0]


def schur_agler_purity(c: Colligation, degree_cap: int, tol: float = 1e-8) -> PurityReport:
    """Purity verdict of the transfer function via its degree-D Taylor jet.

    The verdict is jet-certified to the stated degree: compression spectra
    at degrees <= D depend only on coefficients <= D, so they are exact for
    the rational symbol.  The jet polynomial itself need not be a
    contractive multiplier, so it is certified on V_D with no contractivity
    bound, and ``phi0_rho`` is rho(A), the jet's constant term being A.
    """
    jet = transfer_jet(c, degree_cap)
    domain = PolydiscDomain((hardy(),) * c.n_vars)
    (report,) = _purity_verdicts([jet], domain, degree_cap, tol, check_contractive=False)
    return report


def _gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A complex Gaussian ``dim x dim`` matrix: its real part, then its
    imaginary part."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_unitaries(gauss: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a stack of complex Gaussians: one
    batched QR with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(gauss)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian with phase fix)."""
    return _haar_unitaries(_gaussian(rng, dim)[None])[0]


def _random_bcl_stacks(
    rng: np.random.Generator, e_dim: int, count: int, rank: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(u, p)`` stacks of shape ``(count, e_dim, e_dim)``, equal bit for bit
    to as many :func:`random_bcl_triple` calls on ``rng``, which is left in
    the same state.

    Each triple draws its U, then its rank unless ``rank`` is given, then
    the V that conjugates the coordinate projection of that rank.  One
    batched QR makes every U and V Haar, P = V P_0 V* is symmetrised as a
    stack, and the stacks are checked as :class:`BCLTriple` checks one.  A
    ``rank`` outside [0, e_dim] is refused before anything is drawn.
    """
    if rank is not None and not 0 <= rank <= e_dim:
        raise InvalidInputError(f"projection rank {rank} out of range")
    gauss = np.empty((count, 2, e_dim, e_dim), dtype=complex)
    ranks = np.full(count, rank if rank is not None else 0)
    for k in range(count):
        gauss[k, 0] = _gaussian(rng, e_dim)
        if rank is None:
            ranks[k] = rng.integers(0, e_dim + 1)
        gauss[k, 1] = _gaussian(rng, e_dim)
    unitaries = _haar_unitaries(gauss)
    u, v = unitaries[:, 0], unitaries[:, 1]
    p0 = np.zeros((count, e_dim, e_dim), dtype=complex)
    diag = np.arange(e_dim)
    p0[:, diag, diag] = diag < ranks[:, None]
    p = v @ p0 @ _adjoints(v)
    p = (p + _adjoints(p)) / 2
    _check_bcl_stacks(u, p)
    return u, p


def random_bcl_triple(
    rng: np.random.Generator, e_dim: int, axis: int = 0, rank: Optional[int] = None
) -> BCLTriple:
    """Seeded random BCL triple: Haar U, coordinate projection conjugated by
    Haar.  This is the one-triple case of a sweep's stacked generator."""
    u, p = _random_bcl_stacks(rng, e_dim, 1, rank)
    return BCLTriple(e_dim=e_dim, u=u[0], p=p[0], axis=axis)
