"""Independent brute-force oracles shared across test modules.

Everything here is deliberately written from first principles (no calls into
the library's own series or operator code paths) so that test expectations
are derived, not echoed.  The one exception is ``symbol_product_chain``, the
per-symbol route that the sweeps' coefficient stacks must equal byte for
byte, built from the library's ``MultiplierSymbol`` and ``symbol_product``
on purpose.  The dense subspace routines return the library's
``SubspaceFrame``, a plain container of orthonormal columns, so that tests
can compare them with the library's frames.
"""

import math
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from gradedshift.operators import SubspaceFrame

MultiIndex = Tuple[int, ...]


def long_division_reciprocal(coeffs: Sequence[float], length: int) -> List[Fraction]:
    """Coefficients of 1 / sum_j coeffs[j] x^j by exact long division."""
    c = [Fraction(x).limit_denominator(10**12) for x in coeffs]
    out: List[Fraction] = []
    rem = [Fraction(1)] + [Fraction(0)] * (length - 1)
    for k in range(length):
        q = rem[0] / c[0]
        out.append(q)
        nxt = [Fraction(0)] * (length - k - 1)
        for j in range(len(nxt)):
            take = rem[j + 1] if j + 1 < len(rem) else Fraction(0)
            sub = q * c[j + 1] if j + 1 < len(c) else Fraction(0)
            nxt[j] = take - sub
        rem = nxt
    return out


def convolve_lists(a: Sequence[float], b: Sequence[float]) -> List[float]:
    """Cauchy product truncated to len(a) terms."""
    n = len(a)
    return [sum(a[i] * b[k - i] for i in range(k + 1) if k - i < len(b)) for k in range(n)]


def all_indices(n: int, cap: int) -> List[MultiIndex]:
    """All multi-indices of length n with total degree <= cap, graded-lex."""
    out = [alpha for alpha in product(range(cap + 1), repeat=n) if sum(alpha) <= cap]
    out.sort(key=lambda a: (sum(a), a))
    return out


def witness_index_oracle(
    feasible: Sequence[MultiIndex],
) -> Optional[MultiIndex]:
    """Recursive coordinate minimization: smallest first entry, then second
    among those, and so on. Returns None when the feasible set is empty."""
    cand = list(feasible)
    if not cand:
        return None
    n = len(cand[0])
    for pos in range(n):
        best = min(m[pos] for m in cand)
        cand = [m for m in cand if m[pos] == best]
    assert len(cand) == 1
    return cand[0]


def brute_force_feasible(
    x_dual: Sequence[np.ndarray],
    p_m: np.ndarray,
    h: np.ndarray,
    budget: int,
    tol: float,
) -> List[MultiIndex]:
    """All m with |m| <= budget and ||P_M X'^m h|| > tol, by direct powering."""
    n = len(x_dual)
    out = []
    for m in all_indices(n, budget):
        v = h.astype(complex).copy()
        for i, e in enumerate(m):
            for _ in range(e):
                v = x_dual[i] @ v
        if np.linalg.norm(p_m @ v) > tol:
            out.append(m)
    return out


def dense_power_grams(
    index_table: Sequence[MultiIndex],
    norms: Sequence[float],
    coeff_dim: int,
    budget: int,
) -> Dict[MultiIndex, np.ndarray]:
    """Dense M^alpha M^{*alpha} for all |alpha| <= budget, keyed graded-lex.

    The shift M_i is the dense matrix sending e_alpha (x) xi_j to
    (||z^(alpha+e_i)|| / ||z^alpha||) e_(alpha+e_i) (x) xi_j (coefficient
    index fastest; dropped outside the table).  Powers are prefix products
    M^alpha = M_i M^(alpha-e_i), i the first nonzero coordinate of alpha.
    """
    n = len(index_table[0])
    pos = {alpha: k for k, alpha in enumerate(index_table)}
    dim = coeff_dim * len(index_table)
    shifts = []
    for i in range(n):
        s = np.zeros((dim, dim), dtype=complex)
        for k, alpha in enumerate(index_table):
            up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            if up in pos:
                for j in range(coeff_dim):
                    s[pos[up] * coeff_dim + j, k * coeff_dim + j] = norms[pos[up]] / norms[k]
        shifts.append(s)
    powers = {(0,) * n: np.eye(dim, dtype=complex)}
    for alpha in all_indices(n, budget)[1:]:
        i = next(k for k, a in enumerate(alpha) if a > 0)
        prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
        powers[alpha] = shifts[i] @ powers[prev]
    return {alpha: p @ p.conj().T for alpha, p in powers.items()}


def position_oracle(n: int, cap: int) -> Dict[MultiIndex, int]:
    """Graded-lex position of every multi-index with |alpha| <= cap, by counting."""
    return {alpha: k for k, alpha in enumerate(all_indices(n, cap))}


def shift_map_oracle(
    pos: Dict[MultiIndex, int], norms: Sequence[float], beta: MultiIndex
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, weight)`` of the shift by beta: one lookup per monomial.

    ``pos`` is a :func:`position_oracle` table.  src runs over the positions
    whose alpha + beta is in the table, in order; dst is the position of
    alpha + beta and the weight is ``norms[dst] / norms[src]``.
    """
    src, dst = [], []
    for alpha, k in pos.items():
        j = pos.get(tuple(x + y for x, y in zip(alpha, beta)))
        if j is not None:
            src.append(k)
            dst.append(j)
    src, dst = np.array(src, dtype=int), np.array(dst, dtype=int)
    norms = np.asarray(norms)
    return src, dst, norms[dst] / norms[src]


def dense_multiplier(
    index_table: Sequence[MultiIndex],
    norms: Sequence[float],
    coeff_dim: int,
    terms: Dict[MultiIndex, np.ndarray],
) -> np.ndarray:
    """The matrix of M_Phi on the table's truncation, block by block.

    M_Phi sends e_alpha (x) xi to sum_beta (||z^(alpha+beta)|| / ||z^alpha||)
    e_(alpha+beta) (x) Phi_beta xi (coefficient index fastest; dropped
    outside the table).
    """
    pos = {alpha: k for k, alpha in enumerate(index_table)}
    c = coeff_dim
    m = np.zeros((c * len(index_table),) * 2, dtype=complex)
    for k, alpha in enumerate(index_table):
        for beta, mat in terms.items():
            j = pos.get(tuple(x + y for x, y in zip(alpha, beta)))
            if j is not None:
                m[j * c : (j + 1) * c, k * c : (k + 1) * c] += norms[j] / norms[k] * mat
    return m


def dense_adjoint_compression(basis, terms: Dict[MultiIndex, np.ndarray]) -> np.ndarray:
    """The matrix of M_Phi^* restricted to a basis's V_D: the conjugate
    transpose of :func:`dense_multiplier` on its table, exact because V_D
    is invariant under M_Phi^*."""
    return dense_multiplier(basis.index_table, basis.norms, basis.coeff_dim, terms).conj().T


def dense_restriction_route(
    basis, phi_terms: Dict[MultiIndex, complex], theta_terms: Dict[MultiIndex, np.ndarray], m_max: int
) -> Tuple[List[float], float]:
    """``(s_values, isometry defect)`` of the restriction test on S = theta .
    V_(D - deg theta), from dense matrices on the basis's table.

    The exact columns of :func:`dense_multiplier` of theta (degrees <= D -
    deg theta) give the defect ||cols^* cols - I|| and, through an SVD
    (rank at singular values > 1e-10), an orthonormal frame Q of S.  With
    xi the top left singular vector of theta(0) and A the dense
    compression of (M_phi (x) I)^* to V_D, s_m = ||Q^* A^m Q Q^* (1 (x) xi)||.
    """
    c = basis.coeff_dim
    table, norms = basis.index_table, basis.norms
    theta_deg = max(sum(beta) for beta in theta_terms)
    exact = c * sum(1 for alpha in table if sum(alpha) <= basis.degree_cap - theta_deg)
    cols = dense_multiplier(table, norms, c, theta_terms)[:, :exact]
    defect = _top_singular_value(cols.conj().T @ cols - np.eye(exact))
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    q = u[:, : int(np.sum(s > SVD_THRESHOLD))]
    lifted = {beta: v * np.eye(c, dtype=complex) for beta, v in phi_terms.items()}
    a = dense_multiplier(table, norms, c, lifted).conj().T
    zero = (0,) * len(table[0])
    w = np.zeros(len(cols), dtype=complex)
    w[:c] = np.linalg.svd(theta_terms[zero])[0][:, 0]
    w = q @ (q.conj().T @ w)
    s_values = []
    for _ in range(m_max + 1):
        s_values.append(float(np.linalg.norm(q.conj().T @ w)))
        w = a @ w
    return s_values, defect


def dense_per_degree_rho(
    index_table: Sequence[MultiIndex],
    norms: Sequence[float],
    coeff_dim: int,
    terms: Dict[MultiIndex, np.ndarray],
    d_max: int,
) -> List[float]:
    """Spectral radius of the compression of M_Phi^* to V_d, d = 0..d_max,
    from dense ``eigvals`` of each compression.

    V_d is the leading block of monomials of degree <= d of
    :func:`dense_multiplier`'s layout.  ``index_table`` must be graded-lex
    and reach degree d_max.
    """
    m = dense_multiplier(index_table, norms, coeff_dim, terms)
    out = []
    for d in range(d_max + 1):
        size = coeff_dim * sum(1 for alpha in index_table if sum(alpha) <= d)
        comp = m[:size, :size].conj().T
        out.append(float(np.max(np.abs(np.linalg.eigvals(comp)))))
    return out


def realized_symbol_oracle(
    rng: np.random.Generator,
    geometry: str,
    n: int,
    coeff_dim: int,
    degree: int,
    forced: bool = False,
    scales: Optional[Sequence[float]] = None,
) -> Tuple[Dict[MultiIndex, np.ndarray], float]:
    """The terms and the recorded bound of one seeded realized symbol,
    drawn one colligation at a time.

    Each of max(degree, 1) colligations U = [[A, B], [C, 0]] with h = c is
    ``standard_normal((rows, cols)) + 1j * standard_normal((rows, cols))``
    with its lower right block set to 0, scaled by 0.99 over its dense SVD
    norm: rows = c + n h, and cols = rows on a ``"polydisc"``, where E(z) =
    diag(z_1 I_h, ..., z_n I_h), or c + h on a ``"ball"``, where E(z) =
    [z_1 I_h ... z_n I_h].  A factor's terms are A and B E(e_i) C at z_i,
    with E(e_i) written out as sqrt(q_i) times a 0/1 matrix, q_i =
    ``scales[i]`` (1 on every axis by default); the symbol is the product
    of the factors (only A at degree 0) and records the product of the
    scaled norms.  A forced symbol draws its phase u first and is
    blockdiag(u, realized symbol of size c - 1), recording max(|u|, r); for
    c = 1 it is the constant u and records |u|.
    """
    zero = (0,) * n
    if forced:
        u = complex(np.exp(2j * np.pi * rng.uniform()))
        if coeff_dim == 1:
            return {zero: np.array([[u]])}, abs(u)
        inner, r = realized_symbol_oracle(rng, geometry, n, coeff_dim - 1, degree, scales=scales)
        terms = {}
        for alpha, mat in inner.items():
            terms[alpha] = np.zeros((coeff_dim, coeff_dim), dtype=complex)
            terms[alpha][1:, 1:] = mat
        terms.setdefault(zero, np.zeros((coeff_dim, coeff_dim), dtype=complex))[0, 0] = u
        return terms, max(abs(u), r)
    scales = [1.0] * n if scales is None else scales
    c = h = coeff_dim
    rows = c + n * h
    cols = rows if geometry == "polydisc" else c + h
    symbol: Optional[Dict[MultiIndex, np.ndarray]] = None
    bounds = []
    for _ in range(max(degree, 1)):
        u = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        u[c:, c:] = 0.0
        norm = _top_singular_value(u)
        u = (0.99 / norm) * u
        bounds.append(0.99 / norm * norm)
        factor = {zero: u[:c, :c]}
        for i in range(n if degree else 0):
            e = np.zeros((cols - c, rows - c))
            if geometry == "polydisc":
                e[i * h : (i + 1) * h, i * h : (i + 1) * h] = math.sqrt(scales[i]) * np.eye(h)
            else:
                e[:, i * h : (i + 1) * h] = math.sqrt(scales[i]) * np.eye(h)
            factor[tuple(int(j == i) for j in range(n))] = u[:c, c:] @ e @ u[c:, :c]
        symbol = factor if symbol is None else _dict_product(symbol, factor)
    return symbol, math.prod(bounds)


def symbol_product_chain(
    rng: np.random.Generator,
    geometry: str,
    n: int,
    coeff_dim: int,
    degree: int,
    count: int,
    forced: int,
    scales: Sequence[float],
) -> list:
    """``count`` plain then ``forced`` unitary-constant realized symbols,
    each with its recorded bound, by the per-symbol route: every factor is
    its own ``MultiplierSymbol`` and the factors are chained through
    ``symbol_product``.

    The draws, the colligation norms and the z_i coefficients B_i C_i are
    those of ``purity._random_symbols``, batched as there (a batched SVD
    gives each matrix the norm it gets alone), so the symbols must equal
    the sweep generator's byte for byte.  A forced symbol is blockdiag(u,
    inner), recording max(|u|, r); for coeff_dim = 1 it is the constant u,
    recording |u|.
    """
    from gradedshift.spaces import MultiplierSymbol, symbol_product

    f = max(degree, 1)
    zero = (0,) * n
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]

    def shape(c: int) -> Tuple[int, ...]:
        rows = c + n * c
        return (f, 2, rows, rows if geometry == "polydisc" else 2 * c)

    def chains(c: int, gauss: np.ndarray) -> list:
        k = len(gauss)
        if k == 0:
            return []
        u = (gauss[:, :, 0] + 1j * gauss[:, :, 1]).reshape((k * f,) + gauss.shape[3:])
        u[:, c:, c:] = 0.0
        norms = np.linalg.svd(u, compute_uv=False)[..., 0]
        factors = 0.99 / norms
        u = factors[:, None, None] * u
        bounds = (factors * norms).reshape(k, f)
        b = u[:, :c, c:].reshape(k * f, c, -1, c).transpose(0, 2, 1, 3)
        lin = b @ u[:, c:, :c].reshape(k * f, n, c, c)
        for i, q in enumerate(scales):
            if q != 1.0:
                lin[:, i] *= math.sqrt(q)
        out = []
        for s in range(k):
            phi = None
            for t in range(s * f, (s + 1) * f):
                terms = {zero: u[t, :c, :c]}
                if degree:
                    terms.update(zip(units, lin[t]))
                factor = MultiplierSymbol(n, c, terms)
                phi = factor if phi is None else symbol_product(phi, factor)
            out.append((phi, math.prod(bounds[s].tolist())))
        return out

    gauss = rng.standard_normal((count,) + shape(coeff_dim))
    phases, inner = [], []
    for _ in range(forced):
        phases.append(complex(np.exp(2j * math.pi * rng.uniform())))
        if coeff_dim > 1:
            inner.append(rng.standard_normal(shape(coeff_dim - 1)))
    symbols = chains(coeff_dim, gauss)
    if coeff_dim == 1:
        return symbols + [(MultiplierSymbol(n, 1, {zero: np.array([[u]])}), abs(u)) for u in phases]
    inner_gauss = np.array(inner).reshape((forced,) + shape(coeff_dim - 1))
    for u, (phi, r) in zip(phases, chains(coeff_dim - 1, inner_gauss)):
        terms = {}
        for alpha, mat in phi.terms.items():
            terms[alpha] = np.zeros((coeff_dim, coeff_dim), dtype=complex)
            terms[alpha][1:, 1:] = mat
        terms.setdefault(zero, np.zeros((coeff_dim, coeff_dim), dtype=complex))[0, 0] = u
        symbols.append((MultiplierSymbol(n, coeff_dim, terms), max(abs(u), r)))
    return symbols


def sampled_sup_norm(terms: Dict[MultiIndex, np.ndarray], points: np.ndarray) -> float:
    """max ||Phi(z)|| over the rows of a ``(P, n)`` array of points, with
    Phi(z) = sum_alpha z^alpha Phi_alpha and the norm the largest singular
    value: |Phi| for c = 1, the root of (F + sqrt(F^2 - 4 |det|^2)) / 2
    with F the squared Frobenius norm for c = 2, an SVD above.  A
    polynomial's sup over the closed polydisc or ball is its max on the
    torus or the sphere, and ||M_Phi|| >= sup ||Phi||."""
    alphas = list(terms)
    c = len(terms[alphas[0]])
    powers = [np.ones(points.shape, dtype=complex)]
    for _ in range(max(max(alpha) for alpha in alphas)):
        powers.append(powers[-1] * points)
    mono = np.ones((len(points), len(alphas)), dtype=complex)
    for t, alpha in enumerate(alphas):
        for i, a in enumerate(alpha):
            if a:
                mono[:, t] *= powers[a][:, i]
    coeffs = np.array([terms[a] for a in alphas]).reshape(len(alphas), c * c)
    values = (mono @ coeffs).reshape(-1, c, c)
    if c == 1:
        return float(np.abs(values).max())
    if c == 2:
        frob = (np.abs(values) ** 2).sum(axis=(1, 2))
        det = values[:, 0, 0] * values[:, 1, 1] - values[:, 0, 1] * values[:, 1, 0]
        gap = np.sqrt(np.maximum(frob**2 - 4 * np.abs(det) ** 2, 0.0))
        return float(np.sqrt((frob + gap) / 2).max())
    return float(np.linalg.svd(values, compute_uv=False)[:, 0].max())


def torus_grid(size: int, n: int) -> np.ndarray:
    """The ``size^n`` points of the n-torus with equally spaced angles."""
    t = np.exp(2j * np.pi * np.arange(size) / size)
    return np.stack(np.meshgrid(*[t] * n, indexing="ij"), axis=-1).reshape(-1, n)


def sphere_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` uniform points of the unit sphere of C^n: normalised
    complex Gaussians."""
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def bcl_triple_oracle(
    rng: np.random.Generator, e_dim: int, rank: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """U and P of one seeded BCL triple, drawn one matrix at a time.

    U and V are the QR factors Q of ``standard_normal((e, e)) + 1j *
    standard_normal((e, e))`` with the phases of R's diagonal moved into Q;
    the rank is drawn between them unless given; P = V diag(1^rank, 0) V*,
    symmetrised.
    """

    def haar() -> np.ndarray:
        gauss = rng.standard_normal((e_dim, e_dim)) + 1j * rng.standard_normal((e_dim, e_dim))
        q, r = np.linalg.qr(gauss)
        d = np.diag(r).copy()
        return q * (d / np.abs(d))

    u = haar()
    if rank is None:
        rank = int(rng.integers(0, e_dim + 1))
    v = haar()
    p0 = np.diag([1.0] * rank + [0.0] * (e_dim - rank)).astype(complex)
    p = v @ p0 @ v.conj().T
    return u, (p + p.conj().T) / 2


def _bcl_symbol_dicts(u: np.ndarray, p: np.ndarray, n: int, axis: int) -> tuple:
    """``(0, e_axis, [Phi_p, Phi_q])``: Phi_p = (P + z_axis P_perp) U* and
    Phi_q = U (P_perp + z_axis P) as dicts in n variables, with
    exactly-zero coefficients dropped."""
    zero = (0,) * n
    ep = tuple(int(i == axis) for i in range(n))
    p_perp = np.eye(len(u), dtype=complex) - p
    phis = [{zero: p @ u.conj().T, ep: p_perp @ u.conj().T}, {zero: u @ p_perp, ep: u @ p}]
    return zero, ep, [{beta: m for beta, m in phi.items() if np.any(m != 0)} for phi in phis]


def _dict_product(a: Dict[MultiIndex, np.ndarray], b: Dict[MultiIndex, np.ndarray]) -> Dict[MultiIndex, np.ndarray]:
    """The coefficients of the symbol product A B, one matrix product at a time."""
    prod: Dict[MultiIndex, np.ndarray] = {}
    for alpha, ma in a.items():
        for beta, mb in b.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            prod[gamma] = prod[gamma] + ma @ mb if gamma in prod else ma @ mb
    return prod


def _top_singular_value(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def bcl_bound_oracle(u: np.ndarray, p: np.ndarray, axis: int, n: int, cap: int) -> Tuple[float, float]:
    """``(commutator bound, isometry-defect bound)`` of one BCL triple in n
    variables at degree cap ``cap``, from one dict coefficient product and
    one e x e SVD at a time; a missing coefficient is the zero matrix.

    The commutator bound is the sum over gamma in (0, e_axis, 2 e_axis) of
    ||(Phi_p Phi_q - Phi_q Phi_p)_gamma|| where cap >= 2 max deg, else 0.
    A symbol's defect bound is ||Phi_0^* Phi_0 + Phi_1^* Phi_1 - I|| +
    2 ||Phi_0^* Phi_1|| where cap >= deg Phi, else 0; the larger counts.
    """
    e = len(u)
    none = np.zeros((e, e), dtype=complex)
    zero, ep, phis = _bcl_symbol_dicts(u, p, n, axis)
    pq, qp = _dict_product(phis[0], phis[1]), _dict_product(phis[1], phis[0])
    degrees = [max((sum(beta) for beta in phi), default=0) for phi in phis]
    comm = 0.0
    if cap >= 2 * max(degrees):
        for gamma in (zero, ep, tuple(2 * x for x in ep)):
            comm += _top_singular_value(pq.get(gamma, none) - qp.get(gamma, none))
    iso = 0.0
    for phi, deg in zip(phis, degrees):
        if cap >= deg:
            phi0, phi1 = phi.get(zero, none), phi.get(ep, none)
            gram = phi0.conj().T @ phi0 + phi1.conj().T @ phi1 - np.eye(e, dtype=complex)
            iso = max(iso, _top_singular_value(gram) + 2 * _top_singular_value(phi0.conj().T @ phi1))
    return comm, iso


def bcl_certificate_oracle(
    u: np.ndarray,
    p: np.ndarray,
    axis: int,
    index_table: Sequence[MultiIndex],
    norms: Sequence[float],
    purity_tol: float = 1e-8,
) -> tuple:
    """``(product error, max commutator, max isometry defect, rho_p, rho_q,
    verdict_p, verdict_q)`` of one BCL triple on the Hardy table, one
    coefficient product and one dense operator pair at a time.

    The commutator and the defect are the dense residuals that the
    certificate's coefficient bounds must dominate; the tests run them as a
    cross-check at dims <= 300.  A symbol of degree d is exact on the
    columns of degree <= D - d and lifts by d, a coordinate shift on those
    of degree <= D - 1 and by 1.  Commutators and isometry defects are
    dense SVD norms of those columns; rho is that of Phi(0).  U and P need
    not be unitary or a projection.
    """
    n, e = len(index_table[0]), len(u)
    cap = max(sum(alpha) for alpha in index_table)
    eye = np.eye(e, dtype=complex)
    zero, ep, phis = _bcl_symbol_dicts(u, p, n, axis)
    err = 0.0
    for a, b in ((phis[0], phis[1]), (phis[1], phis[0])):
        prod = _dict_product(a, b)
        prod[ep] = prod.get(ep, np.zeros_like(eye)) - eye
        err = max(err, max(float(np.max(np.abs(m))) for m in prod.values()))

    def columns_upto(d: int) -> int:
        return e * sum(1 for alpha in index_table if sum(alpha) <= d)

    ops = []
    for i in range(n):
        if i != axis:
            e_i = tuple(int(j == i) for j in range(n))
            ops.append((dense_multiplier(index_table, norms, e, {e_i: eye}), cap - 1, 1))
    for phi in phis:
        deg = max((sum(beta) for beta in phi), default=0)
        ops.append((dense_multiplier(index_table, norms, e, phi), cap - deg, deg))
    comm = iso = 0.0
    for i, (a, exact_a, lift_a) in enumerate(ops):
        for b, exact_b, lift_b in ops[i + 1 :]:
            k = columns_upto(min(exact_a, exact_b) - max(lift_a, lift_b))
            if k:
                comm = max(comm, _top_singular_value((a @ b - b @ a)[:, :k]))
        k = columns_upto(exact_a)
        if k:
            cols = a[:, :k]
            iso = max(iso, _top_singular_value(cols.conj().T @ cols - np.eye(k)))
    rhos = [float(np.max(np.abs(np.linalg.eigvals(phi.get(zero, 0 * eye))))) for phi in phis]
    verdicts = ["pure" if rho < 1.0 - purity_tol else "not_pure" for rho in rhos]
    return (err, comm, iso, *rhos, *verdicts)


def polydisc_points_oracle(rng: np.random.Generator, count: int, n_vars: int) -> List[List[complex]]:
    """``count`` points of D^n_vars, one scalar draw at a time with ``math``:
    r = sqrt(uniform()) * 0.999, theta = uniform(0, 2 pi), z = r e^(i theta)."""
    points = []
    for _ in range(count):
        z = []
        for _ in range(n_vars):
            r = math.sqrt(rng.uniform()) * 0.999
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z.append(r * complex(math.cos(theta), math.sin(theta)))
        points.append(z)
    return points


SVD_THRESHOLD = 1e-10


def dense_dual_and_projection(a: np.ndarray, cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """The Cauchy dual T (T*T)^(-1) of the block T of a's first ``cols``
    columns, re-embedded in a's shape with zero columns, and the range
    projection T (T*T)^(-1) T*, from one thin SVD T = U S V*: the dual is
    U S^(-1) V* and the projection U U*.  T must be bounded below."""
    u, s, vh = np.linalg.svd(a[:, :cols], full_matrices=False)
    assert len(s) == cols and s[-1] > 1e-8, "block not bounded below"
    dual = np.zeros(a.shape, dtype=complex)
    dual[:, :cols] = (u / s) @ vh
    return dual, u @ u.conj().T


def null_space_frame(a: np.ndarray, tol: float = SVD_THRESHOLD) -> SubspaceFrame:
    """Orthonormal basis of the null space, singular values <= tol treated as 0."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return SubspaceFrame(np.eye(a.shape[1], dtype=complex))
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > tol))
    return SubspaceFrame(vh[rank:].conj().T)


def principal_angles(f1: SubspaceFrame, f2: SubspaceFrame) -> np.ndarray:
    """Principal angles between two frames (radians, descending).

    With Q1 the wider frame: cosines from the SVD of Q1* Q2, sines from that
    of Q2 - Q1 Q1* Q2.  An angle with cos^2 >= 1/2 is the arcsin of its own
    sine, since arccos cannot resolve angles below about 1e-8 (Bjorck &
    Golub 1973; Knyazev & Argentati 2002).
    """
    if f1.dim == 0 or f2.dim == 0:
        return np.zeros(0)
    if f1.dim < f2.dim:
        f1, f2 = f2, f1
    cross = f1.columns.conj().T @ f2.columns
    # both lists descend, so reversing the cosines pairs them by angle
    cos = np.minimum(np.linalg.svd(cross, compute_uv=False)[::-1], 1.0)
    sin = np.minimum(np.linalg.svd(f2.columns - f1.columns @ cross, compute_uv=False), 1.0)
    return np.where(cos**2 >= 0.5, np.arcsin(sin), np.arccos(cos))


def frames_match(f1: SubspaceFrame, f2: SubspaceFrame, tol: float = SVD_THRESHOLD) -> bool:
    """Equal dimension and all principal angles <= tol (empty == empty)."""
    if f1.dim != f2.dim:
        return False
    if f1.dim == 0:
        return True
    return float(np.max(principal_angles(f1, f2))) <= tol


def wandering_span_dimension(x: Sequence, w: SubspaceFrame, budget: int, tol: float = SVD_THRESHOLD) -> int:
    """Rank of span{X^m W : |m| <= budget}, by direct powering of the
    matrices of the tuple (arrays or objects with a ``data`` array)."""
    if w.dim == 0:
        return 0
    mats = [getattr(t, "data", t) for t in x]
    blocks = []
    for m in all_indices(len(mats), budget):
        v = w.columns
        for i, e in enumerate(m):
            for _ in range(e):
                v = mats[i] @ v
        blocks.append(v)
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.sum(s > tol))


def dense_witness_route(basis, theta_terms: Dict[MultiIndex, np.ndarray], tol: float = 1e-8) -> dict:
    """The witness search on M = range of P_D M_theta over the basis's V_D,
    with the shift tuple X and budget D, from dense matrices.

    Q is an SVD frame of :func:`dense_multiplier` of theta (rank at singular
    values above 1e-10 times the largest), the shifts are dense, W is
    spanned by the coordinate vectors of the rows no shift hits, and the
    Cauchy duals come from :func:`dense_dual_and_projection` on the columns
    of degree < D.  For each column h of W in order, the dual orbit X'^m h
    is powered out for |m| <= D; the first h with some ||Q^* X'^m h|| > tol
    at |m| > 0 gives m~, the lexicographically least such m, eta = Q Q^*
    X'^m~ h and the residuals ||Q^* X_i^* eta||.  Also returned: the
    invariance leak max_i ||X_i Q - Q Q^* X_i Q|| and the overlap ||Q^* W||,
    both structurally zero here, and ``cond``, the ratio of the largest to
    the smallest kept singular value, which scales the round-off in Q.
    """
    table, norms, c = basis.index_table, basis.norms, basis.coeff_dim
    n, cap = len(table[0]), basis.degree_cap
    u, s, _ = np.linalg.svd(dense_multiplier(table, norms, c, theta_terms), full_matrices=False)
    rank = int(np.sum(s > SVD_THRESHOLD * s[0]))
    q, qh = u[:, :rank], u[:, :rank].conj().T
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    shifts = [dense_multiplier(table, norms, c, {e: np.eye(c, dtype=complex)}) for e in units]
    leak = max(_top_singular_value(t @ q - q @ (qh @ t @ q)) for t in shifts)
    hit = np.any([t != 0 for t in shifts], axis=(0, 2))
    w = np.eye(len(hit), dtype=complex)[:, ~hit]
    out = {"leak": leak, "overlap": _top_singular_value(qh @ w), "cond": float(s[0] / s[rank - 1])}
    exact = c * sum(1 for alpha in table if sum(alpha) < cap)
    duals = [dense_dual_and_projection(t, exact)[0] for t in shifts]
    for h_index in range(w.shape[1]):
        orbit = {}
        for m in all_indices(n, cap):
            v = w[:, h_index]
            for i, e in enumerate(m):
                for _ in range(e):
                    v = duals[i] @ v
            orbit[m] = v
        feasible = [m for m, v in orbit.items() if sum(m) > 0 and np.linalg.norm(qh @ v) > tol]
        if feasible:
            m_tilde = min(feasible)
            eta = q @ (qh @ orbit[m_tilde])
            residuals = [float(np.linalg.norm(qh @ (t.conj().T @ eta))) for t in shifts]
            out.update(found=True, h_index=h_index, m_tilde=m_tilde, residuals=residuals)
            out["certificate_ok"] = all(r <= tol for r in residuals)
            return out
    out.update(found=False, h_index=None, m_tilde=None, residuals=[], certificate_ok=False)
    return out
