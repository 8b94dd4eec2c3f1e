"""Graded truncated orthonormal bases for vector-valued spaces on D^n and B_n.

The basis of the degree-D truncation V_D is ``{e_alpha (x) xi_j}`` where
``e_alpha = z^alpha / ||z^alpha||`` runs over all multi-indices with
``|alpha| <= D`` in graded lexicographic order and ``xi_j`` runs over the
coefficient space E.  Coordinates are laid out with the coefficient index
fastest, so degree blocks are contiguous and every compression downstream
is a leading principal block.

Monomial norms: polydisc ``||z^alpha||^2 = prod_i 1/c^(i)_{alpha_i}``;
ball ``||z^alpha||^2 = alpha! / (|alpha|! a_{|alpha|})``.  Norms are stored
unsquared because shift weights are ratios of norms.

Positions are closed-form.  With ``C`` the binomial coefficient, the
graded-lex position of ``alpha`` (first coordinate ascending) is
``C(|alpha| - 1 + n, n) + sum_{i < n-1} [C(r_i + m_i, m_i) -
C(r_i - alpha_i + m_i, m_i)]`` with ``m_i = n - 1 - i`` axes after ``i``
and ``r_i = |alpha| - sum_{j < i} alpha_j`` degree left at ``i`` (the first
term is 0 at ``|alpha| = 0``): monomials of lower degree, then those of
the same degree that agree up to ``i`` and are smaller at ``i``.
:meth:`TruncatedBasis.rank` evaluates it on whole arrays of multi-indices,
so every shift map is array arithmetic, and ``dim_upto(d) = c C(d + n, n)``.

Bases are memoised: :func:`polydisc_basis` and :func:`ball_basis` return
the same (frozen, read-only) object for equal ``(kernel, degree_cap,
coeff_dim)``, so callers share one basis and its cached arrays.  Both
compute ``dim = c C(D + n, n)`` first and refuse anything above
:data:`MAX_DIM` before enumerating a single index.

A basis also carries the index structure every shift-built operator
needs, built on first use and read-only: the degree of every monomial
(:attr:`TruncatedBasis.degree_array`), the per-axis successor table
(:attr:`TruncatedBasis.successors`), the prefix table of the powers M^alpha
(:attr:`TruncatedBasis.prefix`) and a memo of the weighted-shift maps of
:func:`gradedshift.operators._shift_map`, at most
:data:`_SHIFT_MAP_MEMO_SIZE` of them.  None depends on a symbol, so
certificates on one basis share them.  A shift map's degree grading is
checked when the map is built and only checked maps are memoised;
verdicts, norms, Grams and residuals are computed on every call.

A symbol's multi-indices are checked once per distinct ``(n, support)``
(:func:`_checked_support`, at most :data:`_BASIS_MEMO_SIZE` supports); a
refusal is not memoised.  Its coefficients are copied on every call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidInputError
from .kernels import BallKernelSpec, KernelSpec1D, ball_coeff, coeff_1d

__all__ = [
    "MultiIndex",
    "degree",
    "enumerate_indices",
    "multi_factorial",
    "PolydiscDomain",
    "BallDomain",
    "TruncatedBasis",
    "MAX_DIM",
    "polydisc_basis",
    "ball_basis",
    "MultiplierSymbol",
    "scalar_symbol",
    "lift_scalar_symbol",
    "symbol_product",
    "slice_symbol",
]

MultiIndex = Tuple[int, ...]

# Largest basis dimension c C(D + n, n) a basis may have.  Operators on it
# are dense dim x dim complex matrices, 256 MiB each at this size.
MAX_DIM = 4096

# Byte budget of one chunk of a purity sweep's draw.  A chunk of symbols runs
# straight through its colligation norms, pencils, products and coefficient
# stack, and holds as many symbols as fit in this many bytes at the largest
# per-symbol footprint of those stages (16 f rows cols bytes of colligations,
# or 16 (n + 1) M h^2 of the widest product step, h the coefficient size;
# purity._realized_symbols), and never fewer than one, so its peak memory
# does not grow with the number of symbols.  A verdict's Phi(0) stack, one
# c x c block per symbol, is not chunked.
_STACK_BYTES = 8 * 2**20

# Distinct bases kept by the memo of polydisc_basis / ball_basis.
_BASIS_MEMO_SIZE = 32

# Shift maps (src, dst, w) kept per basis, one per multi-index beta; the
# oldest is dropped beyond this.  Each holds at most 24 bytes per monomial.
_SHIFT_MAP_MEMO_SIZE = 64


def _stack_chunks(count: int, item_bytes: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)``, each holding as many
    ``item_bytes``-byte items as fit in ``_STACK_BYTES``, and at least
    one."""
    step = max(1, _STACK_BYTES // item_bytes)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def degree(alpha: MultiIndex) -> int:
    """Total degree |alpha|."""
    return sum(alpha)


def _indices_of_degree(n: int, d: int) -> Iterator[MultiIndex]:
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _indices_of_degree(n - 1, d - first):
            yield (first,) + rest


@lru_cache(maxsize=_BASIS_MEMO_SIZE)
def enumerate_indices(n: int, D: int) -> Tuple[MultiIndex, ...]:
    """All multi-indices with |alpha| <= D in graded lexicographic order
    (memoised; the tuple is shared)."""
    if n < 1 or D < 0:
        raise InvalidInputError(f"need n >= 1 and D >= 0, got n={n}, D={D}")
    out = []
    for d in range(D + 1):
        out.extend(_indices_of_degree(n, d))
    return tuple(out)


def multi_factorial(alpha: MultiIndex) -> int:
    """alpha! = prod alpha_i!."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


@dataclass(frozen=True)
class PolydiscDomain:
    """A product domain D^n with one 1-D kernel per factor."""

    factors: Tuple[KernelSpec1D, ...]

    @property
    def n(self) -> int:
        return len(self.factors)

    kind = "polydisc"


@dataclass(frozen=True)
class BallDomain:
    """The ball B_n with a unitarily invariant kernel."""

    spec: BallKernelSpec

    @property
    def n(self) -> int:
        return self.spec.n

    kind = "ball"


Domain = Union[PolydiscDomain, BallDomain]


@dataclass(frozen=True)
class TruncatedBasis:
    """The graded orthonormal monomial basis of V_D, with per-monomial norms.

    ``index_table`` is graded-lex ordered; ``norms[k]`` is ``||z^alpha_k||``
    for ``alpha_k = index_table[k]``.  The coordinate of ``e_alpha (x) xi_j``
    lives at ``position(alpha) * coeff_dim + j``.
    """

    domain: Domain
    degree_cap: int
    coeff_dim: int
    index_table: Tuple[MultiIndex, ...]
    norms: Tuple[float, ...]

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def dim(self) -> int:
        return self.coeff_dim * len(self.index_table)

    @cached_property
    def index_array(self) -> np.ndarray:
        """``index_table`` as a read-only ``(count, n)`` int64 array."""
        out = np.array(self.index_table, dtype=np.int64).reshape(-1, self.n)
        out.flags.writeable = False
        return out

    @cached_property
    def degree_array(self) -> np.ndarray:
        """The degree of every monomial, as a read-only ``(count,)`` int64 array."""
        out = self.index_array.sum(axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def norm_array(self) -> np.ndarray:
        """``norms`` as a read-only float64 array."""
        out = np.array(self.norms, dtype=float)
        out.flags.writeable = False
        return out

    @cached_property
    def _rank_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``binom[r, m] = C(r + m, m)`` for r <= D, m <= n, and ``start[d]``,
        the position of the first monomial of degree d.  Every entry is at
        most ``binom[D, n]``, the monomial count, so int64 cannot overflow."""
        binom = np.ones((self.degree_cap + 1, self.n + 1), dtype=np.int64)
        for m in range(1, self.n + 1):
            binom[:, m] = np.cumsum(binom[:, m - 1])
        start = np.concatenate(([0], binom[:-1, self.n]))
        return binom, start

    def rank(self, alphas: np.ndarray) -> np.ndarray:
        """Positions of the rows of a ``(k, n)`` int array of multi-indices.

        The rows must lie in the truncation (nonnegative, degree <= D);
        nothing is checked here, see :meth:`position` for one checked index.
        """
        binom, start = self._rank_tables
        rest = alphas.sum(axis=1)
        pos = start[rest]
        for i in range(self.n - 1):
            m = self.n - 1 - i
            pos = pos + binom[rest, m] - binom[rest - alphas[:, i], m]
            rest = rest - alphas[:, i]
        return pos

    @cached_property
    def successors(self) -> np.ndarray:
        """Read-only ``(n, count)`` int64 table: ``[i, k]`` is the position of
        ``alpha_k + e_i``, or -1 where ``|alpha_k| = D`` (it leaves V_D)."""
        kept = self.dim_upto(self.degree_cap - 1) // self.coeff_dim
        out = np.full((self.n, len(self.index_table)), -1, dtype=np.int64)
        for i, e_i in enumerate(np.eye(self.n, dtype=np.int64)):
            out[i, :kept] = self.rank(self.index_array[:kept] + e_i)
        out.flags.writeable = False
        return out

    @cached_property
    def prefix(self) -> np.ndarray:
        """Read-only ``(2, count)`` int64 table of the prefix recursion
        M^alpha = M_i M^(alpha - e_i): ``[0, k]`` is the axis i, the first
        nonzero coordinate of alpha_k, and ``[1, k]`` the position of
        alpha_k - e_i, which comes before k; both are -1 at k = 0."""
        alphas = self.index_array[1:]
        axis = np.argmax(alphas > 0, axis=1)
        out = np.full((2, len(self.index_table)), -1, dtype=np.int64)
        out[0, 1:], out[1, 1:] = axis, self.rank(alphas - np.eye(self.n, dtype=np.int64)[axis])
        out.flags.writeable = False
        return out

    @cached_property
    def _shift_maps(self) -> Dict[MultiIndex, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Memo of :func:`gradedshift.operators._shift_map`, filled there."""
        return {}

    def position(self, alpha: MultiIndex) -> int:
        try:
            row = [operator.index(a) for a in alpha]
        except TypeError:
            raise InvalidInputError(f"multi-index {alpha!r} is not a sequence of integers")
        if len(row) != self.n or min(row) < 0 or sum(row) > self.degree_cap:
            raise InvalidInputError(f"multi-index {alpha} outside the truncation")
        return int(self.rank(np.array([row], dtype=np.int64))[0])

    def coord_index(self, alpha: MultiIndex, j: int) -> int:
        if not 0 <= j < self.coeff_dim:
            raise InvalidInputError(f"coefficient index {j} outside dim E = {self.coeff_dim}")
        return self.position(alpha) * self.coeff_dim + j

    def norm_of(self, alpha: MultiIndex) -> float:
        return self.norms[self.position(alpha)]

    def dim_upto(self, d: int) -> int:
        """Number of coordinates carried by degrees <= d (0 if d < 0)."""
        if d < 0:
            return 0
        return self.coeff_dim * math.comb(min(d, self.degree_cap) + self.n, self.n)


def _checked_size(n: int, degree_cap: int, coeff_dim: int) -> Tuple[int, int]:
    """``(degree_cap, coeff_dim)`` as ints, once ``c C(D + n, n) <= MAX_DIM``."""
    try:
        degree_cap, coeff_dim = operator.index(degree_cap), operator.index(coeff_dim)
    except TypeError:
        raise InvalidInputError(
            f"degree_cap and coeff_dim must be integers, got {degree_cap!r}, {coeff_dim!r}"
        )
    if degree_cap < 0:
        raise InvalidInputError(f"need degree_cap >= 0, got {degree_cap}")
    if coeff_dim < 1:
        raise InvalidInputError("coeff_dim must be >= 1")
    dim = coeff_dim * math.comb(degree_cap + n, n)
    if dim > MAX_DIM:
        raise InvalidInputError(
            f"basis dimension {dim} (n={n}, degree_cap={degree_cap}, coeff_dim={coeff_dim}) "
            f"exceeds MAX_DIM = {MAX_DIM}"
        )
    return degree_cap, coeff_dim


def polydisc_basis(
    factors: Sequence[KernelSpec1D], degree_cap: int, coeff_dim: int = 1
) -> TruncatedBasis:
    """Truncated basis of the E-valued product space on D^n (memoised)."""
    factors = tuple(factors)
    if not factors:
        raise InvalidInputError("polydisc basis needs at least one factor")
    return _polydisc_basis(factors, *_checked_size(len(factors), degree_cap, coeff_dim))


@lru_cache(maxsize=_BASIS_MEMO_SIZE)
def _polydisc_basis(
    factors: Tuple[KernelSpec1D, ...], degree_cap: int, coeff_dim: int
) -> TruncatedBasis:
    table = enumerate_indices(len(factors), degree_cap)
    norms = []
    for alpha in table:
        nsq = 1.0
        for spec, a in zip(factors, alpha):
            nsq /= coeff_1d(spec, a)
        if not (math.isfinite(nsq) and nsq > 0.0):
            raise InvalidInputError(f"degenerate monomial norm at {alpha}")
        norms.append(math.sqrt(nsq))
    return TruncatedBasis(
        domain=PolydiscDomain(factors),
        degree_cap=degree_cap,
        coeff_dim=coeff_dim,
        index_table=table,
        norms=tuple(norms),
    )


def ball_basis(spec: BallKernelSpec, degree_cap: int, coeff_dim: int = 1) -> TruncatedBasis:
    """Truncated basis of the E-valued unitarily invariant space on B_n (memoised).

    Constructively checks the regularity conditions used downstream: the
    degree-0 block is an isometric copy of E (a_0 = 1), every monomial norm
    is finite and positive, and consecutive-degree norm ratios are bounded
    (shifts act boundedly on the truncation).
    """
    try:
        n = operator.index(spec.n)
    except TypeError:
        raise InvalidInputError(f"ball dimension n={spec.n!r} must be an integer")
    return _ball_basis(spec, *_checked_size(n, degree_cap, coeff_dim))


@lru_cache(maxsize=_BASIS_MEMO_SIZE)
def _ball_basis(spec: BallKernelSpec, degree_cap: int, coeff_dim: int) -> TruncatedBasis:
    table = enumerate_indices(spec.n, degree_cap)
    a = [ball_coeff(spec, j) for j in range(degree_cap + 1)]
    norms = []
    for alpha in table:
        d = degree(alpha)
        gamma = math.factorial(d) // multi_factorial(alpha)
        nsq = 1.0 / (gamma * a[d])
        if not (math.isfinite(nsq) and nsq > 0.0):
            raise InvalidInputError(f"degenerate monomial norm at {alpha}")
        norms.append(math.sqrt(nsq))
    return TruncatedBasis(
        domain=BallDomain(spec),
        degree_cap=degree_cap,
        coeff_dim=coeff_dim,
        index_table=table,
        norms=tuple(norms),
    )


def _integral(a) -> int:
    """``a`` as an int if it equals one (an int, a numpy int or an integral
    float); else ``ValueError`` (also for ``nan``), ``OverflowError`` (for
    ``inf``) or ``TypeError``."""
    i = int(a)
    if i != a:
        raise ValueError(a)
    return i


def _multi_index(n: int, alpha) -> MultiIndex:
    """``alpha`` as a tuple of n nonnegative ints, or ``InvalidInputError``."""
    try:
        row = tuple(map(_integral, alpha))
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"bad multi-index {alpha!r} for n={n}") from None
    if len(row) != n or min(row) < 0:
        raise InvalidInputError(f"bad multi-index {row} for n={n}")
    return row


@lru_cache(maxsize=_BASIS_MEMO_SIZE)
def _checked_support(n: int, support: Tuple) -> Tuple[MultiIndex, ...]:
    """The multi-indices of a support as tuples of ints, each checked by
    :func:`_multi_index`.  Memoised by ``(n, support)``; a refusal raises
    and so is not kept, and a support that compares equal to a kept one
    (``(1.0, 0)`` and ``(1, 0)``) has the same checked form."""
    return tuple(_multi_index(n, alpha) for alpha in support)


def _canonical_support(n: int, support: Sequence) -> Tuple[MultiIndex, ...]:
    """:func:`_checked_support`, memoised for a hashable support of at most
    ``MAX_DIM`` entries (terms times n) and checked afresh otherwise."""
    support = tuple(support)
    if len(support) * n <= MAX_DIM:
        try:
            return _checked_support(n, support)
        except TypeError:  # unhashable: a multi-index given as a list
            pass
    return _checked_support.__wrapped__(n, support)


def _canonical_terms(
    n: int, coeff_dim: int, k: int, support: Sequence[MultiIndex], coeffs: Sequence
) -> List[Dict[MultiIndex, np.ndarray]]:
    """The terms of k symbols, ``coeffs[j][s]`` the coefficient of the s-th
    at ``support[j]``.  The support is checked once per distinct ``(n,
    support)`` (:func:`_canonical_support`); the coefficients are copied
    into one read-only complex stack, whose shape is checked once, and
    each symbol's terms are views into it at its nonzero coefficients (one
    ``any`` over the stack), in support order (at a repeated multi-index
    the last nonzero coefficient wins).  Only a refusal walks the terms, to
    name the first whose coefficient has the wrong shape."""
    if n < 1:
        raise InvalidInputError("symbol needs n >= 1 variables")
    if coeff_dim < 1:
        raise InvalidInputError("symbol needs coeff_dim >= 1")
    n, coeff_dim = int(n), int(coeff_dim)
    if len(coeffs) != len(support):
        raise InvalidInputError(f"{len(coeffs)} coefficients for {len(support)} multi-indices")
    alphas = _canonical_support(n, support)
    shape = (len(alphas), k, coeff_dim, coeff_dim)
    try:
        stack = np.array(coeffs, dtype=complex) if alphas else np.zeros(shape, dtype=complex)
    except ValueError:  # ragged, or an entry that is not a number
        stack = None
    if stack is None or stack.shape != shape:
        # some term's coefficients are not (k, c, c): name the first
        for alpha, mat in zip(alphas, coeffs):
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != shape[1:]:
                raise InvalidInputError(
                    f"coefficient at {alpha} has shape {mat.shape[1:]}, expected square dim {coeff_dim}"
                )
    stack.flags.writeable = False
    return [
        {alpha: mat for alpha, mat, kept in zip(alphas, row, keep) if kept}
        for row, keep in zip(stack.swapaxes(0, 1), stack.any(axis=(2, 3)).T.tolist())
    ]


class MultiplierSymbol:
    """An operator-valued polynomial ``Phi(z) = sum_alpha Phi_alpha z^alpha``.

    ``terms`` maps multi-indices (length ``n``) to square complex matrices of
    size ``coeff_dim``; the matrices are read-only copies of the inputs, views
    into one stack (:meth:`stack` builds many symbols from one).

    ``contractivity_record`` is ``None`` or ``((kind, scales), certificate)``:
    the product bound of the realization the symbol was built as, keyed by
    the domain kind (``"polydisc"`` or ``"ball"``) and the per-axis scales
    q_i its E(z) was drawn with; it holds on a domain of that kind whose
    scales are at least these on every axis (see :mod:`gradedshift.purity`).
    Only :func:`gradedshift.purity.random_contractive_symbol` and the
    sweeps' generator set it, and :func:`slice_symbol` keeps it with the
    sliced axis's scale dropped.  Scaling, lifting and decoding build
    symbols without one.  The read-only coefficients keep it from going
    stale.
    """

    def __init__(self, n: int, coeff_dim: int, terms: Dict[MultiIndex, np.ndarray]):
        (canon,) = _canonical_terms(n, coeff_dim, 1, tuple(terms), [[mat] for mat in terms.values()])
        self._set(n, coeff_dim, canon)

    def _set(self, n: int, coeff_dim: int, terms: Dict[MultiIndex, np.ndarray]) -> None:
        self.n = int(n)
        self.coeff_dim = int(coeff_dim)
        self.terms = terms
        self.contractivity_record: Optional[Tuple[object, Tuple[str, float]]] = None

    @classmethod
    def stack(
        cls, n: int, coeff_dim: int, support: Sequence[MultiIndex], coeffs: np.ndarray
    ) -> List["MultiplierSymbol"]:
        """The k symbols of a ``(k, M, c, c)`` coefficient stack, the s-th
        with the coefficient ``coeffs[s, j]`` at ``support[j]``: the
        support is checked once per distinct ``(n, support)`` and the
        coefficients' shape once per stack; ``__init__`` is the case k = 1.
        The terms of all k are views into one read-only copy of the stack."""
        symbols = [cls.__new__(cls) for _ in range(len(coeffs))]
        canon = _canonical_terms(n, coeff_dim, len(coeffs), support, np.asarray(coeffs).swapaxes(0, 1))
        for phi, terms in zip(symbols, canon):
            phi._set(n, coeff_dim, terms)
        return symbols

    @property
    def degree(self) -> int:
        return max((degree(a) for a in self.terms), default=0)

    @property
    def phi0(self) -> np.ndarray:
        zero = (0,) * self.n
        if zero in self.terms:
            return self.terms[zero].copy()
        return np.zeros((self.coeff_dim, self.coeff_dim), dtype=complex)

    def __call__(self, z: Sequence[complex]) -> np.ndarray:
        z = tuple(complex(x) for x in z)
        if len(z) != self.n:
            raise InvalidInputError(f"point has {len(z)} coordinates, symbol has {self.n}")
        out = np.zeros((self.coeff_dim, self.coeff_dim), dtype=complex)
        for alpha, mat in self.terms.items():
            mono = 1.0 + 0.0j
            for x, a in zip(z, alpha):
                mono *= x**a
            out += mono * mat
        return out

    def scaled(self, factor: complex) -> "MultiplierSymbol":
        return MultiplierSymbol(
            self.n, self.coeff_dim, {a: factor * m for a, m in self.terms.items()}
        )

    def __repr__(self) -> str:
        return f"MultiplierSymbol(n={self.n}, coeff_dim={self.coeff_dim}, degree={self.degree}, terms={len(self.terms)})"


def scalar_symbol(n: int, coeffs: Dict[MultiIndex, complex]) -> MultiplierSymbol:
    """A scalar polynomial as a 1x1 symbol."""
    return MultiplierSymbol(
        n, 1, {tuple(a): np.array([[complex(c)]]) for a, c in coeffs.items()}
    )


def lift_scalar_symbol(phi: MultiplierSymbol, coeff_dim: int) -> MultiplierSymbol:
    """phi * I_E for a scalar (1x1) symbol."""
    if phi.coeff_dim != 1:
        raise InvalidInputError("lift requires a scalar symbol")
    eye = np.eye(coeff_dim, dtype=complex)
    return MultiplierSymbol(
        phi.n, coeff_dim, {a: complex(m[0, 0]) * eye for a, m in phi.terms.items()}
    )


def symbol_product(a: MultiplierSymbol, b: MultiplierSymbol) -> MultiplierSymbol:
    """Pointwise matrix product (a b)(z) = a(z) b(z) as a polynomial symbol."""
    if a.n != b.n or a.coeff_dim != b.coeff_dim:
        raise InvalidInputError("symbol product requires matching variables and dims")
    terms: Dict[MultiIndex, np.ndarray] = {}
    for alpha, ma in a.terms.items():
        for beta, mb in b.terms.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if gamma in terms:
                terms[gamma] = terms[gamma] + ma @ mb
            else:
                terms[gamma] = ma @ mb
    return MultiplierSymbol(a.n, a.coeff_dim, terms)


def slice_symbol(phi: MultiplierSymbol, axis: int) -> MultiplierSymbol:
    """The symbol with z_axis := 0, re-indexed on the remaining variables; a
    realization record is kept with that axis's scale dropped."""
    if not 0 <= axis < phi.n:
        raise InvalidInputError(f"axis {axis} out of range for n={phi.n}")
    if phi.n < 2:
        raise InvalidInputError("slicing needs at least two variables")
    terms: Dict[MultiIndex, np.ndarray] = {}
    for alpha, mat in phi.terms.items():
        if alpha[axis] != 0:
            continue
        beta = alpha[:axis] + alpha[axis + 1 :]
        terms[beta] = mat
    out = MultiplierSymbol(phi.n - 1, phi.coeff_dim, terms)
    if phi.contractivity_record is not None:
        (kind, scales), cert = phi.contractivity_record
        out.contractivity_record = ((kind, scales[:axis] + scales[axis + 1 :]), cert)
    return out
