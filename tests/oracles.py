"""Independent brute-force oracles shared across test modules.

Everything here is deliberately written from first principles (no calls into
the library's own series or operator code paths) so that test expectations
are derived, not echoed.
"""

from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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


def polynomial_value(
    coords: np.ndarray,
    index_table: Sequence[MultiIndex],
    norms: Sequence[float],
    coeff_dim: int,
    point: Sequence[complex],
) -> np.ndarray:
    """Evaluate f = sum coords[(alpha, j)] z^alpha/||z^alpha|| xi_j at a point."""
    val = np.zeros(coeff_dim, dtype=complex)
    for k, alpha in enumerate(index_table):
        mono = 1.0 + 0.0j
        for z, a in zip(point, alpha):
            mono *= z**a
        val += coords[k * coeff_dim : (k + 1) * coeff_dim] * (mono / norms[k])
    return val


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
