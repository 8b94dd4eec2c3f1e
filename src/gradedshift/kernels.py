"""Kernel families on the disc and the ball as diagonal power series.

A one-variable kernel is ``k(z, w) = sum_m c_m (z w~)^m`` with ``c_m > 0``;
a unitarily invariant ball kernel is ``k(z, w) = sum_j a_j <z, w>^j`` with
``a_0 = 1`` and ``a_j > 0``.  Everything downstream (monomial norms, shift
weights, defect identities) is a function of these coefficient sequences,
so this module also carries the series plumbing: truncated reciprocals,
the complete Nevanlinna-Pick certificate on ``1 - 1/k``, and the sign-test
coefficients of ``1/k``.

Coefficient arithmetic is double precision with a documented cap
``SERIES_CAP = 64`` on the order; all downstream tolerances are >= 1e-12
and every family's coefficients stay well inside double range at that cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError, SeriesRangeError

__all__ = [
    "SERIES_CAP",
    "KernelSpec1D",
    "BallKernelSpec",
    "PowerSeries",
    "coeff_1d",
    "ball_coeff",
    "series_1d",
    "ball_series",
    "convolve",
    "reciprocal_series",
    "CnpCertificate",
    "cnp_certificate",
    "ChenCoeffs",
    "chen_coeffs",
    "hardy",
    "bergman",
    "dirichlet",
    "weighted_bergman",
    "drury_arveson",
    "hm_ball",
]

SERIES_CAP = 64

_FAMILIES_1D = ("hardy", "bergman", "weighted_bergman", "dirichlet", "custom")
_FAMILIES_BALL = ("hm", "unitarily_invariant_custom")


@dataclass(frozen=True)
class KernelSpec1D:
    """A one-variable kernel family given by its diagonal coefficients.

    ``alpha`` is meaningful only for ``weighted_bergman``: the kernel is
    ``(1 - z w~)^(alpha - 2)``, i.e. ``(1 - z w~)^(-s)`` with ``s = 2 - alpha``,
    so ``alpha = 1`` is Hardy and ``alpha = 0`` is Bergman.  Coefficient
    positivity restricts alpha to (-1, 2).  For which s the paper's
    wandering-subspace hypothesis holds, see ROADMAP.md item 7.
    """

    family: str
    alpha: float = 0.0
    custom_coeffs: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in _FAMILIES_1D:
            raise InvalidInputError(f"unknown 1-D kernel family {self.family!r}")
        if self.family == "weighted_bergman" and not (-1.0 < self.alpha < 2.0):
            raise InvalidInputError(
                f"weighted_bergman parameter alpha={self.alpha} outside (-1, 2); "
                "coefficients of (1-x)^(alpha-2) are not strictly positive there"
            )
        if self.family == "custom":
            if not self.custom_coeffs:
                raise InvalidInputError("custom family requires custom_coeffs")
            coeffs = tuple(float(c) for c in self.custom_coeffs)
            if any(not math.isfinite(c) or c <= 0.0 for c in coeffs):
                raise InvalidInputError("custom coefficients must be positive and finite")
            object.__setattr__(self, "custom_coeffs", coeffs)


@dataclass(frozen=True)
class BallKernelSpec:
    """A unitarily invariant kernel on the ball B_n.

    Family ``hm`` is ``(1 - <z, w>)^(-m)`` with integer ``m >= 1``
    (``m = 1`` is Drury-Arveson); ``unitarily_invariant_custom`` takes the
    coefficient list ``a_coeffs`` directly, requiring ``a_0 = 1``.
    """

    n: int
    family: str
    m: Optional[int] = None
    a_coeffs: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"ball dimension n={self.n} must be >= 1")
        if self.family not in _FAMILIES_BALL:
            raise InvalidInputError(f"unknown ball kernel family {self.family!r}")
        if self.family == "hm":
            if self.m is None or int(self.m) < 1:
                raise InvalidInputError("family hm requires integer m >= 1")
            object.__setattr__(self, "m", int(self.m))
        else:
            if not self.a_coeffs:
                raise InvalidInputError("custom ball family requires a_coeffs")
            coeffs = tuple(float(a) for a in self.a_coeffs)
            if coeffs[0] != 1.0:
                raise InvalidInputError("ball kernel requires a_0 = 1")
            if any(not math.isfinite(a) or a <= 0.0 for a in coeffs):
                raise InvalidInputError("ball coefficients must be positive and finite")
            object.__setattr__(self, "a_coeffs", coeffs)


@dataclass(frozen=True)
class PowerSeries:
    """A truncated real power series; ``coeffs[j]`` is the x^j coefficient."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def length(self) -> int:
        return len(self.coeffs)


def _check_order(m: int) -> None:
    if m < 0:
        raise InvalidInputError(f"coefficient index {m} is negative")
    if m > SERIES_CAP:
        raise SeriesRangeError(
            f"coefficient index {m} beyond documented series cap {SERIES_CAP}"
        )


def coeff_1d(spec: KernelSpec1D, m: int) -> float:
    """Coefficient c_m of the one-variable kernel ``sum c_m (z w~)^m``."""
    _check_order(m)
    if spec.family == "hardy":
        return 1.0
    if spec.family == "bergman":
        return float(m + 1)
    if spec.family == "dirichlet":
        return 1.0 / (m + 1)
    if spec.family == "weighted_bergman":
        # coefficient of x^m in (1-x)^(alpha-2); ratio recurrence keeps it exact
        # for integer alpha and stable otherwise: c_m/c_{m-1} = (m+1-alpha)/m.
        c = 1.0
        for j in range(1, m + 1):
            c *= (j + 1.0 - spec.alpha) / j
        return c
    # custom
    if m >= len(spec.custom_coeffs):
        raise SeriesRangeError(
            f"custom spec has {len(spec.custom_coeffs)} coefficients, index {m} requested"
        )
    return spec.custom_coeffs[m]


def ball_coeff(spec: BallKernelSpec, j: int) -> float:
    """Coefficient a_j of the ball kernel ``sum a_j <z, w>^j``."""
    _check_order(j)
    if spec.family == "hm":
        try:
            return float(math.comb(j + spec.m - 1, j))
        except OverflowError:
            raise SeriesRangeError(f"H_m coefficient a_{j} = C(j + m - 1, j) is beyond float range") from None
    if j >= len(spec.a_coeffs):
        raise SeriesRangeError(
            f"custom ball spec has {len(spec.a_coeffs)} coefficients, index {j} requested"
        )
    return spec.a_coeffs[j]


def series_1d(spec: KernelSpec1D, order: int) -> PowerSeries:
    """The diagonal series of a 1-D kernel to the given order (length order+1)."""
    return PowerSeries(tuple(coeff_1d(spec, m) for m in range(order + 1)))


def ball_series(spec: BallKernelSpec, order: int) -> PowerSeries:
    """The diagonal series of a ball kernel in <z, w> to the given order."""
    return PowerSeries(tuple(ball_coeff(spec, j) for j in range(order + 1)))


def convolve(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Truncated product of two series of equal length."""
    if a.length != b.length:
        raise InvalidInputError("series arithmetic requires equal lengths")
    n = a.length
    out = [0.0] * n
    for j in range(n):
        out[j] = math.fsum(a.coeffs[i] * b.coeffs[j - i] for i in range(j + 1))
    return PowerSeries(tuple(out))


def reciprocal_series(c: PowerSeries) -> PowerSeries:
    """Truncated reciprocal r with ``c * r = 1 + O(x^L)``, L = c.length.

    Recurrence: r_0 = 1/c_0, r_j = -(1/c_0) sum_{i=1..j} c_i r_{j-i}.
    """
    if c.length == 0 or c.coeffs[0] == 0.0:
        raise InvalidInputError("reciprocal requires a nonzero constant term")
    inv0 = 1.0 / c.coeffs[0]
    r = [inv0]
    for j in range(1, c.length):
        acc = math.fsum(c.coeffs[i] * r[j - i] for i in range(1, j + 1))
        r.append(-inv0 * acc)
    return PowerSeries(tuple(r))


@dataclass(frozen=True)
class CnpCertificate:
    """Order-L certificate on the series ``b`` of 1 - 1/k.

    ``is_cnp_to_L`` holds iff b_j >= -tol for all 1 <= j <= L; the condition
    is certified up to the stated order only (the full property is an
    infinite-series positivity).
    """

    is_cnp_to_L: bool
    b: PowerSeries
    first_violation: Optional[int]
    order: int
    tol: float


def cnp_certificate(series: PowerSeries, tol: float = 1e-12) -> CnpCertificate:
    """Sign test of 1 - 1/k on the diagonal series of a normalized kernel."""
    if series.length == 0 or series.coeffs[0] != 1.0:
        raise InvalidInputError(
            "cnp test requires a normalized kernel (constant coefficient exactly 1)"
        )
    r = reciprocal_series(series)
    b = [0.0] + [-r.coeffs[j] for j in range(1, series.length)]
    order = series.length - 1
    first_violation = None
    for j in range(1, order + 1):
        if b[j] < -tol:
            first_violation = j
            break
    return CnpCertificate(
        is_cnp_to_L=first_violation is None,
        b=PowerSeries(tuple(b)),
        first_violation=first_violation,
        order=order,
        tol=tol,
    )


@dataclass(frozen=True)
class ChenCoeffs:
    """Coefficients c of 1/k with the nonpositivity flag of the tail signs."""

    c: PowerSeries
    signs_ok: bool


def chen_coeffs(spec: BallKernelSpec, order: int, tol: float = 1e-12) -> ChenCoeffs:
    """Series of 1/k for a unitarily invariant ball kernel; c_0 = 1.

    ``signs_ok`` iff c_j <= tol for all 1 <= j <= order, the sign condition
    under which the reconstruction identity downstream is available.
    """
    series = ball_series(spec, order)
    c = reciprocal_series(series)
    signs_ok = all(c.coeffs[j] <= tol for j in range(1, order + 1))
    return ChenCoeffs(c=c, signs_ok=signs_ok)


def hardy() -> KernelSpec1D:
    return KernelSpec1D("hardy")


def bergman() -> KernelSpec1D:
    return KernelSpec1D("bergman")


def dirichlet() -> KernelSpec1D:
    return KernelSpec1D("dirichlet")


def weighted_bergman(alpha: float) -> KernelSpec1D:
    return KernelSpec1D("weighted_bergman", alpha=alpha)


def drury_arveson(n: int) -> BallKernelSpec:
    return BallKernelSpec(n=n, family="hm", m=1)


def hm_ball(n: int, m: int) -> BallKernelSpec:
    return BallKernelSpec(n=n, family="hm", m=m)
