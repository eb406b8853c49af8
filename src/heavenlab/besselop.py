"""Operator Bessel coefficients J_m(tX) and their recurrence checks.

J_m(tX) is the z^m coefficient of the generating expansion

    exp((t/2) X (z - 1/z)) = sum_m z^m J_m(tX),

so for m >= 0 the t^{m+2j} coefficient is
(-1)^j / (j! (j+m)!) (1/2)^{m+2j} X^{m+2j}, and J_{-k} = (-1)^k J_k.  Series
are truncated polynomials in t with Operator coefficients; the rational scalar
coefficients are always computed exactly (big-integer factorials) and rounded
once when the series lives in float mode.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .opcore import (
    EXACT,
    FLOAT,
    DimensionMismatchError,
    ModeMismatchError,
    Operator,
    frobenius,
    operator_exp,
)
from .report import VerificationReport, make_record

EPS = float(np.finfo(np.float64).eps)


class TailBound:
    """Upper bound on the norm of everything a truncation dropped."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)


class OperatorSeries:
    """Truncated power series in t with Operator coefficients.

    Degree-truncating ring: addition and scalar/operator multiplication keep
    the stored degree; shift(k) multiplies by t^k by index shifting (never by
    division).  tail_fn, when present, maps |t| to a bound on the dropped
    infinite tail.
    """

    __slots__ = ("coeffs", "tail_fn")

    def __init__(
        self,
        coeffs: Sequence[Operator],
        tail_fn: Optional[Callable[[float], float]] = None,
    ):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        dim, mode = coeffs[0].dim, coeffs[0].mode
        for c in coeffs:
            if c.dim != dim:
                raise DimensionMismatchError("series coefficients must share dimension")
            if c.mode != mode:
                raise ModeMismatchError("series coefficients must share mode")
        self.coeffs = coeffs
        self.tail_fn = tail_fn

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs[0].dim

    @property
    def mode(self) -> str:
        return self.coeffs[0].mode

    def coefficient(self, j: int) -> Operator:
        if j < 0:
            raise IndexError("negative degree")
        if j <= self.degree:
            return self.coeffs[j]
        return Operator.zero(self.dim, self.mode)

    def __add__(self, other: "OperatorSeries") -> "OperatorSeries":
        d = min(self.degree, other.degree)
        return OperatorSeries([self.coeffs[j] + other.coeffs[j] for j in range(d + 1)])

    def __sub__(self, other: "OperatorSeries") -> "OperatorSeries":
        d = min(self.degree, other.degree)
        return OperatorSeries([self.coeffs[j] - other.coeffs[j] for j in range(d + 1)])

    def scale(self, s) -> "OperatorSeries":
        return OperatorSeries([c.scale(s) for c in self.coeffs])

    def lmul(self, op: Operator) -> "OperatorSeries":
        """op * series, coefficient-wise."""
        return OperatorSeries([op @ c for c in self.coeffs])

    def map_coeffs(self, f: Callable[[Operator], Operator]) -> "OperatorSeries":
        return OperatorSeries([f(c) for c in self.coeffs])

    def shift(self, k: int) -> "OperatorSeries":
        """Multiply by t^k (k >= 0), extending the stored degree by k."""
        if k < 0:
            raise ValueError("shift must be >= 0; divide-by-t is never performed")
        z = Operator.zero(self.dim, self.mode)
        return OperatorSeries([z] * k + list(self.coeffs))

    def truncate(self, degree: int) -> "OperatorSeries":
        if degree >= self.degree:
            return self
        return OperatorSeries(self.coeffs[: degree + 1])

    def derivative(self) -> "OperatorSeries":
        if self.degree == 0:
            return OperatorSeries([Operator.zero(self.dim, self.mode)])
        return OperatorSeries(
            [self.coeffs[j].scale(j) for j in range(1, self.degree + 1)]
        )

    def max_coeff_norm(self, through: Optional[int] = None) -> float:
        hi = self.degree if through is None else min(through, self.degree)
        return max(frobenius(self.coeffs[j]) for j in range(hi + 1))


def series_eval(s: OperatorSeries, t) -> tuple[Operator, TailBound]:
    """Horner evaluation at t (Fraction in exact mode, float otherwise)."""
    if s.mode == EXACT and not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    acc = s.coeffs[-1]
    for j in range(s.degree - 1, -1, -1):
        acc = acc.scale(t) + s.coeffs[j]
    t_abs = abs(float(t))
    tail = TailBound(s.tail_fn(t_abs) if s.tail_fn is not None else 0.0)
    return acc, tail


def bessel_terms(m: int, D: int) -> Iterator[tuple[int, Fraction]]:
    """(deg, q) with J_m(tX) = sum q t^deg X^deg, for deg <= D, ascending deg.

    At deg = |m| + 2j, q = (-1)^j / (j! (j+|m|)! 2^deg), times (-1)^m when
    m < 0 (J_{-k} = (-1)^k J_k).  Empty when D < |m|.
    """
    ma = abs(m)
    sign = -1 if (m < 0 and ma % 2 == 1) else 1
    for deg in range(ma, D + 1, 2):
        j = (deg - ma) // 2
        yield deg, Fraction(
            sign * (-1) ** j, math.factorial(j) * math.factorial(deg - j) * 2**deg
        )


def scalar_bessel_majorant(r: float, m: int, from_j: int = 0) -> float:
    """sum_{j>=from_j} r^{|m|+2j} / (j! (j+|m|)!), a norm majorant for J_m.

    Evaluated as a finite sum with a geometric cap once the term ratio drops
    below 1/2, so the returned value is a true upper bound.
    """
    m = abs(m)
    r = abs(r)
    if r == 0.0:
        return 1.0 if (m == 0 and from_j == 0) else 0.0
    j = from_j
    try:
        term = r ** (m + 2 * j) / (math.factorial(j) * math.factorial(j + m))
    except OverflowError:
        return math.inf
    total = 0.0
    while True:
        ratio = r * r / ((j + 1) * (j + 1 + m))
        if ratio < 0.5:
            total += term
            # remaining sum < term * ratio / (1 - ratio) < term * 2 * ratio
            total += term * ratio / (1.0 - ratio)
            return total
        total += term
        term *= ratio
        j += 1
        if j > from_j + 10_000:
            return math.inf


def bessel_tail(r: float, m: int, degree: int) -> float:
    """Majorant for the part of J_m with t-degree beyond `degree`."""
    m = abs(m)
    if degree >= m:
        j_first = (degree - m) // 2 + 1
    else:
        j_first = 0
    return scalar_bessel_majorant(r, m, from_j=j_first)


def bilateral_tail(r: float, K: int) -> float:
    """Majorant for sum_{|k| > K} ||J_k(tX)|| at r = |t| ||X|| / 2."""
    total = 0.0
    k = K + 1
    while True:
        g = scalar_bessel_majorant(r, k)
        total += 2.0 * g
        if g < 1e-30 * max(total, 1.0) or g == 0.0:
            return total
        k += 1
        if k > K + 10_000:
            return math.inf


def bessel_series(
    X: Operator,
    m: int,
    D: int,
    powers: Optional[list[Operator]] = None,
) -> OperatorSeries:
    """J_m(tX) truncated at t-degree D.

    Negative index via J_{-k} = (-1)^k J_k.  When D < |m| every stored
    coefficient is zero, which is still the correct truncation.
    """
    if D < 0:
        raise ValueError("degree must be >= 0")
    mode = X.mode
    n = X.dim
    zero = Operator.zero(n, mode)
    if powers is None:
        powers = [Operator.identity(n, mode)]
    while len(powers) <= D:
        powers.append(powers[-1] @ X)
    coeffs: list[Operator] = [zero] * (D + 1)
    for deg, q in bessel_terms(m, D):
        coeffs[deg] = powers[deg].scale(q)
    return OperatorSeries(coeffs, tail_fn=_make_bessel_tail_fn(X, m, D))


def _make_bessel_tail_fn(X: Operator, m: int, D: int) -> Callable[[float], float]:
    nx = frobenius(X)

    def tail(t_abs: float) -> float:
        return bessel_tail(t_abs * nx / 2.0, m, D)

    return tail


def bessel_eval(
    X_powers: list[Operator], m: int, t, mode: str
) -> Operator:
    """J_m(tX) evaluated directly at numeric t from cached powers of X.

    Used by the bilateral-sum solution where building full series objects for
    every index would repeat work.  Summation is in ascending degree, matching
    the series construction.
    """
    acc = Operator.zero(X_powers[0].dim, mode)
    if mode == EXACT and not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    for deg, q in bessel_terms(m, len(X_powers) - 1):
        acc = acc + X_powers[deg].scale(q * t**deg)
    return acc


def generating_oracle(
    X: Operator, m: int, t: float, nodes: int = 64, imag_tol: float = 1e-12
) -> Operator:
    """Quadrature route to J_m(tX):

        J_m(tX) = (1/2pi) int_0^{2pi} exp(i t X sin(theta)) e^{-i m theta} dtheta

    with a uniform trapezoid rule (spectrally accurate for this integrand).
    For real X the complex residue is checked against imag_tol before being
    discarded; a residue above the threshold raises instead of being dropped.
    """
    if X.mode != FLOAT:
        raise ModeMismatchError("generating_oracle requires float mode")
    if nodes < 8:
        raise ValueError("nodes must be >= 8")
    was_real = not np.iscomplexobj(X.data)
    n = X.dim
    acc = np.zeros((n, n), dtype=np.complex128)
    scale = math.exp(min(abs(t) * frobenius(X), 700.0))
    exp_tol = 1e-15 * max(1.0, scale)
    for jn in range(nodes):
        theta = 2.0 * math.pi * jn / nodes
        arg = X.scale(1j * t * math.sin(theta))
        e = operator_exp(arg, tol=exp_tol)
        acc += e.data * cmath.exp(-1j * m * theta)
    acc /= nodes
    if was_real:
        imag_norm = float(np.sqrt((acc.imag**2).sum()))
        if imag_norm > imag_tol:
            raise ValueError(
                f"complex residue {imag_norm:.3e} exceeds {imag_tol:.3e}; not discarded"
            )
        return Operator._float(np.ascontiguousarray(acc.real))
    return Operator._float(acc)


# -- recurrence checks -----------------------------------------------------

RELATIONS = (
    "negative_index",
    "recurrence_2k",
    "derivative_diff",
    "positive_derivative",
    "negative_derivative",
)

_REL_EQUATIONS = {
    "negative_index": "J_{-k}(tL) = (-1)^k J_k(tL)",
    "recurrence_2k": "2k J_k(tL) = tL [J_{k-1}(tL) + J_{k+1}(tL)]",
    "derivative_diff": "2 d/dt J_k(tL) = L [J_{k-1}(tL) - J_{k+1}(tL)]",
    "positive_derivative": "d/dt[t^k J_k(tL)] = L t^k J_{k-1}(tL)",
    "negative_derivative": "d/dt[t^-k J_k(tL)] = -L t^-k J_{k+1}(tL)",
}


def _series_cache(L: Operator, D: int, k_lo: int, k_hi: int) -> dict[int, OperatorSeries]:
    powers = [Operator.identity(L.dim, L.mode)]
    return {k: bessel_series(L, k, D, powers=powers) for k in range(k_lo, k_hi + 1)}


def _max_residual(diff: OperatorSeries, through: int) -> float:
    return max(
        frobenius(diff.coefficient(d)) for d in range(min(through, diff.degree) + 1)
    )


def check_recurrence(
    rel: str,
    L: Operator,
    D: int,
    k_range: Sequence[int],
) -> VerificationReport:
    """Coefficient-wise verification of one recurrence or derivative relation.

    Derivative relations with t^{+-k} prefactors are verified in the
    t-multiplied polynomial form (k J_k + t J_k' = t L J_{k-1} and
    -k J_k + t J_k' = -t L J_{k+1}); nothing is ever divided by t.  Algebraic
    relations are compared through degree D-1, derivative relations through
    D-2, where both sides' truncations are complete.
    """
    if rel not in RELATIONS:
        raise ValueError(f"unknown relation {rel!r}; expected one of {RELATIONS}")
    k_range = sorted(set(int(k) for k in k_range))
    if not k_range:
        raise ValueError("k_range must be nonempty")
    need = max(abs(k) + 1 for k in k_range)
    if D < need + 1:
        raise ValueError(
            f"k outside series support: need degree >= {need + 1}, got {D}"
        )
    lo, hi = k_range[0], k_range[-1]
    # k -+ 1 for the recurrences, -k for negative_index
    J = _series_cache(L, D, min(lo - 1, -hi), max(hi + 1, -lo))
    exact = L.mode == EXACT
    # float-mode roundoff allowance; exact mode demands literal zero
    fl_bound = 0.0
    if not exact:
        scale = max(1.0, frobenius(L)) * max(
            s.max_coeff_norm() for s in J.values()
        )
        fl_bound = 64.0 * EPS * (D + 2) * scale

    records = []
    for k in k_range:
        if rel == "negative_index":
            diff = J[-k] - J[k].scale((-1) ** k)
            through = D - 1
        elif rel == "recurrence_2k":
            rhs = (J[k - 1] + J[k + 1]).lmul(L).shift(1)
            diff = J[k].scale(2 * k) - rhs
            through = D - 1
        elif rel == "derivative_diff":
            lhs = J[k].derivative().scale(2)
            rhs = (J[k - 1] - J[k + 1]).lmul(L)
            diff = lhs - rhs
            through = D - 2
        elif rel == "positive_derivative":
            # t^{1-k} * (d/dt[t^k J_k] - L t^k J_{k-1}) = k J_k + t J_k' - t L J_{k-1}
            diff = J[k].scale(k) + J[k].derivative().shift(1) - J[k - 1].lmul(L).shift(1)
            through = D - 2
        else:  # negative_derivative
            # t^{1+k} * (d/dt[t^-k J_k] + L t^-k J_{k+1}) = -k J_k + t J_k' + t L J_{k+1}
            diff = J[k].scale(-k) + J[k].derivative().shift(1) + J[k + 1].lmul(L).shift(1)
            through = D - 2
        residual = _max_residual(diff, through)
        records.append(
            make_record(
                check_id=f"{rel}[k={k}]",
                suite="bessel-recurrences",
                equation=_REL_EQUATIONS[rel],
                residual=residual,
                bound=0.0 if exact else fl_bound,
                detail=f"degree {D}, compared through {through}, mode {L.mode}",
            )
        )
    return VerificationReport(name=f"recurrence:{rel}", records=tuple(records))


def sum_rule_residual(X: Operator, t, K: int, D: int) -> tuple[float, float]:
    """Residual and bound for sum_{|m|<=K} J_m(tX) = identity.

    Returns (residual, bound) where bound combines the bilateral index tail
    with the per-series truncation tails (plus roundoff in float mode).
    """
    powers = [Operator.identity(X.dim, X.mode)]
    acc = Operator.zero(X.dim, X.mode)
    tail_sum = 0.0
    t_abs = abs(float(t))
    for m_idx in range(-K, K + 1):
        s = bessel_series(X, m_idx, D, powers=powers)
        val, tb = series_eval(s, t)
        acc = acc + val
        tail_sum += tb.value
    resid = frobenius(acc - Operator.identity(X.dim, X.mode))
    r = t_abs * frobenius(X) / 2.0
    bound = bilateral_tail(r, K) + tail_sum
    if X.mode == FLOAT:
        bound += 64.0 * EPS * (2 * K + 1) * max(1.0, frobenius(X)) * math.exp(min(2 * r, 700.0))
    return resid, bound
