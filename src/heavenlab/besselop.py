"""Operator Bessel coefficients J_m(tX) and their recurrence checks.

J_m(tX) is the z^m coefficient of the generating expansion

    exp((t/2) X (z - 1/z)) = sum_m z^m J_m(tX),

so for m >= 0 the t^{m+2j} coefficient is
(-1)^j / (j! (j+m)!) (1/2)^{m+2j} X^{m+2j}, and J_{-k} = (-1)^k J_k.  Series
are truncated polynomials in t with Operator coefficients; the rational scalar
coefficients are always computed exactly (big-integer factorials), and float
mode rounds each one once, where it reads it.

`bessel_terms` yields those scalars and `bessel_family` lays them over a
tower of operators, for several indices over the one tower; `bessel_coeffs`
is one index of it with its tail.  The powers of X (`opcore.powers`) give
J_m(tX), and the ad tower of A (`adjoint.ad_tower`) gives J_m(t ad_L)[A] in
`prolong`.

An exact `OperatorSeries` is a tuple of canonical Operators.  A float series
is one (D+1, n, n) array, and a float family one (B, D+1, n, n) batch, so a
series operation is one numpy expression and one finiteness check, not one
Operator and one check per degree and index; each entry still gets the bits
the per-coefficient Operator arithmetic gives.

In exact mode every sum of Bessel coefficients at a rational t is one
rational combination of the powers of X: `series_eval` adds c_j t^j over the
nonzero coefficients, and `sum_rule_residual` sums the scalar coefficients
over m before it scales each power of X once.  Exact results are canonical,
so these routes give the same bits as Horner's rule.  Float mode keeps
Horner, on the coefficient array, and the sum of one series per index,
because the roundoff of those routes is what the float bounds cover.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .opcore import (
    EPS,
    EXACT,
    FLOAT,
    DimensionMismatchError,
    ModeMismatchError,
    Operator,
    check_finite,
    combination,
    frobenius,
    frobenius_stack,
    mode_scalar,
    operator_exp,
    powers as operator_powers,
)
from .report import VerificationReport, make_record


class TailBound:
    """Upper bound on the norm of everything a truncation dropped."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)


class OperatorSeries:
    """Truncated power series in t with Operator coefficients.

    Degree-truncating ring: addition and scalar/operator multiplication keep
    the stored degree; shift(k) multiplies by t^k by index shifting (never by
    division).  tail_fn, set where a Bessel series is built and carried by
    no arithmetic result, maps |t| to a bound on the dropped infinite tail.

    The storage follows the mode.  An exact series is a tuple of canonical
    Operators.  A float series is one read-only (D+1, n, n) array: each
    operation is one numpy expression over every degree, then one finiteness
    check on its result, and gives every entry the bits that the Operator
    arithmetic on that coefficient gives.  Its `coeffs` are read-only
    Operator views of the array, built on first use.

    A float series may also be a batch, a (B, D+1, n, n) array of B series
    of one degree (the rows of a Bessel family).  Arithmetic acts on every
    row at once, `scale` takes one scalar per row, indexing with an int
    array picks rows, and `max_coeff_norm` gives one maximum per row;
    `coeffs` and `coefficient` read unbatched series only.
    """

    __slots__ = ("_arr", "_coeffs", "dim", "mode", "tail_fn")

    def __init__(self, coeffs: Sequence[Operator]):
        """The series with these coefficients, which the caller takes from
        one tower or one series' arithmetic: they share dimension and mode."""
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        self._arr = None
        self.mode = coeffs[0].mode
        if self.mode == FLOAT:
            self._arr = np.stack([c._arr for c in coeffs])
            self._arr.setflags(write=False)
        self._coeffs = coeffs
        self.dim = coeffs[0].dim
        self.tail_fn = None

    @classmethod
    def _checked(cls, arr: np.ndarray) -> "OperatorSeries":
        """A float series over the (D+1, n, n) array, or the batch over the
        (B, D+1, n, n) array, the caller hands over: refused if any entry is
        inf or nan."""
        return cls._float(check_finite(arr))

    @classmethod
    def _float(cls, arr: np.ndarray) -> "OperatorSeries":
        """`_checked` for an array the caller knows to be finite."""
        if not arr.shape[-3]:
            raise ValueError("series needs at least the constant coefficient")
        arr.setflags(write=False)
        s = object.__new__(cls)
        s._arr, s._coeffs, s.dim, s.mode, s.tail_fn = arr, None, arr.shape[-1], FLOAT, None
        return s

    def __getitem__(self, rows) -> "OperatorSeries":
        """The rows `rows` (an int array) of a batched float series."""
        return OperatorSeries._float(self._arr[rows])

    @property
    def coeffs(self) -> tuple[Operator, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Operator._float(c) for c in self._arr)
        return self._coeffs

    @property
    def degree(self) -> int:
        return (len(self._coeffs) if self._arr is None else self._arr.shape[-3]) - 1

    def coefficient(self, j: int) -> Operator:
        if j < 0:
            raise IndexError("negative degree")
        if j <= self.degree:
            return self.coeffs[j]
        return Operator.zero(self.dim, self.mode)

    def _require_compatible(self, other) -> None:
        """`other` (a series or an Operator) has this series' mode and dimension."""
        if self.mode != other.mode:
            raise ModeMismatchError(f"mode mismatch: {self.mode} vs {other.mode}")
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _zip(self, other: "OperatorSeries", f) -> "OperatorSeries":
        """f of the coefficients of both series, through the lower degree."""
        self._require_compatible(other)
        if self._arr is None:
            return OperatorSeries(map(f, self.coeffs, other.coeffs))
        d = min(self.degree, other.degree) + 1
        return OperatorSeries._checked(f(self._arr[..., :d, :, :], other._arr[..., :d, :, :]))

    def __add__(self, other: "OperatorSeries") -> "OperatorSeries":
        return self._zip(other, operator.add)

    def __sub__(self, other: "OperatorSeries") -> "OperatorSeries":
        return self._zip(other, operator.sub)

    def scale(self, s) -> "OperatorSeries":
        """s times the series; for a batch, s may be an array of one scalar per row."""
        if self._arr is None:
            return OperatorSeries([c.scale(s) for c in self.coeffs])
        if isinstance(s, np.ndarray):
            s = s[:, None, None, None]
        elif isinstance(s, Fraction):
            # as in Operator.scale, a Fraction is rounded to a float once
            s = float(s)
        return OperatorSeries._checked(self._arr * s)

    def lmul(self, op: Operator) -> "OperatorSeries":
        """op * series, coefficient-wise."""
        self._require_compatible(op)
        if self._arr is None:
            return OperatorSeries([op @ c for c in self.coeffs])
        # one np.dot per matrix, the product Operator.__matmul__ forms
        arr = self._arr
        flat = arr.reshape(-1, self.dim, self.dim)
        return OperatorSeries._checked(
            np.stack([np.dot(op._arr, c) for c in flat]).reshape(arr.shape)
        )

    def shift(self, k: int) -> "OperatorSeries":
        """Multiply by t^k (k >= 0), extending the stored degree by k."""
        if k < 0:
            raise ValueError("shift must be >= 0; divide-by-t is never performed")
        if self._arr is None:
            z = Operator.zero(self.dim, self.mode)
            return OperatorSeries([z] * k + list(self.coeffs))
        arr = self._arr
        pad = np.zeros(arr.shape[:-3] + (k,) + arr.shape[-2:], arr.dtype)
        return OperatorSeries._checked(np.concatenate((pad, arr), axis=-3))

    def derivative(self) -> "OperatorSeries":
        if self.degree == 0:
            return OperatorSeries([Operator.zero(self.dim, self.mode)])
        if self._arr is None:
            return OperatorSeries(
                [self.coeffs[j].scale(j) for j in range(1, self.degree + 1)]
            )
        j = np.arange(1, self.degree + 1, dtype=np.float64)
        return OperatorSeries._checked(self._arr[..., 1:, :, :] * j[:, None, None])

    def max_coeff_norm(self, through: Optional[int] = None):
        """The largest coefficient norm through degree `through`; for a
        batch, a list of one such maximum per row."""
        hi = self.degree if through is None else min(through, self.degree)
        if self._arr is None:
            return max(frobenius(c) for c in self.coeffs[: hi + 1])
        arr = self._arr[..., : hi + 1, :, :]
        norms = frobenius_stack(arr.reshape(-1, self.dim, self.dim))
        if arr.ndim == 3:
            return max(norms)
        return [max(norms[i : i + hi + 1]) for i in range(0, len(norms), hi + 1)]


def _tower_sum(tower: Sequence[Operator], terms, t) -> Operator:
    """sum of tower[deg] scaled by q t^deg over the (deg, q) of `terms`, in
    their order, from the zero operator (`opcore.combination`); t is a
    scalar of the tower's mode."""
    first = tower[0]
    pairs = ((tower[deg], q * t**deg) for deg, q in terms)
    return combination(Operator.zero(first.dim, first.mode), pairs)


def series_eval(s: OperatorSeries, t) -> tuple[Operator, TailBound]:
    """The series at t, taken in the series' mode by `mode_scalar`, and its tail.

    Exact mode sums c_j t^j over the nonzero coefficients only (`_tower_sum`).
    Exact arithmetic makes this equal to Horner's rule, and an exact Operator
    is canonical, so the result is bit-identical; but it never rescales a
    dense accumulator once per degree.  Float mode keeps Horner, on the raw
    coefficient array: its rounding is what the float checks bound.  An inf
    or nan stays non-finite under * and +, so one finiteness check of the
    result catches an overflow at any step.
    """
    t = mode_scalar(t, s.mode)
    if s.mode == EXACT:
        nonzero = ((j, 1) for j, c in enumerate(s.coeffs) if not c.is_zero())
        acc = _tower_sum(s.coeffs, nonzero, t)
    else:
        arr = s._arr
        acc = arr[-1]
        for j in range(s.degree - 1, -1, -1):
            acc = acc * t + arr[j]
        acc = Operator._checked(acc)
    t_abs = abs(float(t))
    tail = TailBound(s.tail_fn(t_abs) if s.tail_fn is not None else 0.0)
    return acc, tail


def bessel_terms(m: int, D: int) -> Iterator[tuple[int, Fraction]]:
    """(deg, q) with J_m(tX) = sum q t^deg X^deg, for deg <= D, ascending deg.

    At deg = |m| + 2j, q = (-1)^j / (j! (j+|m|)! 2^deg), times (-1)^m when
    m < 0 (J_{-k} = (-1)^k J_k).  Empty when D < |m|.  An iterator over
    `_bessel_table(m, D)`, which is built once.
    """
    return iter(_bessel_table(m, D))


# a verify reads about 50 tables; the bound keeps a long-lived process small
@functools.lru_cache(maxsize=256)
def _bessel_table(m: int, D: int) -> tuple[tuple[int, Fraction], ...]:
    ma = abs(m)
    sign = -1 if (m < 0 and ma % 2 == 1) else 1
    table = []
    for deg in range(ma, D + 1, 2):
        j = (deg - ma) // 2
        q = Fraction(sign * (-1) ** j, math.factorial(j) * math.factorial(deg - j) * 2**deg)
        table.append((deg, q))
    return tuple(table)


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


def bessel_family(tower: Sequence[Operator], ms: Sequence[int], D: int):
    """J_m laid over `tower` for each index m of `ms`, through degree D.

    Coefficient deg is tower[deg].scale(q) for each (deg, q) of
    `bessel_terms`, and zero at every other degree.  Over the powers of X
    this is J_m(tX); over the ad tower of A it is J_m(t ad_L)[A].

    Exact mode gives a list of series, one per index.  Float mode gives one
    batched series with one row per index: it stacks the tower once and
    fills each row's nonzero degrees with the products by its q, each
    rounded once to a float; a degree with no term stays the +0.0 of
    np.zeros.
    """
    first = tower[0]
    if first.mode == EXACT:
        family = []
        for m in ms:
            coeffs = [Operator.zero(first.dim, EXACT)] * (D + 1)
            for deg, q in bessel_terms(m, D):
                coeffs[deg] = tower[deg].scale(q)
            family.append(OperatorSeries(coeffs))
        return family
    # the products tower[deg]._arr * float(q); only a degree-0 entry (I,
    # or a real A) can be real in a complex tower, and its q is J_0's 1,
    # so promoting it with the stack keeps the bits
    stack = np.stack([c._arr for c in tower[: D + 1]])
    arr = np.zeros((len(ms),) + stack.shape, stack.dtype)
    for row, m in zip(arr, ms):
        terms = tuple(bessel_terms(m, D))
        degs = [deg for deg, _ in terms]
        row[degs] = stack[degs] * np.array([float(q) for _, q in terms])[:, None, None]
    return OperatorSeries._checked(arr)


def bessel_coeffs(tower: Sequence[Operator], m: int, D: int, rate: float, norm: float):
    """J_m laid over `tower` through degree D (`bessel_family`), with its
    tail.  `rate` and `norm` bound the tower, ||tower[j]|| <= norm * rate^j,
    so the dropped terms at |t| are at most norm * `bessel_tail`(|t| rate / 2,
    m, D)."""
    s = bessel_family(tower, (m,), D)[0]
    s.tail_fn = lambda t_abs: norm * bessel_tail(t_abs * rate / 2.0, m, D)
    return s


def bessel_series(X: Operator, m: int, D: int) -> OperatorSeries:
    """J_m(tX) truncated at t-degree D.

    Negative index via J_{-k} = (-1)^k J_k.  When D < |m| every stored
    coefficient is zero, which is still the correct truncation.
    """
    if D < 0:
        raise ValueError("degree must be >= 0")
    return bessel_coeffs(operator_powers(X, D), m, D, frobenius(X), 1.0)


def bessel_eval(X_powers: list[Operator], m: int, t) -> Operator:
    """J_m(tX) evaluated directly at numeric t from cached powers of X, in
    their mode.

    Used by the bilateral-sum solution where building full series objects for
    every index would repeat work.  Summation is in ascending degree, matching
    the series construction.  In float mode each weight q t^deg is
    float(q) * t**deg, q rounded once.
    """
    t = mode_scalar(t, X_powers[0].mode)
    return _tower_sum(X_powers, bessel_terms(m, len(X_powers) - 1), t)


def generating_oracle(X: Operator, m: int, t: float, nodes: int = 64) -> Operator:
    """Quadrature route to J_m(tX):

        J_m(tX) = (1/2pi) int_0^{2pi} exp(i t X sin(theta)) e^{-i m theta} dtheta

    with a uniform trapezoid rule (spectrally accurate for this integrand).
    For real X the complex residue is checked against 1e-12 before being
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
        if imag_norm > 1e-12:
            raise ValueError(f"complex residue {imag_norm:.3e} exceeds 1e-12; not discarded")
        return Operator._float(np.ascontiguousarray(acc.real))
    return Operator._float(acc)


# -- recurrence checks -----------------------------------------------------

# name -> (equation, how many degrees short of D the comparison is
# complete, the residual series at k from the J_k family and L); k is an int,
# or in float mode an int array that J[k] reads as a batch of rows
_RELATIONS = {
    "negative_index": (
        "J_{-k}(tL) = (-1)^k J_k(tL)",
        1,
        lambda J, L, k: J[-k] - J[k].scale((-1) ** abs(k)),
    ),
    "recurrence_2k": (
        "2k J_k(tL) = tL [J_{k-1}(tL) + J_{k+1}(tL)]",
        1,
        lambda J, L, k: J[k].scale(2 * k) - (J[k - 1] + J[k + 1]).lmul(L).shift(1),
    ),
    "derivative_diff": (
        "2 d/dt J_k(tL) = L [J_{k-1}(tL) - J_{k+1}(tL)]",
        2,
        lambda J, L, k: J[k].derivative().scale(2) - (J[k - 1] - J[k + 1]).lmul(L),
    ),
    # t^{1-k} * (d/dt[t^k J_k] - L t^k J_{k-1}) = k J_k + t J_k' - t L J_{k-1}
    "positive_derivative": (
        "d/dt[t^k J_k(tL)] = L t^k J_{k-1}(tL)",
        2,
        lambda J, L, k: J[k].scale(k) + J[k].derivative().shift(1) - J[k - 1].lmul(L).shift(1),
    ),
    # t^{1+k} * (d/dt[t^-k J_k] + L t^-k J_{k+1}) = -k J_k + t J_k' + t L J_{k+1}
    "negative_derivative": (
        "d/dt[t^-k J_k(tL)] = -L t^-k J_{k+1}(tL)",
        2,
        lambda J, L, k: J[k].scale(-k) + J[k].derivative().shift(1) + J[k + 1].lmul(L).shift(1),
    ),
}
RELATIONS = tuple(_RELATIONS)


def check_recurrence(
    rel: str,
    L: Operator,
    D: int,
    k_range: Sequence[int],
) -> VerificationReport:
    """Coefficient-wise verification of one relation of `_RELATIONS`.

    Derivative relations with t^{+-k} prefactors are verified in the
    t-multiplied polynomial form (k J_k + t J_k' = t L J_{k-1} and
    -k J_k + t J_k' = -t L J_{k+1}); nothing is ever divided by t.  Algebraic
    relations are compared through degree D-1, derivative relations through
    D-2, where both sides' truncations are complete.

    The family J is one `bessel_family` call over the powers of L, laid out
    in numpy's index order, m = 0..hi and then lo..-1, so that J[k] reads
    index k for negative k as well.  Exact mode forms the residual once per
    k.  Float mode forms it once, for every k at once, over a batch of rows;
    each row gets the bits of its own per-k residual.
    """
    if rel not in _RELATIONS:
        raise ValueError(f"unknown relation {rel!r}; expected one of {RELATIONS}")
    k_range = sorted(set(int(k) for k in k_range))
    if not k_range:
        raise ValueError("k_range must be nonempty")
    need = max(abs(k) + 1 for k in k_range)
    if D < need + 1:
        raise ValueError(
            f"k outside series support: need degree >= {need + 1}, got {D}"
        )
    # k -+ 1 for the recurrences, -k for negative_index; the range spans 0
    lo, hi = min(k_range[0] - 1, -k_range[-1]), max(k_range[-1] + 1, -k_range[0])
    ms = [*range(0, hi + 1), *range(lo, 0)]
    J = bessel_family(operator_powers(L, D), ms, D)
    exact = L.mode == EXACT
    equation, short, residual_series = _RELATIONS[rel]
    through = D - short
    if exact:
        # exact mode demands literal zero
        residuals = [residual_series(J, L, k).max_coeff_norm(through) for k in k_range]
        fl_bound = 0.0
    else:
        residuals = residual_series(J, L, np.array(k_range)).max_coeff_norm(through)
        # float-mode roundoff allowance
        scale = max(1.0, frobenius(L)) * max(J.max_coeff_norm())
        fl_bound = 64.0 * EPS * (D + 2) * scale
    records = []
    for k, residual in zip(k_range, residuals):
        records.append(
            make_record(
                check_id=f"{rel}[k={k}]",
                suite="bessel-recurrences",
                equation=equation,
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

    Every J_m(tX) is sum_d q_{m,d} t^d X^d, so in exact mode the residual is
    sum_d s_d t^d X^d with the scalar s_d = sum_m q_{m,d} - [d = 0]: the
    rational work is done on scalars, and each power of X is scaled at most
    once, where s_d is nonzero.  Float mode evaluates each J_m by Horner and
    sums, since the roundoff of that route is what its bound covers.  Both
    modes add up the same tails in the same order.
    """
    t = mode_scalar(t, X.mode)
    t_abs = abs(float(t))
    nX = frobenius(X)
    r = t_abs * nX / 2.0
    ms = range(-K, K + 1)
    powers = operator_powers(X, D)
    if X.mode == EXACT:
        s = [Fraction(-1)] + [Fraction(0)] * D
        for m_idx in ms:
            for deg, q in bessel_terms(m_idx, D):
                s[deg] += q
        resid = frobenius(_tower_sum(powers, ((deg, sd) for deg, sd in enumerate(s) if sd), t))
    else:
        # series_eval's Horner on every series of the family at once, then
        # the values added in m order from zero: the same operations on
        # every entry
        stack = bessel_family(powers, ms, D)._arr
        vals = stack[:, -1]
        for j in range(D - 1, -1, -1):
            vals = vals * t + stack[:, j]
        acc = np.zeros_like(powers[0]._arr)
        for val in vals:
            acc = acc + val
        resid = frobenius(Operator._checked(acc) - Operator.identity(X.dim, X.mode))
    tail_sum = 0.0
    for m_idx in ms:
        tail_sum += bessel_tail(r, m_idx, D)
    bound = bilateral_tail(r, K) + tail_sum
    if X.mode == FLOAT:
        bound += 64.0 * EPS * (2 * K + 1) * max(1.0, nX) * math.exp(min(2 * r, 700.0))
    return resid, bound


def sum_rule_check(X: Operator, t_samples, K: int, D: int) -> VerificationReport:
    """The sum rule of `sum_rule_residual` at each t of `t_samples`, one
    record per t, in the mode of X."""
    records = []
    for t in t_samples:
        resid, bound = sum_rule_residual(X, t, K, D)
        records.append(
            make_record(
                f"sum-rule[t={t}]",
                "bessel-recurrences",
                "sum_{|m|<=K} J_m(tL) = 1",
                resid,
                bound,
                detail=f"K={K} D={D}",
            )
        )
    return VerificationReport(name="sum-rule", records=tuple(records))
