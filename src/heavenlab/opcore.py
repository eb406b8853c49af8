"""Dense operator arithmetic in two scalar modes.

Exact mode stores a matrix as a numpy object array of Python ints, its
numerators, over one positive int denominator shared by every entry.  The
pair is kept in lowest terms after every operation: the gcd of the
denominator and all numerators is 1, so the zero matrix has denominator 1
and two equal matrices have identical numerators and denominators.  A
product is one integer `np.dot` of the numerators over the product of the
denominators; a sum brings both operands to the lcm of their denominators.
Every identity that holds therefore does so bit-for-bit.  The `data` view of
an exact operator is the matrix of `fractions.Fraction` entries, built on
first use.

Most exact operands of a truncated series are exactly zero (a nilpotent L has
L^j = 0 for j >= n), so `@`, `+`, `-` and `scale` return an exact zero
operand, or the other operand, as it is.  They do so only after the mode,
dimension and scalar checks, so a mismatch still raises.  Since an exact zero
is canonical (numerators 0, denominator 1), the short cut is bit-identical to
the arithmetic it skips.  A denominator of 1 needs no gcd, and neither do
negation and `scale`: scaling by p/q first divides gcd(den, p) out of the
denominator and p, and gcd(q, all numerators) out of q and the numerators, so
the product is already in lowest terms.

Float mode stores float64 (or complex128 where a computation is intrinsically
complex).  Every result is checked finite by one reduction: a sum of the
entries that is finite proves every entry finite, and only a non-finite sum
falls back to the entrywise test, so finite entries whose sum overflows are
still accepted.  Float mode has no zero short cut: adding a zero can turn a
-0.0 entry into +0.0, and the reports are kept bit-for-bit.

All operators are immutable after construction: the backing arrays are
marked non-writeable and every operation allocates a fresh result or returns
an operand unchanged, which keeps concurrent readers safe.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

EXACT = "exact"
FLOAT = "float"

ScalarLike = Union[int, float, complex, Fraction, str]


class DimensionMismatchError(ValueError):
    pass


class ModeMismatchError(ValueError):
    pass


class NonFiniteError(ValueError):
    pass


def _exact_entry(x: ScalarLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (float, np.floating)):
        # floats are exact binary rationals; the caller opted into exact mode
        return Fraction(float(x))
    raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")


# machine epsilon of float64, the unit of every float-mode roundoff allowance
EPS = float(np.finfo(np.float64).eps)


def check_finite(arr: np.ndarray) -> np.ndarray:
    """`arr`, a float array of any shape, if no entry is inf or nan; else NonFiniteError."""
    # an inf or nan entry makes the sum inf or nan; an overflowing sum of
    # finite entries is settled by the entrywise test
    if not cmath.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise NonFiniteError("non-finite value in float-mode operator")
    return arr


def mode_scalar(t, mode: str):
    """The sample t as a scalar of `mode`: exact mode keeps an int or a
    Fraction and converts anything else with Fraction(t); float mode takes
    float(t)."""
    if mode == EXACT:
        return t if isinstance(t, (int, Fraction)) else Fraction(t)
    return float(t)


def _over_lcm(entries: Sequence[Fraction], n: int) -> tuple[np.ndarray, int]:
    """n x n int numerators over the lcm of the entries' denominators."""
    den = math.lcm(*(f.denominator for f in entries))
    num = np.array([f.numerator * (den // f.denominator) for f in entries], dtype=object)
    return num.reshape(n, n), den


class Operator:
    """Immutable dense square matrix: ints over one denominator, or float64/complex128.

    In exact mode `_arr` holds the int numerators, `denominator` the shared
    positive denominator and `_zero` whether every numerator is 0; in float
    mode `_arr` is the float array itself and `denominator` is None.
    """

    __slots__ = ("_arr", "denominator", "_view", "mode", "_zero")

    @classmethod
    def _exact(cls, num: np.ndarray, den: int) -> "Operator":
        """num/den, reduced by the gcd of den and all of num."""
        if den != 1:
            g = math.gcd(den, *num.flat)
            if g != 1:
                num = num // g
                den //= g
        return cls._lowest(num, den)

    @classmethod
    def _lowest(cls, num: np.ndarray, den: int) -> "Operator":
        """num/den, which the caller knows to be in lowest terms."""
        num.setflags(write=False)
        op = object.__new__(cls)
        op._arr = num
        op.denominator = den
        op._view = None
        op.mode = EXACT
        # a zero matrix always reduces to denominator 1
        op._zero = den == 1 and not any(num.flat)
        return op

    @classmethod
    def _float(cls, arr: np.ndarray) -> "Operator":
        """Freeze a square float64/complex128 array the caller hands over."""
        arr.setflags(write=False)
        op = object.__new__(cls)
        op._arr = arr
        op.denominator = None
        op.mode = FLOAT
        return op

    @classmethod
    def _checked(cls, arr: np.ndarray) -> "Operator":
        """A float result: refused if any entry is inf or nan."""
        return cls._float(check_finite(arr))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]], mode: str) -> "Operator":
        """The square matrix with these rows, in `mode`: the one public
        constructor from entries (rows may be a 2-d array)."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatchError("operator must be square")
        if mode == EXACT:
            return cls._exact(*_over_lcm([_exact_entry(x) for row in rows for x in row], n))
        if any(isinstance(x, complex) for row in rows for x in row):
            arr = np.array(rows, dtype=np.complex128)
        else:
            arr = np.array([[float(x) for x in row] for row in rows], dtype=np.float64)
        return cls._checked(arr)

    @classmethod
    def zero(cls, n: int, mode: str) -> "Operator":
        if mode == EXACT:
            return cls._exact(np.zeros((n, n), dtype=object), 1)
        return cls._float(np.zeros((n, n), dtype=np.float64))

    @classmethod
    def identity(cls, n: int, mode: str) -> "Operator":
        if mode == EXACT:
            num = np.zeros((n, n), dtype=object)
            np.fill_diagonal(num, 1)
            return cls._exact(num, 1)
        return cls._float(np.eye(n, dtype=np.float64))

    @classmethod
    def unit(cls, n: int, i: int, j: int, mode: str = EXACT) -> "Operator":
        """Matrix unit e_{ij} (1 at row i, column j, zero-based)."""
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"unit index ({i},{j}) outside dimension {n}")
        return cls.from_rows([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)], mode)

    @classmethod
    def diag(cls, entries: Sequence[ScalarLike], mode: str = EXACT) -> "Operator":
        n = len(entries)
        return cls.from_rows(
            [[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)], mode
        )

    # -- basic queries -----------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The entries: the float array, or a read-only Fraction view in exact mode."""
        if self.mode == FLOAT:
            return self._arr
        if self._view is None:
            den = self.denominator
            view = np.frompyfunc(lambda x: Fraction(x, den), 1, 1)(self._arr)
            view.setflags(write=False)
            self._view = view
        return self._view

    @property
    def numerators(self) -> np.ndarray:
        """Exact mode only: the read-only int numerators over `denominator`."""
        if self.mode != EXACT:
            raise ModeMismatchError("numerators exist in exact mode only")
        return self._arr

    @property
    def dim(self) -> int:
        return self._arr.shape[0]

    def entry(self, i: int, j: int):
        if self.mode == EXACT:
            return Fraction(self._arr[i, j], self.denominator)
        return self._arr[i, j]

    def is_zero(self) -> bool:
        if self.mode == EXACT:
            return self._zero
        return not self._arr.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        if self.mode != other.mode or self.dim != other.dim:
            return False
        if self.denominator != other.denominator:
            return False
        return bool((self._arr == other._arr).all())

    def __repr__(self) -> str:
        return f"Operator({self.dim}x{self.dim}, {self.mode})"

    # -- arithmetic --------------------------------------------------------

    def _require_compatible(self, other: "Operator") -> None:
        if self.mode != other.mode:
            raise ModeMismatchError(f"mode mismatch: {self.mode} vs {other.mode}")
        if self._arr.shape != other._arr.shape:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _common(self, other: "Operator") -> tuple[np.ndarray, np.ndarray, int]:
        """Both numerator arrays over the lcm of the two denominators."""
        da, db = self.denominator, other.denominator
        if da == db:
            return self._arr, other._arr, da
        den = math.lcm(da, db)
        return self._arr * (den // da), other._arr * (den // db), den

    def __add__(self, other: "Operator") -> "Operator":
        self._require_compatible(other)
        if self.mode == FLOAT:
            return Operator._checked(self._arr + other._arr)
        if self._zero:
            return other
        if other._zero:
            return self
        a, b, den = self._common(other)
        return Operator._exact(a + b, den)

    def __sub__(self, other: "Operator") -> "Operator":
        self._require_compatible(other)
        if self.mode == FLOAT:
            return Operator._checked(self._arr - other._arr)
        if other._zero:
            return self
        if self._zero:
            return -other
        a, b, den = self._common(other)
        return Operator._exact(a - b, den)

    def __neg__(self) -> "Operator":
        if self.mode == EXACT:
            return Operator._lowest(-self._arr, self.denominator)
        return Operator._checked(-self._arr)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._require_compatible(other)
        if self.mode == FLOAT:
            return Operator._checked(np.dot(self._arr, other._arr))
        if self._zero:
            return self
        if other._zero:
            return other
        return Operator._exact(
            np.dot(self._arr, other._arr), self.denominator * other.denominator
        )

    def scale(self, s: ScalarLike) -> "Operator":
        if self.mode == FLOAT:
            if isinstance(s, Fraction):
                s = float(s)
            # a complex scalar promotes a real operator; allowed in float mode
            return Operator._checked(self._arr * s)
        if isinstance(s, int):
            p, q = s, 1
        else:
            c = _exact_entry(s)
            p, q = c.numerator, c.denominator
        if self._zero:
            return self
        if not p:
            return Operator.zero(self.dim, EXACT)
        # num/den is in lowest terms and so is p/q: once gcd(den, p) and
        # gcd(q, content(num)) are divided out, the product is too
        num, den = self._arr, self.denominator
        g = math.gcd(den, p)
        if g != 1:
            den //= g
            p //= g
        if q != 1:
            g = math.gcd(q, *num.flat)
            if g != 1:
                num = num // g
                q //= g
        return Operator._lowest(num if p == 1 else num * p, den * q)

    # -- conversions -------------------------------------------------------

    def to_float(self) -> "Operator":
        if self.mode == FLOAT:
            return self
        # int / int true division is correctly rounded, as float(Fraction) is
        arr = np.array(self._arr / self.denominator, dtype=np.float64)
        return Operator._checked(arr)

    def to_jsonable(self) -> list[list]:
        if self.mode == EXACT:
            return [[str(x) for x in row] for row in self.data]
        if np.iscomplexobj(self.data):
            raise ValueError("complex operators are not serializable")
        return [[float(x) for x in row] for row in self.data]


def determinant(a: Operator) -> Fraction:
    """Exact determinant by fraction-free elimination (Bareiss 1968).

    Every division by the previous pivot is exact, so the entries stay
    integers, each a minor of the numerator matrix.
    """
    if a.mode != EXACT:
        raise ModeMismatchError("determinant requires exact mode")
    m = [list(row) for row in a.numerators]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], a.denominator**n)


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = a b - b a."""
    return a @ b - b @ a


def combination(zero: Operator, pairs: Iterable[tuple[Operator, ScalarLike]]) -> Operator:
    """sum of c op over the (op, c) of `pairs`, taken in order from `zero`,
    the zero operator of their mode and dimension; in exact mode each c is
    an int or a Fraction.

    The result has the bits of adding op.scale(c) to `zero` term by term.
    Exact mode skips exact-zero terms, folds each 1/denominator into its
    weight and brings the weights to their lcm, so the sum is one integer
    dot of the weights with the stacked numerators and one reduction; the
    reduced result is canonical, as every per-term sum is.  Float mode adds
    op * c on the raw arrays (a Fraction c rounded once, as in `scale`) and
    checks the sum once.  The check also runs when `pairs` raises: a partial
    sum that went non-finite raises NonFiniteError first, where the per-term
    route would have stopped.
    """
    if zero.mode == FLOAT:
        acc = zero._arr
        try:
            for op, c in pairs:
                acc = acc + op._arr * (float(c) if isinstance(c, Fraction) else c)
        finally:
            check_finite(acc)
        return Operator._float(acc)
    nums, weights = [], []
    for op, c in pairs:
        if c and not op._zero:
            nums.append(op._arr)
            weights.append((c.numerator, c.denominator * op.denominator))
    if not nums:
        return zero
    den = math.lcm(*(q for _, q in weights))
    w = np.array([p * (den // q) for p, q in weights], dtype=object)
    num = np.dot(w, np.stack(nums).reshape(len(nums), -1))
    return Operator._exact(num.reshape(zero._arr.shape), den)


def powers(a: Operator, n: int) -> list[Operator]:
    """[I, a, a^2, ..., a^n], one product each: a^{j+1} = a^j @ a."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [Operator.identity(a.dim, a.mode)]
    for _ in range(n):
        out.append(out[-1] @ a)
    return out


@dataclass(frozen=True)
class NormBound:
    """Frobenius norm, upper-bounded.

    In float mode `value` is the computed norm.  In exact mode `exact_square`
    is the exact rational sum of squared entries and `root_upper` a rational
    upper bound on its square root; `value` is float(root_upper).
    """

    value: float
    exact_square: Optional[Fraction] = None
    root_upper: Optional[Fraction] = None


def _rational_sqrt_upper(f: Fraction) -> Fraction:
    # sqrt(p/q) = sqrt(p q)/q <= (isqrt(p q) + 1)/q
    if f < 0:
        raise ValueError("negative square")
    if f == 0:
        return Fraction(0)
    p, q = f.numerator, f.denominator
    return Fraction(math.isqrt(p * q) + 1, q)


def _square_sum(a: Operator) -> int:
    """Sum of the squared numerators of an exact operator."""
    flat = a.numerators.ravel()
    return int(np.dot(flat, flat))


def _float_frobenius(x: np.ndarray) -> float:
    if x.dtype == np.float64:
        # x*x is abs(x)**2 bit for bit, and the same reduction sums it
        return math.sqrt(np.add.reduce(x * x, axis=None))
    return float(np.sqrt((abs(x) ** 2).sum()))


def frobenius_stack(stack: np.ndarray) -> list[float]:
    """The Frobenius norm of each matrix of a (k, n, n) float stack.

    Each matrix's squares are summed in the order `frobenius` sums them, and
    the root is correctly rounded in both, so the norms agree bit for bit.
    """
    sq = stack * stack if stack.dtype == np.float64 else abs(stack) ** 2
    return np.sqrt(np.add.reduce(sq.reshape(len(stack), -1), axis=1)).tolist()


def norm_bound(a: Operator) -> NormBound:
    if a.mode == EXACT:
        sq = Fraction(_square_sum(a), a.denominator * a.denominator)
        root = _rational_sqrt_upper(sq)
        return NormBound(value=float(root), exact_square=sq, root_upper=root)
    return NormBound(value=_float_frobenius(a.data))


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for ints p, q > 0, to within a rounding or two.

    Where the correctly rounded p / q is a normal float this is
    math.sqrt(p / q).  Where p / q underflows or overflows a float, the
    quotient is scaled by 4^k into (1/4, 4) before the root and the root by
    2^-k after, so the squared norm never has to fit in a float.  The result
    is at least the smallest subnormal: a nonzero norm never reads as 0.0.
    It overflows (OverflowError) only when sqrt(p / q) itself does.
    """
    try:
        x = p / q
    except OverflowError:
        x = math.inf
    if sys.float_info.min <= x < math.inf:
        return math.sqrt(x)
    k = (q.bit_length() - p.bit_length()) // 2
    x = (p << 2 * k) / q if k >= 0 else p / (q << -2 * k)
    return max(math.ldexp(math.sqrt(x), -k), math.ulp(0.0))


def frobenius(a: Operator) -> float:
    """Float Frobenius norm.

    In exact mode this is the square root of the correctly rounded sum of
    squares over the squared denominator: a nearest float, which can fall
    below the true norm.  A nonzero exact operator never has norm 0.0, and a
    sum of squares beyond the float range does not overflow (`_sqrt_ratio`).
    Where an upper bound is needed, use `norm_bound(a).root_upper`.
    """
    if a.mode == EXACT:
        if a._zero:
            return 0.0
        # correctly rounded, so equal to float() of the reduced Fraction
        return _sqrt_ratio(_square_sum(a), a.denominator * a.denominator)
    return _float_frobenius(a.data)


def operator_exp(a: Operator, tol: float = 1e-13) -> Operator:
    """exp(a) by scaling-and-squaring of the Taylor series, float mode only.

    The Taylor truncation is driven below tol divided by a conservative
    squaring amplification factor; nilpotent inputs terminate exactly.
    """
    if a.mode != FLOAT:
        raise ModeMismatchError("operator_exp requires float mode")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    nrm = frobenius(a)
    if nrm == 0.0:
        return Operator.identity(a.dim, FLOAT)
    s = 0 if nrm <= 0.5 else int(math.ceil(math.log2(nrm / 0.5)))
    b = a.scale(2.0 ** (-s))
    nb = frobenius(b)  # <= 0.5
    # error amplification through s squarings: prod 2 ||exp(2^i b)|| <= 2^s e^nrm
    amp = (2.0**s) * math.exp(min(nrm, 700.0))
    tol_local = tol / max(amp, 1.0)

    acc = Operator.identity(a.dim, FLOAT)
    term = Operator.identity(a.dim, FLOAT)
    for k in range(1, 200):
        term = (term @ b).scale(1.0 / k)
        acc = acc + term
        # remaining tail <= ||term|| * q/(1-q) with q = nb/(k+1) <= 1/2
        q = nb / (k + 1)
        rem = frobenius(term) * q / (1.0 - q) if q < 1 else math.inf
        if rem <= tol_local:
            break
    else:
        raise ValueError("operator_exp did not converge within 200 terms")
    for _ in range(s):
        acc = acc @ acc
    return acc
