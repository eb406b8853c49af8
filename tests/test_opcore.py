"""Operator arithmetic: exact rational core, float layer, exp, norms."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from heavenlab.opcore import (
    EXACT,
    FLOAT,
    DimensionMismatchError,
    ModeMismatchError,
    NonFiniteError,
    Operator,
    combination,
    commutator,
    determinant,
    frobenius,
    frobenius_stack,
    norm_bound,
    operator_exp,
)
from heavenlab.besselop import OperatorSeries

from _helpers import random_float_operator, random_rational_operator

EPS = float(np.finfo(np.float64).eps)


# -- oracles first ------------------------------------------------------------


def test_commutator_frozen_value():
    # [e12, e21] = e11 - e22, by hand
    e12 = Operator.unit(2, 0, 1)
    e21 = Operator.unit(2, 1, 0)
    expected = Operator.from_rows([[1, 0], [0, -1]], EXACT)
    assert commutator(e12, e21) == expected


def test_exp_matches_scipy_expm():
    rng = random.Random(101)
    for n in (2, 3, 5):
        for _ in range(5):
            a = random_float_operator(rng, n, scale=1.5)
            ours = operator_exp(a)
            ref = scipy.linalg.expm(np.array(a.data, dtype=float))
            assert np.max(np.abs(np.array(ours.data) - ref)) < 1e-12


def test_exp_nilpotent_is_exact():
    # exp(e12) = I + e12 with no rounding at all: the series terminates
    a = Operator.unit(2, 0, 1, mode=FLOAT)
    e = operator_exp(a)
    assert e == Operator.from_rows([[1.0, 1.0], [0.0, 1.0]], FLOAT)


def test_exp_diagonal_frozen():
    a = Operator.from_rows([[0.5, 0.0], [0.0, -1.25]], FLOAT)
    e = operator_exp(a)
    assert abs(e.entry(0, 0) - math.exp(0.5)) < 1e-14
    assert abs(e.entry(1, 1) - math.exp(-1.25)) < 1e-14
    assert e.entry(0, 1) == 0.0 and e.entry(1, 0) == 0.0


# -- constructors and validation ----------------------------------------------


def test_from_rows_rejects_non_square():
    with pytest.raises(DimensionMismatchError, match="square"):
        Operator.from_rows([[1, 2, 3], [4, 5, 6]], EXACT)


def test_exact_entries_parse_strings_and_floats():
    a = Operator.from_rows([["2/3", 1], [0.5, Fraction(7, 2)]], EXACT)
    assert a.entry(0, 0) == Fraction(2, 3)
    # 0.5 is a binary rational and converts exactly
    assert a.entry(1, 0) == Fraction(1, 2)


def test_exact_entry_rejects_junk():
    with pytest.raises(TypeError):
        Operator.from_rows([[object()]], EXACT)


def test_float_mode_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        Operator.from_rows([[float("inf")]], FLOAT)
    for entries in ([float("inf"), float("nan")], [1.0, float("nan")]):
        with pytest.raises(NonFiniteError):
            Operator.diag(entries, FLOAT)
    assert Operator.diag([1.0, -2.5], FLOAT).data.tolist() == [[1.0, 0.0], [0.0, -2.5]]


def test_mode_mismatch_raises():
    a = Operator.identity(2, EXACT)
    b = Operator.identity(2, FLOAT)
    with pytest.raises(ModeMismatchError):
        _ = a + b


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        _ = Operator.identity(2, EXACT) + Operator.identity(3, EXACT)


def test_operators_not_hashable():
    with pytest.raises(TypeError):
        hash(Operator.identity(2, EXACT))


def test_data_is_not_writeable():
    a = Operator.identity(2, EXACT)
    with pytest.raises(ValueError):
        a.data[0, 0] = Fraction(5)


def test_to_jsonable_round_trip():
    a = Operator.from_rows([["1/3", "-2"], ["0", "7/5"]], EXACT)
    assert Operator.from_rows(a.to_jsonable(), EXACT) == a
    b = a.to_float()
    assert Operator.from_rows(b.to_jsonable(), FLOAT) == b


def test_unit_diag_identity_zero():
    u = Operator.unit(3, 0, 2)
    assert u.entry(0, 2) == 1 and u.entry(0, 0) == 0
    d = Operator.diag([1, "1/2", -2], EXACT)
    assert d.entry(1, 1) == Fraction(1, 2)
    assert Operator.zero(3, EXACT).is_zero()
    assert not Operator.identity(3, EXACT).is_zero()


# -- algebraic laws (property tests over exact entries) ------------------------

small_fraction = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


def _op3(draw_rows):
    return Operator.from_rows(draw_rows, EXACT)


triple_matrices = st.tuples(
    *[
        st.lists(st.lists(small_fraction, min_size=3, max_size=3), min_size=3, max_size=3)
        for _ in range(3)
    ]
)


@settings(max_examples=40, deadline=None)
@given(triple_matrices)
def test_matmul_associative_exact(rows):
    a, b, c = (_op3(r) for r in rows)
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=40, deadline=None)
@given(triple_matrices)
def test_jacobi_identity_exact(rows):
    a, b, c = (_op3(r) for r in rows)
    total = (
        commutator(commutator(a, b), c)
        + commutator(commutator(b, c), a)
        + commutator(commutator(c, a), b)
    )
    assert total.is_zero()


@settings(max_examples=40, deadline=None)
@given(triple_matrices)
def test_distributive_exact(rows):
    a, b, c = (_op3(r) for r in rows)
    assert a @ (b + c) == a @ b + a @ c


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=2, max_size=2), min_size=2, max_size=2))
def test_scale_neg_sub_consistent(rows):
    a = Operator.from_rows(rows, EXACT)
    assert a.scale(Fraction(-1)) == -a
    assert a - a == Operator.zero(2, EXACT)
    assert a.scale(Fraction(2)) == a + a


# -- norms ---------------------------------------------------------------------


def test_norm_bound_exact_square_and_root():
    a = Operator.from_rows([["1/2", 1], [0, "3/2"]], EXACT)
    nb = norm_bound(a)
    assert nb.exact_square == Fraction(1, 4) + 1 + Fraction(9, 4)
    # root_upper is a true upper bound, coarse on purpose (within 1)
    assert nb.root_upper * nb.root_upper >= nb.exact_square
    assert math.sqrt(3.5) <= nb.value <= math.sqrt(3.5) + 1.0


def test_frobenius_submultiplicative():
    rng = random.Random(55)
    for _ in range(10):
        a = random_rational_operator(rng, 3)
        b = random_rational_operator(rng, 3)
        lhs = norm_bound(a @ b).exact_square
        rhs = norm_bound(a).exact_square * norm_bound(b).exact_square
        assert lhs <= rhs


def test_frobenius_float_matches_numpy():
    rng = random.Random(56)
    a = random_float_operator(rng, 4)
    ref = float(np.linalg.norm(np.array(a.data, dtype=float)))
    assert abs(frobenius(a) - ref) < 1e-13


def test_frobenius_exact_squared_norm_below_float_range():
    # the sum of squares, 2e-340, underflows a float; the norm does not
    a = Operator.from_rows([[0, "1e-170"], ["1e-170", 0]], EXACT)
    assert abs(frobenius(a) / (math.sqrt(2.0) * 1e-170) - 1.0) < 4 * EPS
    # a nonzero norm below every float still reads nonzero
    assert frobenius(Operator.from_rows([["1e-400", 0], [0, 0]], EXACT)) == math.ulp(0.0)
    assert frobenius(Operator.zero(3, EXACT)) == 0.0


def test_frobenius_exact_squared_norm_above_float_range():
    # the sum of squares, 2e320, overflows a float; the norm fits
    a = Operator.from_rows([[0, "1e160"], ["1e160", 0]], EXACT)
    assert abs(frobenius(a) / (math.sqrt(2.0) * 1e160) - 1.0) < 4 * EPS


def test_operator_exp_requires_float():
    with pytest.raises(ModeMismatchError):
        operator_exp(Operator.identity(2, EXACT))


# -- differential test of the exact backend against per-entry Fractions ---------

entry_fraction = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)
scalar_fraction = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5),
)


@st.composite
def rational_pair(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    square = st.lists(st.lists(entry_fraction, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square)


def _ref_matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def _assert_matches(op, ref):
    """op equals the Fraction matrix ref, and its storage is in lowest terms."""
    den, nums = op.denominator, list(op.numerators.flat)
    assert all(type(x) is int for x in nums)
    assert type(den) is int and den >= 1
    assert math.gcd(den, *nums) == 1
    if all(x == 0 for row in ref for x in row):
        assert den == 1 and op.is_zero()
    else:
        assert not op.is_zero()
    n = len(ref)
    assert op.dim == n
    for i in range(n):
        for j in range(n):
            assert op.entry(i, j) == ref[i][j]
            assert op.to_float().entry(i, j) == float(ref[i][j])
    assert op.data.tolist() == ref
    assert op.to_jsonable() == [[str(x) for x in row] for row in ref]
    assert op == Operator.from_rows(ref, EXACT)
    assert op == Operator.from_rows(np.array(ref, dtype=object), EXACT)


@settings(max_examples=60, deadline=None)
@given(rational_pair(), scalar_fraction)
def test_exact_backend_matches_fraction_reference(pair, s):
    ra, rb = pair
    a, b = Operator.from_rows(ra, EXACT), Operator.from_rows(rb, EXACT)
    n = len(ra)
    _assert_matches(a, ra)
    _assert_matches(b, rb)
    _assert_matches(a + b, [[ra[i][j] + rb[i][j] for j in range(n)] for i in range(n)])
    _assert_matches(a - b, [[ra[i][j] - rb[i][j] for j in range(n)] for i in range(n)])
    _assert_matches(-a, [[-x for x in row] for row in ra])
    _assert_matches(a @ b, _ref_matmul(ra, rb))
    _assert_matches(a.scale(s), [[s * x for x in row] for row in ra])
    _assert_matches(a.scale(-s), [[-s * x for x in row] for row in ra])
    assert (a == b) == (ra == rb)

    square = sum((x * x for row in ra for x in row), Fraction(0))
    assert frobenius(a) == math.sqrt(float(square))
    nb = norm_bound(a)
    assert nb.exact_square == square
    root = Fraction(math.isqrt(square.numerator * square.denominator) + 1, square.denominator)
    assert nb.root_upper == (root if square else 0)
    assert nb.value == float(nb.root_upper)


def test_exact_scale_by_zero_and_negative_ratio():
    a = Operator.from_rows([["1/2", "-3"], ["5/7", 0]], EXACT)
    zero = a.scale(0)
    assert zero == Operator.zero(2, EXACT) and zero.denominator == 1
    neg = a.scale(Fraction(-14, 3))
    assert neg.entry(0, 0) == Fraction(-7, 3) and neg.entry(1, 0) == Fraction(-10, 3)
    assert neg.denominator == 3
    # numerators [[2, 4], [6, 8]] over 3: both the content 2 and the
    # denominator 3 share a factor with the scalar
    b = Operator.from_rows([["2/3", "4/3"], [2, "8/3"]], EXACT)
    for s, den in ((Fraction(3, 2), 1), (Fraction(9, 4), 2), (Fraction(-6), 1), (12, 1)):
        ref = [[s * x for x in row] for row in b.data]
        assert b.scale(s) == Operator.from_rows(ref, EXACT), s
        assert b.scale(s).denominator == den


# -- zero short cut, finiteness check, float norm ------------------------------


@settings(max_examples=30, deadline=None)
@given(rational_pair(), scalar_fraction)
def test_exact_zero_operands_match_fraction_reference(pair, s):
    ra, _ = pair
    n = len(ra)
    a, z = Operator.from_rows(ra, EXACT), Operator.zero(n, EXACT)
    rz = [[Fraction(0)] * n for _ in range(n)]
    for op, ref in (
        (a + z, ra),
        (z + a, ra),
        (a - z, ra),
        (z - a, [[-x for x in row] for row in ra]),
        (a @ z, rz),
        (z @ a, rz),
        (z @ z, rz),
        (z.scale(s), rz),
        (a.scale(0), rz),
        (a.scale(3), [[3 * x for x in row] for row in ra]),
        (a - a, rz),
    ):
        _assert_matches(op, ref)


def test_exact_zero_operands_still_check_mode_dimension_and_scalar():
    z = Operator.zero(2, EXACT)
    for other in (Operator.zero(2, FLOAT), Operator.identity(2, FLOAT)):
        for op in ("__add__", "__sub__", "__matmul__"):
            with pytest.raises(ModeMismatchError):
                getattr(z, op)(other)
            with pytest.raises(ModeMismatchError):
                getattr(other, op)(z)
    for op in ("__add__", "__sub__", "__matmul__"):
        with pytest.raises(DimensionMismatchError):
            getattr(z, op)(Operator.identity(3, EXACT))
        with pytest.raises(DimensionMismatchError):
            getattr(Operator.zero(3, EXACT), op)(z)
    with pytest.raises(TypeError):
        z.scale(1j)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("big", [1e308, 1e308 + 1e308j, 1e308j])
def test_float_ops_raise_on_overflow(big):
    a = Operator.from_rows([[big, 0.0], [0.0, 1.0]], FLOAT)
    with pytest.raises(NonFiniteError):
        _ = a + a
    with pytest.raises(NonFiniteError):
        _ = a - a.scale(-1.0)
    with pytest.raises(NonFiniteError):
        _ = a @ a
    with pytest.raises(NonFiniteError):
        a.scale(10.0)
    with pytest.raises(NonFiniteError):
        a.scale(Fraction(10))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("big", [1e308, 1e308 + 1e308j])
def test_float_finite_entries_with_overflowing_sum_accepted(big):
    rows = [[big, big], [big, big]]
    a = Operator.from_rows(rows, FLOAT)
    assert not np.isfinite(a.data.sum())
    assert np.array_equal(Operator.from_rows(np.array(rows), FLOAT).data, a.data)
    z = Operator.zero(2, FLOAT)
    if isinstance(big, complex):
        z = z.scale(1j)
    for op in (a + z, a - z, -a, a.scale(1.0), a.scale(0.5), a @ Operator.identity(2, FLOAT)):
        assert np.isfinite(op.data).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float_frobenius_bit_identical_to_abs_square_sum():
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal((n, n)) * 10.0 ** rng.integers(-150, 150) for n in range(1, 9)]
    arrays += [np.asfortranarray(x) for x in arrays] + [x.T for x in arrays]
    arrays += [np.array([[1e200, -1e-200], [0.0, -0.0]]), np.array([[1e300, 1e300], [0, 0]])]
    for x in arrays:
        ref = float(np.sqrt((abs(x) ** 2).sum()))
        assert frobenius(Operator.from_rows(x, FLOAT)) == ref


@st.composite
def float_stacks(draw):
    """A C-ordered (k, n, n) float64 or complex128 stack with signed zeros,
    whose entries span 60 binades around a drawn power of 2: from squares
    that underflow to 0 to sums of squares that overflow to inf."""
    k, n = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    center = draw(st.sampled_from([-560, -540, -500, -200, 0, 200, 480, 500, 520]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part():
        x = rng.standard_normal((k, n, n)) * 2.0 ** rng.integers(center - 30, center + 31, x_shape)
        x[rng.random(x_shape) < 0.1] = 0.0
        x[rng.random(x_shape) < 0.1] = -0.0
        return x

    x_shape = (k, n, n)
    return part() + 1j * part() if draw(st.booleans()) else part()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(float_stacks())
def test_frobenius_stack_is_frobenius_per_matrix(stack):
    with np.errstate(over="ignore", under="ignore"):
        want = [frobenius(Operator.from_rows(m, FLOAT)) for m in stack]
        assert [x.hex() for x in frobenius_stack(stack)] == [x.hex() for x in want]
        series = OperatorSeries([Operator.from_rows(m, FLOAT) for m in stack])
        assert series.max_coeff_norm().hex() == max(want).hex()


def test_frobenius_stack_underflow_and_overflow():
    stack = np.array([
        [[1e-200, -1e-200], [0.0, -0.0]],  # every square underflows to 0
        [[1e200, 1.0], [-1e200, 0.0]],  # the sum of squares overflows
        [[3.0, 4.0], [0.0, -0.0]],
    ])
    with np.errstate(over="ignore", under="ignore"):
        assert frobenius_stack(stack) == [0.0, math.inf, 5.0]
        assert frobenius_stack(stack) == [frobenius(Operator.from_rows(m, FLOAT)) for m in stack]


def test_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.6 else Fraction(0)
             for _ in range(n)]
            for _ in range(n)
        ]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = [2 * x for x in rows[0]]
        ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]).det()
        assert determinant(Operator.from_rows(rows, EXACT)) == Fraction(str(ref))
    with pytest.raises(ModeMismatchError):
        determinant(Operator.identity(2, FLOAT))


# -- the combination kernel against the per-term route -------------------------


def _per_term(zero, pairs):
    """zero + op.scale(c) + ..., one Operator sum per term."""
    acc = zero
    for op, c in pairs:
        acc = acc + op.scale(c)
    return acc


@st.composite
def exact_terms(draw):
    """n and up to 6 (rows, c) pairs; some rows and some c exactly zero."""
    n = draw(st.integers(1, 3))
    square = st.lists(st.lists(entry_fraction, min_size=n, max_size=n), min_size=n, max_size=n)
    rows = st.one_of(square, st.just([[Fraction(0)] * n for _ in range(n)]))
    c = st.one_of(scalar_fraction, st.integers(-3, 3))
    return n, draw(st.lists(st.tuples(rows, c), max_size=6))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(exact_terms())
def test_exact_combination_matches_per_term_route(terms):
    n, raw = terms
    pairs = [(Operator.from_rows(rows, EXACT), c) for rows, c in raw]
    zero = Operator.zero(n, EXACT)
    got, want = combination(zero, pairs), _per_term(zero, pairs)
    assert got.denominator == want.denominator
    assert got.numerators.tolist() == want.numerators.tolist()
    ref = [[sum((c * Fraction(rows[i][j]) for rows, c in raw), Fraction(0)) for j in range(n)]
           for i in range(n)]
    _assert_matches(got, ref)


def test_exact_combination_empty_and_cancelling_sums_are_canonical_zero():
    zero = Operator.zero(2, EXACT)
    assert combination(zero, []) is zero
    a = Operator.from_rows([["1/3", "-5/6"], [2, "7/9"]], EXACT)
    b = Operator.from_rows([["2/3", "-5/3"], [4, "14/9"]], EXACT)
    for pairs in ([(a, Fraction(3, 4)), (a, Fraction(-3, 4))], [(b, 1), (a, -2)],
                  [(a, 0), (zero, 5)]):
        got = combination(zero, pairs)
        assert got.is_zero() and got.denominator == 1 and got == _per_term(zero, pairs)


@st.composite
def float_terms(draw):
    """Up to 6 (op, c) pairs of float64 or complex128 operators with signed
    zeros, and float, Fraction and complex weights."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part():
        x = rng.standard_normal((n, n)) * 2.0 ** rng.integers(-40, 41, (n, n))
        x[rng.random((n, n)) < 0.2] = 0.0
        x[rng.random((n, n)) < 0.2] = -0.0
        return x

    weight = st.one_of(
        st.floats(-4, 4),
        st.sampled_from([0.0, -0.0, 1j, -2.5 + 0.5j]),
        st.fractions(min_value=-4, max_value=4, max_denominator=9),
    )
    ops = [part() + 1j * part() if draw(st.booleans()) else part() for _ in range(k)]
    return n, [(Operator.from_rows(x, FLOAT), draw(weight)) for x in ops]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(float_terms())
def test_float_combination_matches_per_term_route_bit_for_bit(terms):
    n, pairs = terms
    zero = Operator.zero(n, FLOAT)
    got, want = combination(zero, pairs), _per_term(zero, pairs)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float_combination_raises_what_the_per_term_route_raises_first():
    """A weight c = t**deg is computed as the pairs are consumed: a partial
    sum that went inf raises NonFiniteError ahead of a later OverflowError
    from t**deg, and an OverflowError with a finite partial sum stays one."""
    big, one = Operator.diag([1e76, 0.0], FLOAT), Operator.identity(2, FLOAT)
    zero = Operator.zero(2, FLOAT)
    t = 1e233
    inf_first = lambda: ((op, t**deg) for op, deg in ((one, 0), (big, 1), (one, 3)))
    overflow_first = lambda: ((op, t**deg) for op, deg in ((one, 0), (one, 2), (big, 1)))
    for route in (combination, _per_term):
        with pytest.raises(NonFiniteError):
            route(zero, inf_first())
        with pytest.raises(OverflowError):
            route(zero, overflow_first())
