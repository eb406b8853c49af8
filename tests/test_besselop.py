"""Operator Bessel series: frozen coefficients, scipy oracle, recurrences."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from heavenlab import besselop
from heavenlab.besselop import (
    RELATIONS,
    OperatorSeries,
    bessel_coeffs,
    bessel_eval,
    bessel_family,
    bessel_series,
    bessel_tail,
    bessel_terms,
    bilateral_tail,
    check_recurrence,
    generating_oracle,
    scalar_bessel_majorant,
    series_eval,
    sum_rule_residual,
)
from heavenlab.opcore import (
    EPS,
    EXACT,
    FLOAT,
    DimensionMismatchError,
    ModeMismatchError,
    NonFiniteError,
    Operator,
    frobenius,
    powers,
)
from heavenlab.prolong import make_instance, solution_cal_form

from _helpers import random_float_operator, random_rational_operator

ONE = Operator.from_rows([["1"]], EXACT)


# -- frozen coefficient oracle (hand-computed, written before the series code) --

# t-degree -> exact coefficient of J_m(t X) at X = [[1]]; (-1)^j / (j! (j+m)! 2^{m+2j})
FROZEN_COEFFS = {
    0: {
        0: Fraction(1),
        2: Fraction(-1, 4),
        4: Fraction(1, 64),
        6: Fraction(-1, 2304),
        8: Fraction(1, 147456),
    },
    1: {
        1: Fraction(1, 2),
        3: Fraction(-1, 16),
        5: Fraction(1, 384),
        7: Fraction(-1, 18432),
    },
    2: {
        2: Fraction(1, 8),
        4: Fraction(-1, 96),
        6: Fraction(1, 3072),
        8: Fraction(-1, 184320),
    },
    -1: {
        1: Fraction(-1, 2),
        3: Fraction(1, 16),
        5: Fraction(-1, 384),
        7: Fraction(1, 18432),
    },
}


def test_frozen_coefficient_table():
    for m, table in FROZEN_COEFFS.items():
        s = bessel_series(ONE, m, 8)
        for deg in range(9):
            got = s.coefficient(deg).entry(0, 0)
            if deg in table:
                assert got == table[deg], (m, deg)
            elif (deg - abs(m)) % 2:
                # off-parity degrees never appear
                assert got == 0, (m, deg)


@pytest.mark.parametrize("m", range(-6, 7))
def test_bessel_terms_closed_form(m):
    ma = abs(m)
    for D in range(13):
        # J_m(x) = sum_j (-1)^j (x/2)^{|m|+2j} / (j! (j+|m|)!), and J_{-k} = (-1)^k J_k
        want = [
            (
                ma + 2 * j,
                Fraction(
                    (-1) ** j * (-1) ** (ma if m < 0 else 0),
                    2 ** (ma + 2 * j) * math.factorial(j) * math.factorial(j + ma),
                ),
            )
            for j in range(13)
            if ma + 2 * j <= D
        ]
        assert list(bessel_terms(m, D)) == want, (m, D)
    # D < |m| leaves nothing; odd negative m flips the leading sign
    assert list(bessel_terms(m, ma - 1)) == []
    if m < 0 and m % 2:
        assert next(bessel_terms(m, 12))[1] < 0


def test_one_by_one_matches_scipy_jv():
    for omega in (1.0, 1.5):
        X = Operator.from_rows([[omega]], FLOAT)
        for m in range(-5, 6):
            s = bessel_series(X, m, 60)
            for t in (0.5, 1.0, 2.0, 5.0):
                val, tail = series_eval(s, t)
                ref = scipy.special.jv(m, t * omega)
                assert abs(val.entry(0, 0) - ref) < 1e-12 + tail.value, (m, t)


def test_series_derivative_matches_scipy_jvp():
    X = Operator.from_rows([[1.0]], FLOAT)
    for m in range(0, 4):
        s = bessel_series(X, m, 50)
        ds = s.derivative()
        for t in (0.5, 1.3, 2.0):
            val, _ = series_eval(ds, t)
            assert abs(val.entry(0, 0) - scipy.special.jvp(m, t)) < 1e-12


def test_generating_oracle_matches_series():
    """Quadrature of e^{(t/2)X(z - 1/z)} around |z| = 1 picks out J_m(tX)."""
    rng = random.Random(303)
    mats = [
        Operator.unit(3, 0, 1, mode=FLOAT) + Operator.unit(3, 1, 2, mode=FLOAT),
        Operator.diag([1.0, -1.0], FLOAT),
        random_float_operator(rng, 3, scale=0.7),
    ]
    for X in mats:
        t = min(1.5, 3.0 / max(frobenius(X), 1e-9))
        for m in range(-5, 6):
            s = bessel_series(X, m, 40)
            val, _ = series_eval(s, t)
            q = generating_oracle(X, m, t)
            assert frobenius(val - q) < 1e-12, m


def test_generating_oracle_rejects_bad_nodes():
    with pytest.raises(ValueError):
        generating_oracle(Operator.identity(2, FLOAT), 0, 1.0, nodes=4)


# -- nilpotent closed forms -----------------------------------------------------


def test_nilpotent_closed_forms():
    X = Operator.unit(2, 0, 1)  # X^2 = 0
    j0 = bessel_series(X, 0, 10)
    assert j0.coefficient(0) == Operator.identity(2, EXACT)
    assert all(j0.coefficient(d).is_zero() for d in range(1, 11))
    j1 = bessel_series(X, 1, 10)
    assert j1.coefficient(1) == X.scale(Fraction(1, 2))
    assert all(j1.coefficient(d).is_zero() for d in range(11) if d != 1)
    assert all(bessel_series(X, 2, 10).coefficient(d).is_zero() for d in range(11))
    jm1 = bessel_series(X, -1, 10)
    assert jm1.coefficient(1) == X.scale(Fraction(-1, 2))


def test_negative_index_symmetry_exact():
    rng = random.Random(304)
    X = random_rational_operator(rng, 3)
    for k in range(0, 5):
        plus = bessel_series(X, k, 12)
        minus = bessel_series(X, -k, 12)
        sign = Fraction(-1) if k % 2 else Fraction(1)
        for d in range(13):
            assert minus.coefficient(d) == plus.coefficient(d).scale(sign)


# -- the five recurrence relations ----------------------------------------------


def test_relations_tuple_is_stable():
    assert RELATIONS == (
        "negative_index",
        "recurrence_2k",
        "derivative_diff",
        "positive_derivative",
        "negative_derivative",
    )


@pytest.mark.parametrize("rel", RELATIONS)
def test_recurrences_exact_heisenberg(rel):
    L = Operator.unit(3, 0, 1) + Operator.unit(3, 1, 2)
    rep = check_recurrence(rel, L, 16, range(-4, 5))
    assert rep.all_passed(), rep.failed_records()
    for r in rep.records:
        assert r.bound == 0.0  # exact mode: zero tolerance


@pytest.mark.parametrize("rel", RELATIONS)
def test_recurrences_exact_random_rationals(rel):
    rng = random.Random(305)
    for _ in range(3):
        L = random_rational_operator(rng, 4)
        rep = check_recurrence(rel, L, 14, range(-3, 4))
        assert rep.all_passed(), (rel, rep.failed_records())


def test_recurrences_float_mode_within_roundoff():
    rng = random.Random(306)
    L = random_float_operator(rng, 4)
    for rel in RELATIONS:
        rep = check_recurrence(rel, L, 16, range(-4, 5))
        assert rep.all_passed(), (rel, rep.failed_records())


@pytest.mark.parametrize("rel", RELATIONS)
def test_recurrences_exact_compute_no_float(rel):
    """An exact check reads no float: at 10^400, which no float holds, every
    relation still passes with residual and bound 0."""
    L = Operator.from_rows([[10**400, 0], [0, 0]], EXACT)
    rep = check_recurrence(rel, L, 8, range(-4, 5))
    assert [(r.residual, r.bound, r.verdict) for r in rep.records] == [(0.0, 0.0, "pass")] * 9


def test_recurrence_k_outside_support_raises():
    L = Operator.identity(2, EXACT)
    with pytest.raises(ValueError, match="outside series support"):
        check_recurrence("recurrence_2k", L, 6, [8])


def test_unknown_relation_rejected():
    with pytest.raises(ValueError, match="unknown relation"):
        check_recurrence("bogus", Operator.identity(2, EXACT), 8, [0])


# -- bilateral sum rule -----------------------------------------------------------


def test_sum_rule_nilpotent_exact():
    # X^3 = 0 kills every tail: the truncated sum is exactly the identity
    X = Operator.unit(3, 0, 1) + Operator.unit(3, 1, 2)
    resid, bound = sum_rule_residual(X, Fraction(3, 2), K=4, D=12)
    assert resid == 0.0
    assert bound >= 0.0


# -- exact sums as one rational combination of the powers of X ----------------


def _horner(coeffs, t):
    """Horner's rule on a list of Operators."""
    acc = coeffs[-1]
    for j in range(len(coeffs) - 2, -1, -1):
        acc = acc.scale(t) + coeffs[j]
    return acc


def _sum_rule_by_series(X, t, K, D):
    """The sum rule as one Horner-evaluated series per index, summed."""
    acc = Operator.zero(X.dim, X.mode)
    tail_sum = 0.0
    t_abs = abs(float(t))
    for m in range(-K, K + 1):
        s = bessel_series(X, m, D)
        acc = acc + _horner(s.coeffs, t)
        tail_sum += s.tail_fn(t_abs)
    resid = frobenius(acc - Operator.identity(X.dim, X.mode))
    return resid, bilateral_tail(t_abs * frobenius(X) / 2.0, K) + tail_sum


small_rational = st.fractions(min_value=-2, max_value=2, max_denominator=5)


@st.composite
def exact_operators(draw):
    n = draw(st.integers(2, 4))
    rows = draw(
        st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return Operator.from_rows(rows, EXACT)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    X=exact_operators(),
    D=st.integers(4, 12),
    K=st.integers(0, 8),
    m=st.integers(-8, 8),
    t=st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7),
)
def test_exact_sums_match_horner_and_per_series_routes(X, D, K, m, t):
    s = bessel_series(X, m, D)
    assert series_eval(s, t)[0] == _horner(s.coeffs, t)
    assert sum_rule_residual(X, t, K, D) == _sum_rule_by_series(X, t, K, D)


def _float_coeffs(rng, n, D):
    """D+1 fresh float Operators with entries over 80 binades, and signed zeros."""
    raw = rng.standard_normal((D + 1, n, n)) * 2.0 ** rng.integers(-40, 41, (D + 1, n, n))
    raw[rng.random(raw.shape) < 0.15] = 0.0
    raw[rng.random(raw.shape) < 0.15] = -0.0
    return [Operator.from_rows(c, FLOAT) for c in raw]


def _same_bits(series, ops):
    assert series.mode == FLOAT and series.degree == len(ops) - 1
    for got, want in zip(series.coeffs, ops):
        assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 8),
    Da=st.integers(0, 40),
    Db=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 3),
    through=st.integers(0, 44),
    t=st.floats(-4, 4),
    tq=st.fractions(min_value=-4, max_value=4, max_denominator=9),
    scalar=st.sampled_from([-3, 0, 2.5, -0.0, Fraction(3, 7)]),
)
def test_float_series_arithmetic_matches_per_coefficient_operators(
    n, Da, Db, seed, k, through, t, tq, scalar
):
    """Each float series operation gives the bits of Operator arithmetic per coefficient."""
    rng = np.random.default_rng(seed)
    ca, cb = _float_coeffs(rng, n, Da), _float_coeffs(rng, n, Db)
    (op,) = _float_coeffs(rng, n, 0)
    a, b = OperatorSeries(ca), OperatorSeries(cb)
    _same_bits(a + b, [x + y for x, y in zip(ca, cb)])
    _same_bits(a - b, [x - y for x, y in zip(ca, cb)])
    _same_bits(a.scale(scalar), [c.scale(scalar) for c in ca])
    _same_bits(a.lmul(op), [op @ c for c in ca])
    _same_bits(a.shift(k), [Operator.zero(n, FLOAT)] * k + ca)
    derivative = [c.scale(j) for j, c in enumerate(ca)][1:] or [Operator.zero(n, FLOAT)]
    _same_bits(a.derivative(), derivative)
    assert a.max_coeff_norm(through) == max(frobenius(c) for c in ca[: through + 1])
    assert a.max_coeff_norm() == max(frobenius(c) for c in ca)
    for tv in (t, tq):
        assert series_eval(a, tv)[0].data.tobytes() == _horner(ca, tv).data.tobytes()

    with np.errstate(over="ignore", invalid="ignore"):
        big = OperatorSeries([Operator.diag([1e308] * n, FLOAT)] * 2)
        for overflow in (
            lambda: big + big,
            lambda: big.scale(1e10),
            lambda: big.lmul(Operator.diag([1e10] * n, FLOAT)),
            lambda: series_eval(big, 1e300),
        ):
            with pytest.raises(NonFiniteError):
                overflow()
    exact = bessel_series(Operator.identity(n, EXACT), 0, Da)
    for mixed in (lambda: a + exact, lambda: exact - a, lambda: a.lmul(exact.coefficient(0))):
        with pytest.raises(ModeMismatchError):
            mixed()
    wider = OperatorSeries(_float_coeffs(rng, n + 1, Db))
    for mixed in (lambda: a + wider, lambda: wider - a, lambda: a.lmul(wider.coefficient(0))):
        with pytest.raises(DimensionMismatchError):
            mixed()


@st.composite
def float_towers(draw):
    """n, a tower of D+1 float operators with signed zeros, and D: either
    random entries of one dtype, or the powers of a real or complex X, whose
    degree-0 entry is the real identity."""
    n, D = draw(st.integers(1, 4)), draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_ = draw(st.booleans())
    if draw(st.booleans()):
        x = rng.standard_normal((n, n))
        X = Operator.from_rows(x + 1j * rng.standard_normal((n, n)) if complex_ else x, FLOAT)
        return n, powers(X, D), D
    tower = [c._arr for c in _float_coeffs(rng, n, D)]
    if complex_:
        tower = [c + 1j * i._arr for c, i in zip(tower, _float_coeffs(rng, n, D))]
    return n, [Operator.from_rows(c, FLOAT) for c in tower], D


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(float_towers(), st.integers(-6, 6))
def test_float_bessel_coeffs_match_per_degree_products(tower_draw, m):
    n, tower, D = tower_draw
    got = bessel_coeffs(tower, m, D, 1.0, 1.0)
    want = np.zeros((D + 1, n, n), np.result_type(*(c.data.dtype for c in tower)))
    for deg, q in bessel_terms(m, D):
        want[deg] = tower[deg].data * float(q)
    assert got._arr.dtype == want.dtype and got._arr.tobytes() == want.tobytes()


def _float_sum_rule_by_series(X, t, K, D):
    """The float sum rule as series_eval per index, added from zero in m order."""
    acc = Operator.zero(X.dim, FLOAT)
    tail_sum = 0.0
    for m in range(-K, K + 1):
        val, tb = series_eval(bessel_series(X, m, D), t)
        acc = acc + val
        tail_sum += tb.value
    resid = frobenius(acc - Operator.identity(X.dim, FLOAT))
    r = abs(t) * frobenius(X) / 2.0
    bound = bilateral_tail(r, K) + tail_sum
    bound += 64.0 * EPS * (2 * K + 1) * max(1.0, frobenius(X)) * math.exp(min(2 * r, 700.0))
    return resid, bound


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    complex_=st.booleans(),
    K=st.integers(0, 6),
    D=st.integers(0, 16),
    t=st.floats(-3, 3),
)
def test_float_sum_rule_matches_per_series_route(n, seed, complex_, K, D, t):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    X = Operator.from_rows(x + 1j * rng.standard_normal((n, n)) if complex_ else x, FLOAT)
    got, want = sum_rule_residual(X, t, K, D), _float_sum_rule_by_series(X, t, K, D)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bessel_eval_raises_the_first_failure_of_its_terms():
    """At t = 1e233 the degree-1 term of J_{-1}(tL) is -5e308, past the float
    range, before t**3 overflows: NonFiniteError.  J_0's terms stay finite
    until t**2 overflows: OverflowError."""
    L_powers = powers(Operator.from_rows([[1e76, 0.0], [0.0, 0.0]], FLOAT), 4)
    with pytest.raises(NonFiniteError):
        bessel_eval(L_powers, -1, 1e233)
    with pytest.raises(OverflowError):
        bessel_eval(L_powers, 0, 1e233)


def test_bessel_terms_iterates_a_table_built_once():
    first = bessel_terms(-3, 12)
    assert next(first) == (3, Fraction(-1, 48))
    assert list(first) == list(bessel_terms(-3, 12))[1:]
    table = besselop._bessel_table
    hits = table.cache_info().hits
    list(bessel_terms(-3, 12))
    assert table.cache_info().hits == hits + 1
    # the cache holds a bounded number of tables, however many runs read it
    assert table.cache_info().maxsize is not None


def _planted_terms(wrong_sign: bool, factorial_shift: int):
    def terms(m, D):
        ma = abs(m)
        sign = -1 if (m < 0 and ma % 2 == 1 and not wrong_sign) else 1
        for deg in range(ma, D + 1, 2):
            j = (deg - ma) // 2
            yield deg, Fraction(
                sign * (-1) ** j,
                math.factorial(j + factorial_shift) * math.factorial(deg - j) * 2**deg,
            )

    return terms


@pytest.mark.parametrize(
    "wrong_sign, factorial_shift", [(True, 0), (False, 1)], ids=["odd-negative-sign", "factorial+1"]
)
def test_sum_rule_fails_with_planted_coefficient_error(monkeypatch, wrong_sign, factorial_shift):
    X = Operator.from_rows([["1/2", "1/3"], ["-1/4", "2/3"]], EXACT)
    ts = (Fraction(1, 2), Fraction(1), Fraction(2))
    for t in ts:
        resid, bound = sum_rule_residual(X, t, K=8, D=16)
        assert resid <= bound
    monkeypatch.setattr(besselop, "bessel_terms", _planted_terms(wrong_sign, factorial_shift))
    for t in ts:
        resid, bound = sum_rule_residual(X, t, K=8, D=16)
        assert resid > bound, t


def test_sum_rule_float_diag():
    # the even-index pairs J_{K+2}(t) + J_{-(K+2)}(t) set the true scale here
    X = Operator.diag([1.0, -0.5], FLOAT)
    for t in (0.5, 1.0, 2.0):
        resid, bound = sum_rule_residual(X, t, K=10, D=40)
        assert resid <= bound
        assert resid < 1e-6


# -- series mechanics ---------------------------------------------------------------


def test_degree_below_index_gives_warned_zero_series():
    s = bessel_series(ONE, 9, 4)
    assert all(s.coefficient(d).is_zero() for d in range(5))


def test_series_eval_exact_rational_horner():
    s = bessel_series(ONE, 0, 8)
    t = Fraction(3, 7)
    val, _ = series_eval(s, t)
    acc = Fraction(0)
    for d in range(8, -1, -1):
        acc = acc * t + s.coefficient(d).entry(0, 0)
    assert val.entry(0, 0) == acc


def test_series_shift_never_divides():
    s = bessel_series(ONE, 1, 6)
    sh = s.shift(2)
    assert sh.coefficient(3).entry(0, 0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_series_add_truncates_to_common_degree():
    a = bessel_series(ONE, 0, 10)
    b = bessel_series(ONE, 0, 6)
    assert (a + b).degree == 6


def test_bessel_eval_direct_vs_series_route():
    rng = random.Random(308)
    X = random_rational_operator(rng, 3)
    D = 14
    X_powers = powers(X, D)
    for m in (-3, -1, 0, 2, 4):
        direct = bessel_eval(X_powers, m, Fraction(2, 5))
        via, _ = series_eval(bessel_series(X, m, D), Fraction(2, 5))
        assert direct == via, m


def test_bessel_coeffs_over_any_tower():
    """Coefficients are the tower's entries scaled by bessel_terms, zero
    elsewhere, and the tail is norm * bessel_tail at |t| rate / 2."""
    rng = random.Random(310)
    for mode, make in ((EXACT, random_rational_operator), (FLOAT, random_float_operator)):
        tower = [make(rng, 2) for _ in range(9)]
        for m in (-3, 0, 1, 2):
            series = bessel_coeffs(tower, m, 8, 3.0, 0.5)
            terms = dict(bessel_terms(m, 8))
            assert series.degree == 8 and series.mode == mode
            for deg, c in enumerate(series.coeffs):
                want = tower[deg].scale(terms[deg]) if deg in terms else Operator.zero(2, mode)
                assert c == want, (mode, m, deg)
            for t_abs in (0.0, 0.5, 2.0):
                assert series.tail_fn(t_abs) == 0.5 * bessel_tail(t_abs * 3.0 / 2.0, m, 8)


def test_bessel_terms_match_sympy_series():
    """bessel_terms(m, 32) are the coefficients of sympy's series of J_m(x),
    which sympy derives on its own."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(-6, 7):
        poly = sympy.Poly(sympy.besselj(m, x).series(x, 0, 33).removeO(), x)
        want = {deg: Fraction(int(c.p), int(c.q)) for (deg,), c in poly.terms()}
        assert dict(bessel_terms(m, 32)) == want, m


# -- tail majorants ------------------------------------------------------------------


def test_scalar_majorant_dominates_scipy_jv():
    for r in (0.25, 0.5, 1.0, 2.0, 4.0):
        for m in range(-6, 7):
            # |J_m(2r)| <= sum_j r^{|m|+2j}/(j! (j+|m|)!)
            assert abs(scipy.special.jv(m, 2 * r)) <= scalar_bessel_majorant(r, m) + 1e-15


def test_bessel_tail_decreases_with_degree():
    vals = [bessel_tail(1.5, 2, D) for D in (4, 8, 16, 32)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-20


def test_bilateral_tail_decreases_with_cutoff():
    vals = [bilateral_tail(2.0, K) for K in (2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_series_eval_tail_is_honest_at_1x1():
    X = Operator.from_rows([[1.0]], FLOAT)
    for D in (6, 10, 20):
        s = bessel_series(X, 0, D)
        for t in (0.5, 1.5, 3.0):
            val, tail = series_eval(s, t)
            truth = scipy.special.jv(0, t)
            assert abs(val.entry(0, 0) - truth) <= tail.value + 1e-13


# -- families and batched float relations ----------------------------------------------


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(float_towers(), st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_float_family_rows_match_per_index_series(tower_draw, ms):
    """Each row of a float family has the bits of the one-index series and
    of the per-degree products tower[deg] * float(q), signed zeros and
    complex towers included."""
    n, tower, D = tower_draw
    family = bessel_family(tower, ms, D)
    dtype = np.result_type(*(c.data.dtype for c in tower))
    assert family._arr.shape == (len(ms), D + 1, n, n) and family._arr.dtype == dtype
    for i, m in enumerate(ms):
        want = np.zeros((D + 1, n, n), dtype)
        for deg, q in bessel_terms(m, D):
            want[deg] = tower[deg].data * float(q)
        single = bessel_coeffs(tower, m, D, 1.0, 1.0)
        assert family[i]._arr.tobytes() == want.tobytes() == single._arr.tobytes(), m


def _per_k_residuals(rel, L, D, k_range):
    """The float residual norms of `rel` formed one k at a time, from one
    series per index, and the roundoff bound over those series."""
    lo, hi = min(k_range), max(k_range)
    J = {m: bessel_series(L, m, D) for m in range(min(lo - 1, -hi), max(hi + 1, -lo) + 1)}
    _equation, short, residual_series = besselop._RELATIONS[rel]
    residuals = [residual_series(J, L, k).max_coeff_norm(D - short) for k in k_range]
    scale = max(1.0, frobenius(L)) * max(s.max_coeff_norm() for s in J.values())
    return residuals, 64.0 * EPS * (D + 2) * scale


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    complex_=st.booleans(),
    lo=st.integers(-4, 4),
    width=st.integers(0, 4),
    extra=st.integers(0, 3),
)
def test_float_relations_over_all_k_match_the_per_k_route(n, seed, complex_, lo, width, extra):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    L = Operator.from_rows(x + 1j * rng.standard_normal((n, n)) if complex_ else x, FLOAT)
    k_range = list(range(lo, lo + width + 1))
    D = max(abs(k) for k in k_range) + 2 + extra
    for rel in RELATIONS:
        report = check_recurrence(rel, L, D, k_range)
        residuals, bound = _per_k_residuals(rel, L, D, k_range)
        assert [r.residual.hex() for r in report.records] == [v.hex() for v in residuals], rel
        assert {r.bound for r in report.records} == {bound}, rel


def test_batched_float_relations_raise_non_finite():
    """L^4 is finite, L^5 is not: every relation that multiplies by L raises."""
    L = Operator.from_rows([[1e70, 0.0], [0.0, 0.0]], FLOAT)
    with np.errstate(over="ignore", invalid="ignore"):
        for rel in ("recurrence_2k", "derivative_diff", "positive_derivative", "negative_derivative"):
            with pytest.raises(NonFiniteError):
                check_recurrence(rel, L, 4, [-1, 0, 1])


def test_patched_bessel_terms_reaches_every_float_route(monkeypatch):
    """Every float route reads bessel_terms when it is called: patching it
    after the float routes have run once changes the float recurrences, the
    sum rule, bessel_eval and the cal form, and undoing the patch gives the
    first results back."""
    A = Operator.from_rows([["1/4", -1], ["1/2", 0]], EXACT)
    L_exact = Operator.from_rows([["1/2", "1/4"], ["-1/2", "3/4"]], EXACT)
    fi = make_instance("patched", L_exact, A, A).to_float()
    L = fi.L
    D, ks = 12, [-2, -1, 0, 1, 2]
    L_powers = powers(L, D)

    def results():
        recurrences = [
            tuple(r.residual for r in check_recurrence(rel, L, D, ks).records) for rel in RELATIONS
        ]
        sol = solution_cal_form(fi, D)
        return (
            recurrences,
            sum_rule_residual(L, 1.5, 4, D)[0],
            bessel_eval(L_powers, 1, 1.5).data.tobytes(),
            tuple(c.data.tobytes() for c in sol.p.coeffs),
            tuple(c.data.tobytes() for c in sol.m.coeffs),
        )

    clean = results()

    def damped(m, D):
        for deg, q in bessel_terms(m, D):
            j = (deg - abs(m)) // 2
            yield deg, q / (j + 1) if j >= 1 else q

    monkeypatch.setattr(besselop, "bessel_terms", damped)
    mutant = results()
    # negative_index holds for any damping that is the same for J_k and J_{-k}
    assert [a != b for a, b in zip(clean[0], mutant[0])] == [False, True, True, True, True]
    assert clean[1] != mutant[1] and clean[2] != mutant[2]
    assert clean[3] != mutant[3] and clean[4] != mutant[4]
    monkeypatch.undo()
    assert results() == clean
