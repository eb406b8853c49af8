"""Operator Bessel series: frozen coefficients, scipy oracle, recurrences."""
import math
import random
from fractions import Fraction

import pytest
import scipy.special

from heavenlab.besselop import (
    RELATIONS,
    bessel_eval,
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
from heavenlab.opcore import EXACT, FLOAT, Operator, frobenius

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
    powers = [Operator.identity(3, EXACT)]
    while len(powers) <= D:
        powers.append(powers[-1] @ X)
    for m in (-3, -1, 0, 2, 4):
        direct = bessel_eval(powers, m, Fraction(2, 5), EXACT)
        via, _ = series_eval(bessel_series(X, m, D), Fraction(2, 5))
        assert direct == via, m


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
