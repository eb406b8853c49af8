"""Adjoint action ad_L, its powers, and the conjugation identity."""
import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heavenlab.adjoint import (
    AdjointContext,
    ad_apply,
    ad_tower,
    bch_conjugate,
    bch_remainder_bound,
    bch_series,
)
from heavenlab.opcore import (
    EXACT,
    FLOAT,
    ModeMismatchError,
    Operator,
    commutator,
    frobenius,
    powers,
)

from _helpers import random_float_operator, random_rational_operator


# -- oracles first ------------------------------------------------------------


def test_bch_nilpotent_frozen_closed_form():
    """L = e12, A0 = e21: the adjoint tower closes after two steps.

    ad[A0] = e11 - e22, ad^2[A0] = -2 e12, ad^3[A0] = 0, so
    e^{it ad}[A0] = e21 + it (e11 - e22) + t^2 e12 exactly.
    """
    L = Operator.unit(2, 0, 1, mode=FLOAT)
    A0 = Operator.unit(2, 1, 0, mode=FLOAT)
    ctx = AdjointContext(L)
    for t in (0.3, 1.0, 2.5):
        got = bch_series(ctx, A0, t, degree=8)
        want = np.array(
            [[1j * t, t * t], [1.0, -1j * t]], dtype=complex
        )
        assert np.max(np.abs(np.array(got.data) - want)) < 1e-14


def test_bch_diagonal_eigen_oracle():
    """Diagonal L: conjugation scales entry (j,k) by e^{it(l_j - l_k)}."""
    lam = (0.5, -1.0, 2.0)
    L = Operator.diag(lam, FLOAT)
    ctx = AdjointContext(L)
    rng = random.Random(77)
    A0 = random_float_operator(rng, 3)
    t = 0.8
    got = bch_series(ctx, A0, t, degree=40)
    for j in range(3):
        for k in range(3):
            want = A0.entry(j, k) * cmath.exp(1j * t * (lam[j] - lam[k]))
            assert abs(got.entry(j, k) - want) < 1e-13


def test_bch_series_matches_conjugate_with_computed_bound():
    rng = random.Random(78)
    for _ in range(6):
        L = random_float_operator(rng, 3)
        A0 = random_float_operator(rng, 3)
        t = rng.uniform(0.1, 1.0) / max(frobenius(L), 0.1)
        ctx = AdjointContext(L)
        D = 8
        s = bch_series(ctx, A0, t, D)
        c = bch_conjugate(ctx, A0, t)
        rb = bch_remainder_bound(ctx, A0, t, D)
        # conjugate side carries its own exp() error, covered by a small cushion
        assert frobenius(s - c) <= rb + 1e-11 * max(1.0, frobenius(A0))


# -- ad_L power routes ---------------------------------------------------------


def _ad_binomial(L: Operator, A: Operator, n: int) -> Operator:
    """ad_L^n[A] = sum_k (-1)^k C(n,k) L^{n-k} A L^k, with exact binomials."""
    acc = Operator.zero(L.dim, L.mode)
    Lp = powers(L, n)
    for k in range(n + 1):
        acc = acc + (Lp[n - k] @ A @ Lp[k]).scale((-1) ** k * math.comb(n, k))
    return acc


def test_ad_power_iterated_equals_binomial_exact():
    """Every entry of ad_tower, the iterated commutator, equals the binomial sum."""
    rng = random.Random(5)
    for top in (0, 1, 2, 5, 9):
        L = random_rational_operator(rng, 4)
        A = random_rational_operator(rng, 4)
        tower = ad_tower(AdjointContext(L), A, top)
        assert len(tower) == top + 1
        for n, term in enumerate(tower):
            assert term == _ad_binomial(L, A, n), (top, n)


def test_ad_power_rejects_negative():
    ctx = AdjointContext(Operator.identity(2, EXACT))
    with pytest.raises(ValueError):
        ad_tower(ctx, Operator.identity(2, EXACT), -1)


def test_ad_is_a_derivation():
    # ad[AB] = ad[A] B + A ad[B], exact
    rng = random.Random(6)
    L = random_rational_operator(rng, 3)
    A = random_rational_operator(rng, 3)
    B = random_rational_operator(rng, 3)
    ctx = AdjointContext(L)
    lhs = ad_apply(ctx, A @ B)
    rhs = ad_apply(ctx, A) @ B + A @ ad_apply(ctx, B)
    assert lhs == rhs


def test_powers_match_repeated_products():
    rng = random.Random(7)
    L = random_rational_operator(rng, 3)
    manual = Operator.identity(3, EXACT)
    got = powers(L, 5)
    assert len(got) == 6
    for j in range(6):
        assert got[j] == manual, j
        manual = manual @ L
    assert powers(L, 0) == [Operator.identity(3, EXACT)]
    with pytest.raises(ValueError):
        powers(L, -1)


def test_ad_power_growth_bound():
    # ||ad^n[A]|| <= (2||L||)^n ||A||: the estimate every tail bound leans on
    rng = random.Random(8)
    L = random_float_operator(rng, 4)
    A = random_float_operator(rng, 4)
    bound = frobenius(A)
    two_l = 2.0 * frobenius(L)
    for term in ad_tower(AdjointContext(L), A, 8):
        assert frobenius(term) <= bound * (1.0 + 1e-12)
        bound *= two_l


# -- bch series mode handling ---------------------------------------------------


def test_bch_series_requires_float():
    ctx = AdjointContext(Operator.identity(2, EXACT))
    with pytest.raises(ModeMismatchError):
        bch_series(ctx, Operator.identity(2, EXACT), 1.0, 4)


def test_bch_series_coefficients_match_ad_power():
    """Real/imag parts of the partial sum are exactly the alternating towers."""
    rng = random.Random(9)
    L = random_float_operator(rng, 3)
    A0 = random_float_operator(rng, 3)
    ctx = AdjointContext(L)
    t = 0.7
    D = 6
    s = bch_series(ctx, A0, t, D)
    re = Operator.zero(3, FLOAT)
    im = Operator.zero(3, FLOAT)
    for n, ad_n in enumerate(ad_tower(ctx, A0, D)):
        term = ad_n.scale(t**n / math.factorial(n))
        if n % 4 == 0:
            re = re + term
        elif n % 4 == 1:
            im = im + term
        elif n % 4 == 2:
            re = re - term
        else:
            im = im - term
    assert frobenius(s - (re + im.scale(1j))) < 1e-13 * max(1.0, frobenius(re), frobenius(im))


# -- harmonic combination --------------------------------------------------------


def test_harmonic_solution_satisfies_oscillator_fd():
    """S(t) = e^{it ad}[A0] + e^{-it ad}[B0] has S_tt + ad^2[S] = 0.

    Both exponentials are bch_series partial sums, the second at -t.

    Checked by central finite differences; the h^2 discretization error
    dominates, so the tolerance scales with h^2.
    """
    rng = random.Random(10)
    L = random_float_operator(rng, 3, scale=0.8)
    A0 = random_float_operator(rng, 3)
    B0 = random_float_operator(rng, 3)
    ctx = AdjointContext(L)
    t, h, D = 0.6, 1e-3, 40
    harmonic = lambda s: bch_series(ctx, A0, s, D) + bch_series(ctx, B0, -s, D)
    sm, s0, sp = harmonic(t - h), harmonic(t), harmonic(t + h)
    stt = (sp - s0.scale(2.0) + sm).scale(1.0 / (h * h))
    resid = stt + ad_tower(ctx, s0, 2)[2]
    scale = max(1.0, (2 * frobenius(L)) ** 4 * (frobenius(A0) + frobenius(B0)))
    assert frobenius(resid) < 10.0 * h * h * scale

