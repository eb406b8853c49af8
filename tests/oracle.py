"""True values of the cal-form solution, from outside the lab's own series,
in two cases where the series sum in closed form.

If ad_L[A] = [L, A] = mu A for a rational mu, then ad_L^j[A] = mu^j A, and

    M(t) = J_0(t mu_M) M0,    P(t) = (t/2) J_1(t mu_P) P0

with J_nu the classical Bessel function (`cal_form`).  Each mu is found in
Fraction arithmetic and each J_nu comes from mpmath.  An M0 or P0 that is a
sum of eigenvectors A_k, each with its own mu_k, is given as the list of its
parts, and its term is the sum of J_0(t mu_k) A_k or (t/2) J_1(t mu_k) A_k.

If the tower A, ad_L[A], ad_L^2[A], ... reaches 0, each series is a finite
sum, exact at every rational t (`ended_cal_form`):

    J_nu(t ad_L)[A] = sum_j a_j (t/2)^(nu+2j) ad_L^(nu+2j)[A],
    a_0 = 1/nu!,  a_(j+1) / a_j = -1 / ((j+1)(j+1+nu)),

with M = J_0(t ad_L)[M0] and P = (t/2) J_1(t ad_L)[P0].

This module imports nothing from heavenlab, so a wrong coefficient, tower or
tail in the lab cannot agree with itself here.
"""
from __future__ import annotations

from fractions import Fraction

import mpmath

# decimal digits of the true values, far past a float's 16
DPS = 50


def _rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _commutator(L, A):
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(_matmul(L, A), _matmul(A, L))]


def eigenvalue(L, A) -> Fraction:
    """mu with [L, A] = mu A, for rows of L and of a nonzero A (entries as
    Fraction() takes them); ValueError when A is no eigenvector of ad_L."""
    L, A = _rows(L), _rows(A)
    ad = _commutator(L, A)
    pivot = next(((i, j) for i, row in enumerate(A) for j, x in enumerate(row) if x), None)
    if pivot is None:
        raise ValueError("A is zero")
    i, j = pivot
    mu = ad[i][j] / A[i][j]
    if any(c != mu * x for crow, arow in zip(ad, A) for c, x in zip(crow, arow)):
        raise ValueError("A is not an eigenvector of ad_L")
    return mu


def cal_form(L, M0, P0, t: float) -> tuple[list[list], list[list]]:
    """(P(t), M(t)) as rows of mpmath numbers to DPS decimal digits; t is
    taken exactly, so a float t is the t of the float evaluation.  M0 and P0
    are each the rows of an eigenvector of ad_L, or a list of such rows."""
    with mpmath.workdps(DPS):
        t = mpmath.mpf(t)
        P = _eigen_sum(L, P0, lambda mu: t / 2 * mpmath.besselj(1, t * mu))
        return P, _eigen_sum(L, M0, lambda mu: mpmath.besselj(0, t * mu))


def _eigen_sum(L, A, f) -> list[list]:
    """sum_k f(mu_k) A_k over the parts A_k of A (A itself when it is one
    matrix), where [L, A_k] = mu_k A_k."""
    parts = A if isinstance(A[0][0], list) else [A]
    terms = [_scaled(f(_mpf(eigenvalue(L, part))), part) for part in parts]
    return [[sum(xs) for xs in zip(*rows)] for rows in zip(*terms)]


def _mpf(x: Fraction):
    """x at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def _scaled(c, A) -> list[list]:
    return [[c * _mpf(x) for x in row] for row in _rows(A)]


def tower(L, A) -> list[list[list[Fraction]]]:
    """[A, ad_L[A], ..., ad_L^(r-1)[A]] where ad_L^r[A] is the first zero;
    ValueError when ad_L^(n^2)[A] is nonzero, for then none is zero: where
    the tower ends, its r entries are independent, so r <= n^2."""
    L, A = _rows(L), _rows(A)
    out = []
    while any(x for row in A for x in row):
        if len(out) == len(L) ** 2:
            raise ValueError("the tower of A does not end")
        out.append(A)
        A = _commutator(L, A)
    return out


def ended_cal_form(L, M0, P0, t) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """(P(t), M(t)) as rows of Fractions, exact, where the towers of M0 and
    P0 end; t is taken exactly, so a float t is the t of the float
    evaluation."""
    half, n = Fraction(t) / 2, len(L)
    P = _bessel_sum(tower(L, P0), 1, half, n)
    return [[half * x for x in row] for row in P], _bessel_sum(tower(L, M0), 0, half, n)


def _bessel_sum(ads, nu: int, half: Fraction, n: int) -> list[list[Fraction]]:
    """sum_j a_j half^(nu+2j) ads[nu+2j], n x n, over the degrees the tower
    `ads` holds."""
    total = [[Fraction(0)] * n for _ in range(n)]
    a = Fraction(1)  # 1/nu! for nu in {0, 1}
    for j, deg in enumerate(range(nu, len(ads), 2)):
        c = a * half**deg
        total = [[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(total, ads[deg])]
        a *= Fraction(-1, (j + 1) * (j + 1 + nu))
    return total
