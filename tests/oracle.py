"""True values of the cal-form solution where ad_L has the initial data as
eigenvectors, from outside the lab's own series.

If ad_L[A] = [L, A] = mu A for a rational mu, then ad_L^j[A] = mu^j A, and
the operator Bessel series of the cal form sum in closed form:

    M(t) = J_0(t mu_M) M0,    P(t) = (t/2) J_1(t mu_P) P0

with J_nu the classical Bessel function.  Each mu is found in Fraction
arithmetic and each J_nu comes from mpmath.  This module imports nothing from
heavenlab, so a wrong coefficient, tower or tail in the lab cannot agree with
itself here.
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


def eigenvalue(L, A) -> Fraction:
    """mu with [L, A] = mu A, for rows of L and of a nonzero A (entries as
    Fraction() takes them); ValueError when A is no eigenvector of ad_L."""
    L, A = _rows(L), _rows(A)
    ad = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(_matmul(L, A), _matmul(A, L))]
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
    taken exactly, so a float t is the t of the float evaluation."""
    with mpmath.workdps(DPS):
        t = mpmath.mpf(t)
        j0 = mpmath.besselj(0, t * _mpf(eigenvalue(L, M0)))
        j1 = t / 2 * mpmath.besselj(1, t * _mpf(eigenvalue(L, P0)))
        return _scaled(j1, P0), _scaled(j0, M0)


def _mpf(x: Fraction):
    """x at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def _scaled(c, A) -> list[list]:
    return [[c * _mpf(x) for x in row] for row in _rows(A)]
