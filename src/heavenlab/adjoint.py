"""The adjoint action ad_L[A] = [L, A] and its exponential.

`ad_tower` builds [A, ad_L[A], ad_L^2[A], ...] with one commutator per step;
it is the one route to ad_L^n, feeding the cal-form Bessel series and the
conjugation series alike.
"""
from __future__ import annotations

import itertools
import math

from .opcore import FLOAT, ModeMismatchError, Operator, combination, commutator, frobenius


class AdjointContext:
    """The fixed operator L that ad_L brackets with."""

    def __init__(self, L: Operator):
        self.L = L


def ad_apply(ctx: AdjointContext, a: Operator) -> Operator:
    """ad_L[A] = [L, A]."""
    return commutator(ctx.L, a)


def ad_tower(ctx: AdjointContext, a: Operator, top: int) -> list[Operator]:
    """[A, ad_L[A], ..., ad_L^top[A]], each entry one commutator on the last."""
    if top < 0:
        raise ValueError("top must be >= 0")
    tower = [a]
    for _ in range(top):
        tower.append(ad_apply(ctx, tower[-1]))
    return tower


def bch_series(ctx: AdjointContext, a0: Operator, t: float, degree: int) -> Operator:
    """Partial sum of e^{i t ad_L}[A0] = sum_n (it)^n/n! ad_L^n[A0].

    Float mode only; the result is complex in general.
    """
    if ctx.L.mode != FLOAT or a0.mode != FLOAT:
        raise ModeMismatchError("bch_series requires float mode")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    tower = ad_tower(ctx, a0, degree)
    # (it)^n/n!, each from the last
    coeffs = itertools.accumulate(
        range(1, degree + 1), lambda c, n: c * (1j * t) / n, initial=complex(1.0)
    )
    return combination(Operator.zero(ctx.L.dim, FLOAT), zip(tower, coeffs))


def bch_remainder_bound(ctx: AdjointContext, a0: Operator, t: float, degree: int) -> float:
    """Majorant for the truncation error of bch_series.

    ||ad_L^n[A0]|| <= (2||L||)^n ||A0||, so the tail is bounded by
    ||A0|| * sum_{n>degree} (2|t| ||L||)^n / n!.
    """
    r = 2.0 * abs(t) * frobenius(ctx.L)
    na = frobenius(a0)
    term = na
    for n in range(1, degree + 2):
        term = term * r / n
    # term = na r^{degree+1}/(degree+1)!; remaining sum <= term * e^r
    return term * math.exp(min(r, 700.0))


def bch_conjugate(ctx: AdjointContext, a0: Operator, t: float) -> Operator:
    """e^{itL} A0 e^{-itL} via the matrix exponential, each factor to 1e-13."""
    if ctx.L.mode != FLOAT or a0.mode != FLOAT:
        raise ModeMismatchError("bch_conjugate requires float mode")
    from .opcore import operator_exp

    itL = ctx.L.scale(1j * t)
    left = operator_exp(itL, 1e-13)
    right = operator_exp(itL.scale(-1.0), 1e-13)
    return left @ a0 @ right
