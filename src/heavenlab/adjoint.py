"""The adjoint action ad_L[A] = [L, A] and its exponential.

AdjointContext caches powers of a fixed L.  Iterated and binomial
evaluations of ad_L^n are kept as two genuinely different code paths; their
exact-mode agreement is one of the package's self-checks.
"""
from __future__ import annotations

import math
from typing import Literal

from .opcore import FLOAT, ModeMismatchError, Operator, commutator, frobenius


class AdjointContext:
    """Fixed operator L with a lazily extended power cache."""

    def __init__(self, L: Operator):
        self.L = L
        self._powers: list[Operator] = [Operator.identity(L.dim, L.mode), L]

    @property
    def dim(self) -> int:
        return self.L.dim

    @property
    def mode(self) -> str:
        return self.L.mode

    def power(self, j: int) -> Operator:
        """L^j, cached."""
        if j < 0:
            raise ValueError("negative power")
        while len(self._powers) <= j:
            self._powers.append(self._powers[-1] @ self.L)
        return self._powers[j]


def ad_apply(ctx: AdjointContext, a: Operator) -> Operator:
    """ad_L[A] = [L, A]."""
    return commutator(ctx.L, a)


def ad_power(
    ctx: AdjointContext,
    a: Operator,
    n: int,
    method: Literal["iterated", "binomial"] = "iterated",
) -> Operator:
    """ad_L^n[A] as n nested commutators, or via the binomial expansion

        ad_L^n[A] = sum_k (-1)^k C(n,k) L^{n-k} A L^k

    with exact big-integer binomials.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if method == "iterated":
        cur = a
        for _ in range(n):
            cur = commutator(ctx.L, cur)
        return cur
    if method == "binomial":
        acc = Operator.zero(ctx.dim, ctx.mode)
        for k in range(n + 1):
            c = math.comb(n, k)
            if k % 2:
                c = -c
            acc = acc + (ctx.power(n - k) @ a @ ctx.power(k)).scale(c)
        return acc
    raise ValueError(f"unknown method {method!r}")


def bch_series(ctx: AdjointContext, a0: Operator, t: float, degree: int) -> Operator:
    """Partial sum of e^{i t ad_L}[A0] = sum_n (it)^n/n! ad_L^n[A0].

    Float mode only; the result is complex in general.
    """
    if ctx.mode != FLOAT or a0.mode != FLOAT:
        raise ModeMismatchError("bch_series requires float mode")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    acc = Operator.zero(ctx.dim, FLOAT)
    cur = a0
    coeff = complex(1.0)
    for n in range(degree + 1):
        if n > 0:
            cur = commutator(ctx.L, cur)
            coeff = coeff * (1j * t) / n
        acc = acc + cur.scale(coeff)
    return acc


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


def bch_conjugate(ctx: AdjointContext, a0: Operator, t: float, tol: float = 1e-13) -> Operator:
    """e^{itL} A0 e^{-itL} via the matrix exponential."""
    if ctx.mode != FLOAT or a0.mode != FLOAT:
        raise ModeMismatchError("bch_conjugate requires float mode")
    from .opcore import operator_exp

    itL = ctx.L.scale(1j * t)
    left = operator_exp(itL, tol)
    right = operator_exp(itL.scale(-1.0), tol)
    return left @ a0 @ right

